package crawler

import (
	"fmt"
	"testing"

	"repro/internal/webgen"
)

// TestExtractLinksAllocationBudget pins the allocations of reading the
// links out of a rendered page. Canonical links skip net/url, so each
// distinct link costs the one copy out of the body. On top come the
// base URL parse and the doubling growth of the result slice and the
// dedup map: 14 objects at 32 links, so the budget leaves 2 spare.
// Parsing every link through net/url made 175 objects for this page.
func TestExtractLinksAllocationBudget(t *testing.T) {
	const distinct = 32
	page := &webgen.Page{Path: "/l0/index"}
	for i := 0; i < distinct; i++ {
		ext := []string{"", ".css", ".js", ".png"}[i%4]
		page.Links = append(page.Links, fmt.Sprintf("https://cdn%d.finance.gov.br/l1/page-%d%s", i%3, i, ext))
	}
	base := "https://finance.gov.br/l0/index"
	body := webgen.RenderHTML(&webgen.Site{Host: "finance.gov.br"}, page, false)
	if got := len(ExtractLinks(base, body)); got != distinct {
		t.Fatalf("extracted %d links, want %d", got, distinct)
	}
	allocs := testing.AllocsPerRun(20, func() { ExtractLinks(base, body) })
	if budget := float64(distinct + 16); allocs > budget {
		t.Fatalf("ExtractLinks allocates %.0f objects for %d distinct links, budget %.0f", allocs, distinct, budget)
	}
}
