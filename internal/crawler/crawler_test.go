package crawler

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fetch"
	"repro/internal/sched"
)

// fakeSite is a Fetcher serving a synthetic page graph: page /p{d}-{i}
// links to two pages at depth d+1.
type fakeSite struct {
	maxDepth int
	fanout   int
	fetches  atomic.Int64
	fail     map[string]bool
	slow     time.Duration
}

func (f *fakeSite) Fetch(ctx context.Context, url string) (*fetch.Response, error) {
	f.fetches.Add(1)
	if f.slow > 0 {
		select {
		case <-time.After(f.slow):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if f.fail[url] {
		return nil, errors.New("connection refused")
	}
	var d, i int
	if _, err := fmt.Sscanf(url, "https://site.test/p%d-%d", &d, &i); err != nil {
		return nil, fmt.Errorf("no such page %q", url)
	}
	var body strings.Builder
	if d < f.maxDepth {
		for k := 0; k < f.fanout; k++ {
			fmt.Fprintf(&body, `<a href="/p%d-%d">x</a>`, d+1, i*f.fanout+k)
		}
	}
	return &fetch.Response{Status: 200, ContentType: "text/html", Body: []byte(body.String())}, nil
}

func TestCrawlVisitsWholeTree(t *testing.T) {
	site := &fakeSite{maxDepth: 3, fanout: 2}
	c := &Crawler{Fetcher: site, Config: Config{MaxDepth: 7, Concurrency: 4, Country: "XX"}}
	archive, _, err := c.Crawl(context.Background(), []string{"https://site.test/p0-0"})
	if err != nil {
		t.Fatal(err)
	}
	// Depths 0..3 with fanout 2: 1 + 2 + 4 + 8 = 15 URLs.
	if got := len(archive.Entries); got != 15 {
		t.Fatalf("entries = %d, want 15", got)
	}
	for _, e := range archive.Entries {
		if e.Country != "XX" {
			t.Fatalf("country not propagated: %+v", e)
		}
	}
}

func TestCrawlHonoursDepthLimit(t *testing.T) {
	site := &fakeSite{maxDepth: 10, fanout: 1}
	c := &Crawler{Fetcher: site, Config: Config{MaxDepth: 3, Concurrency: 2}}
	archive, _, err := c.Crawl(context.Background(), []string{"https://site.test/p0-0"})
	if err != nil {
		t.Fatal(err)
	}
	// Depth 0,1,2,3 → 4 entries; nothing deeper.
	if got := len(archive.Entries); got != 4 {
		t.Fatalf("entries = %d, want 4 (depth limit 3)", got)
	}
	for _, e := range archive.Entries {
		if e.Depth > 3 {
			t.Fatalf("entry beyond depth limit: %+v", e)
		}
	}
}

func TestCrawlDefaultDepthIsSeven(t *testing.T) {
	site := &fakeSite{maxDepth: 12, fanout: 1}
	c := &Crawler{Fetcher: site, Config: Config{Concurrency: 2}}
	archive, _, err := c.Crawl(context.Background(), []string{"https://site.test/p0-0"})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(archive.Entries); got != 8 {
		t.Fatalf("entries = %d, want 8 (the paper's seven levels below the landing page)", got)
	}
}

func TestCrawlDeduplicatesURLs(t *testing.T) {
	// All pages link to the same child.
	site := &fakeSite{maxDepth: 2, fanout: 3}
	c := &Crawler{Fetcher: site, Config: Config{MaxDepth: 7, Concurrency: 4}}
	archive, _, err := c.Crawl(context.Background(), []string{"https://site.test/p0-0", "https://site.test/p0-0"})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, e := range archive.Entries {
		seen[e.URL]++
	}
	for url, n := range seen {
		if n > 1 {
			t.Fatalf("URL %s fetched %d times", url, n)
		}
	}
}

func TestCrawlRecordsFailuresAndContinues(t *testing.T) {
	site := &fakeSite{maxDepth: 2, fanout: 2,
		fail: map[string]bool{"https://site.test/p1-0": true}}
	c := &Crawler{Fetcher: site, Config: Config{MaxDepth: 7, Concurrency: 2}}
	archive, _, err := c.Crawl(context.Background(), []string{"https://site.test/p0-0"})
	if err != nil {
		t.Fatal(err)
	}
	var failed int
	for _, e := range archive.Entries {
		if e.Status == 0 {
			failed++
		}
	}
	if failed != 1 {
		t.Fatalf("failed entries = %d, want 1", failed)
	}
	// The healthy subtree must still be crawled: p1-1 and children.
	if len(archive.Entries) < 4 {
		t.Fatalf("crawl gave up after a failure: %d entries", len(archive.Entries))
	}
}

func TestCrawlMaxURLsCapDeterministic(t *testing.T) {
	// The cap must cut a deterministic frontier, not a worker race: two
	// runs over the same page graph with the same cap and plenty of
	// workers must visit exactly the same URL set, in the same order.
	crawlOnce := func() []string {
		site := &fakeSite{maxDepth: 8, fanout: 3}
		c := &Crawler{Fetcher: site, Config: Config{MaxDepth: 8, Concurrency: 16, MaxURLs: 25}}
		archive, _, err := c.Crawl(context.Background(), []string{"https://site.test/p0-0"})
		if err != nil {
			t.Fatal(err)
		}
		var urls []string
		for _, e := range archive.Entries {
			urls = append(urls, e.URL)
		}
		return urls
	}
	first := crawlOnce()
	if len(first) != 25 {
		t.Fatalf("cap admitted %d URLs, want exactly 25", len(first))
	}
	for run := 0; run < 5; run++ {
		again := crawlOnce()
		if len(again) != len(first) {
			t.Fatalf("run %d visited %d URLs, first visited %d", run, len(again), len(first))
		}
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("run %d diverged at %d: %s vs %s", run, i, first[i], again[i])
			}
		}
	}
}

// TestCrawlFrontierAccounting: the Frontier counts the URLs admitted
// at each depth and every candidate the cap evicted, landing seeds
// included.
func TestCrawlFrontierAccounting(t *testing.T) {
	cases := []struct {
		name      string
		maxURLs   int
		landings  []string
		byDepth   []int64
		truncated int64
	}{
		// 1 + 3 + 9 admitted; 12 of depth 3's 27 fit the cap, and all 36
		// children of those 12 are evicted.
		{"cap mid-level", 25, []string{"https://site.test/p0-0"}, []int64{1, 3, 9, 12}, 15 + 36},
		// The second landing and all three children exceed a cap of 1.
		{"cap at the landings", 1, []string{"https://site.test/p0-0", "https://site.test/p0-1"}, []int64{1}, 1 + 3},
		{"uncapped", 0, []string{"https://site.test/p0-0"}, []int64{1, 3, 9}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			maxDepth := 8
			if tc.maxURLs == 0 {
				maxDepth = 2
			}
			site := &fakeSite{maxDepth: maxDepth, fanout: 3}
			c := &Crawler{Fetcher: site, Config: Config{MaxDepth: maxDepth, Concurrency: 4, MaxURLs: tc.maxURLs}}
			archive, fr, err := c.Crawl(context.Background(), tc.landings)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(fr.AdmittedByDepth, tc.byDepth) || fr.Truncated != tc.truncated {
				t.Errorf("frontier = %+v, want admitted %v truncated %d", fr, tc.byDepth, tc.truncated)
			}
			var admitted int64
			for _, n := range fr.AdmittedByDepth {
				admitted += n
			}
			if admitted != int64(len(archive.Entries)) {
				t.Errorf("admitted %d URLs, archived %d", admitted, len(archive.Entries))
			}
		})
	}
}

func TestCrawlSharedPool(t *testing.T) {
	// Two crawls sharing one study-wide pool must behave exactly like
	// crawls with private pools.
	pool := sched.NewPool(4)
	defer pool.Close()
	for _, landing := range []string{"https://site.test/p0-0", "https://site.test/p0-1"} {
		site := &fakeSite{maxDepth: 3, fanout: 2}
		c := &Crawler{Fetcher: site, Config: Config{MaxDepth: 7, Country: "XX"}, Pool: pool}
		archive, _, err := c.Crawl(context.Background(), []string{landing})
		if err != nil {
			t.Fatal(err)
		}
		if got := len(archive.Entries); got != 15 {
			t.Fatalf("entries = %d, want 15", got)
		}
	}
}

func TestIsHTMLCaseInsensitive(t *testing.T) {
	for _, ct := range []string{
		"text/html", "Text/HTML", "TEXT/HTML; charset=utf-8",
		"text/HTML;charset=ISO-8859-1", "application/xhtml+xml", "Application/XHTML+XML",
	} {
		if !isHTML(ct) {
			t.Errorf("isHTML(%q) = false, want true", ct)
		}
	}
	for _, ct := range []string{"text/css", "application/json", "image/png", ""} {
		if isHTML(ct) {
			t.Errorf("isHTML(%q) = true, want false", ct)
		}
	}
}

func TestCrawlFollowsUppercaseContentType(t *testing.T) {
	// A server announcing Text/HTML must not silently prune its subtree.
	f := fetchFunc(func(ctx context.Context, url string) (*fetch.Response, error) {
		if url == "https://site.test/" {
			return &fetch.Response{Status: 200, ContentType: "Text/HTML; charset=utf-8",
				Body: []byte(`<a href="/child">x</a>`)}, nil
		}
		return &fetch.Response{Status: 200, ContentType: "text/html", Body: nil}, nil
	})
	c := &Crawler{Fetcher: f, Config: Config{MaxDepth: 7, Concurrency: 2}}
	archive, _, err := c.Crawl(context.Background(), []string{"https://site.test/"})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(archive.Entries); got != 2 {
		t.Fatalf("entries = %d, want 2 (landing + child discovered through Text/HTML)", got)
	}
}

func TestCrawlMaxURLsCap(t *testing.T) {
	site := &fakeSite{maxDepth: 8, fanout: 3}
	c := &Crawler{Fetcher: site, Config: Config{MaxDepth: 8, Concurrency: 4, MaxURLs: 20}}
	archive, _, err := c.Crawl(context.Background(), []string{"https://site.test/p0-0"})
	if err != nil {
		t.Fatal(err)
	}
	if len(archive.Entries) > 20 {
		t.Fatalf("cap ignored: %d entries", len(archive.Entries))
	}
}

func TestCrawlCancellation(t *testing.T) {
	site := &fakeSite{maxDepth: 10, fanout: 3, slow: 5 * time.Millisecond}
	c := &Crawler{Fetcher: site, Config: Config{MaxDepth: 10, Concurrency: 2}}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := c.Crawl(ctx, []string{"https://site.test/p0-0"})
	if err == nil {
		t.Fatal("cancelled crawl must report its context error")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("cancellation did not stop the crawl promptly")
	}
}

func TestCrawlEmptyLandingList(t *testing.T) {
	c := &Crawler{Fetcher: &fakeSite{}, Config: Config{}}
	archive, _, err := c.Crawl(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(archive.Entries) != 0 {
		t.Fatal("no landings must yield an empty archive")
	}
}

func TestCrawlNonHTMLNotParsed(t *testing.T) {
	// A fetcher that serves a CSS body containing something link-like;
	// the crawler must not follow into non-HTML content.
	f := fetchFunc(func(ctx context.Context, url string) (*fetch.Response, error) {
		if strings.HasSuffix(url, ".css") {
			return &fetch.Response{Status: 200, ContentType: "text/css",
				Body: []byte(`a { background: url("/should-not-follow.png") } href="/nor-this"`)}, nil
		}
		return &fetch.Response{Status: 200, ContentType: "text/html",
			Body: []byte(`<link rel="stylesheet" href="/style.css">`)}, nil
	})
	c := &Crawler{Fetcher: f, Config: Config{MaxDepth: 7, Concurrency: 2}}
	archive, _, err := c.Crawl(context.Background(), []string{"https://site.test/"})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(archive.Entries); got != 2 {
		t.Fatalf("entries = %d, want 2 (landing + css, nothing from inside the css)", got)
	}
}

type fetchFunc func(ctx context.Context, url string) (*fetch.Response, error)

func (f fetchFunc) Fetch(ctx context.Context, url string) (*fetch.Response, error) {
	return f(ctx, url)
}

func TestCrawlConcurrencyStress(t *testing.T) {
	site := &fakeSite{maxDepth: 6, fanout: 3}
	c := &Crawler{Fetcher: site, Config: Config{MaxDepth: 6, Concurrency: 32}}
	archive, _, err := c.Crawl(context.Background(), []string{"https://site.test/p0-0"})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for d, n := 0, 1; d <= 6; d, n = d+1, n*3 {
		want += n
	}
	if len(archive.Entries) != want {
		t.Fatalf("entries = %d, want %d", len(archive.Entries), want)
	}
}

// TestCrawlPartialArchiveOnCancellation pins the graceful-degradation
// contract: a cancelled crawl returns ctx.Err() alongside the partial
// archive, and that archive is well-formed — completed levels only, no
// duplicate URLs, every entry a finished fetch (entries never record a
// cancelled in-flight slot as content).
func TestCrawlPartialArchiveOnCancellation(t *testing.T) {
	site := &fakeSite{maxDepth: 10, fanout: 3, slow: 2 * time.Millisecond}
	c := &Crawler{Fetcher: site, Config: Config{MaxDepth: 10, Concurrency: 4}}
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	archive, _, err := c.Crawl(ctx, []string{"https://site.test/p0-0"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the context error", err)
	}
	if archive == nil {
		t.Fatal("cancelled crawl returned a nil archive — the partial data is lost")
	}
	seen := map[string]bool{}
	for _, e := range archive.Entries {
		if seen[e.URL] {
			t.Fatalf("duplicate entry %q in partial archive", e.URL)
		}
		seen[e.URL] = true
		if e.Status == 0 && e.Failure == "" {
			t.Fatalf("entry %q recorded with neither status nor failure", e.URL)
		}
	}
	// The crawl was cut mid-tree, so the partial archive must be a
	// strict prefix of the full 10-level fan-out.
	if len(archive.Entries) == 0 {
		t.Fatal("nothing crawled before the deadline; slow fetches too slow for the test window")
	}
}

// TestCrawlTagsEntriesWithFailureKind: fetch errors and degraded
// responses are classified into the har entry's Failure field, and a
// truncated page's links are not trusted.
func TestCrawlTagsEntriesWithFailureKind(t *testing.T) {
	site := &fakeSite{maxDepth: 3, fanout: 2}
	trunc := &truncatingFetcher{inner: site, url: "https://site.test/p1-0"}
	c := &Crawler{Fetcher: trunc, Config: Config{MaxDepth: 7, Concurrency: 2}}
	archive, _, err := c.Crawl(context.Background(), []string{"https://site.test/p0-0"})
	if err != nil {
		t.Fatal(err)
	}
	byURL := map[string]string{}
	for _, e := range archive.Entries {
		byURL[e.URL] = e.Failure
	}
	if byURL["https://site.test/p1-0"] != string(fetch.FailTruncated) {
		t.Fatalf("truncated entry tagged %q", byURL["https://site.test/p1-0"])
	}
	if byURL["https://site.test/p0-0"] != "" {
		t.Fatalf("healthy entry tagged %q", byURL["https://site.test/p0-0"])
	}
	// p1-0's subtree (p2-0, p2-1) must be absent: links on a cut-short
	// page cannot be trusted.
	for _, u := range []string{"https://site.test/p2-0", "https://site.test/p2-1"} {
		if _, ok := byURL[u]; ok {
			t.Fatalf("link %s extracted from a truncated page", u)
		}
	}
	// p1-1's subtree is intact.
	if _, ok := byURL["https://site.test/p2-2"]; !ok {
		t.Fatal("healthy sibling subtree missing")
	}
}

// truncatingFetcher marks one URL's response as truncated.
type truncatingFetcher struct {
	inner fetch.Fetcher
	url   string
}

func (f *truncatingFetcher) Fetch(ctx context.Context, url string) (*fetch.Response, error) {
	resp, err := f.inner.Fetch(ctx, url)
	if err == nil && url == f.url {
		resp.Truncated = true
	}
	return resp, err
}
