package dnswire

import (
	"context"
	"errors"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"
)

// countingHandler serves a static zone and counts queries per name.
type countingHandler struct {
	mu     sync.Mutex
	counts map[string]int
}

func (h *countingHandler) ServeDNS(q *Message, _ net.Addr) *Message {
	h.mu.Lock()
	if h.counts == nil {
		h.counts = map[string]int{}
	}
	h.counts[q.Questions[0].Name]++
	h.mu.Unlock()

	resp := q.Reply()
	switch q.Questions[0].Name {
	case "direct.test.":
		resp.Answers = append(resp.Answers, RR{
			Name: "direct.test.", Type: TypeA, Class: ClassIN, TTL: 60,
			A: netip.MustParseAddr("192.0.2.1"),
		})
	case "alias.test.":
		resp.Answers = append(resp.Answers,
			RR{Name: "alias.test.", Type: TypeCNAME, Class: ClassIN, TTL: 300, Target: "canon.test."},
			RR{Name: "canon.test.", Type: TypeA, Class: ClassIN, TTL: 30, A: netip.MustParseAddr("192.0.2.2")},
		)
	case "broken.test.":
		resp.Header.RCode = RCodeServFail
	default:
		resp.Header.RCode = RCodeNXDomain
	}
	return resp
}

func (h *countingHandler) count(name string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.counts[name]
}

// startServer serves countingHandler on a loopback port and returns
// its address.
func startServer(t *testing.T) (string, *countingHandler) {
	t.Helper()
	h := &countingHandler{}
	srv := &Server{Handler: h}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, h
}

// TestResolverDirectLookup: a name with an A record resolves in one
// query, with no CNAME chain.
func TestResolverDirectLookup(t *testing.T) {
	addr, h := startServer(t)
	res, err := LookupA(context.Background(), addr, "direct.test")
	if err != nil {
		t.Fatal(err)
	}
	if res.Addr != netip.MustParseAddr("192.0.2.1") || len(res.Chain) != 0 || res.TTL != 60*time.Second {
		t.Fatalf("result = %+v", res)
	}
	if got := h.count("direct.test."); got != 1 {
		t.Fatalf("upstream queried %d times, want 1", got)
	}
}

// TestResolverFollowsCNAME: LookupA walks the CNAME chain in the
// answer section to the terminal A record.
func TestResolverFollowsCNAME(t *testing.T) {
	addr, _ := startServer(t)
	res, err := LookupA(context.Background(), addr, "alias.test")
	if err != nil {
		t.Fatal(err)
	}
	if res.Addr != netip.MustParseAddr("192.0.2.2") {
		t.Fatalf("addr = %v", res.Addr)
	}
	if len(res.Chain) != 1 || res.Chain[0] != "canon.test." {
		t.Fatalf("chain = %v", res.Chain)
	}
	// TTL must be the minimum across the chain (30 s, not 300 s).
	if res.TTL != 30*time.Second {
		t.Fatalf("TTL = %v, want 30s", res.TTL)
	}
}

// TestResolverNegativeCaching: NXDOMAIN surfaces as the typed
// *NXDomainError naming the canonical query name, on every lookup —
// LookupA keeps no cache, so each one asks upstream.
func TestResolverNegativeCaching(t *testing.T) {
	addr, h := startServer(t)
	for i := 0; i < 2; i++ {
		_, err := LookupA(context.Background(), addr, "missing.test")
		var nx *NXDomainError
		if !errors.As(err, &nx) || nx.Name != "missing.test." {
			t.Fatalf("want NXDomainError, got %v", err)
		}
	}
	if got := h.count("missing.test."); got != 2 {
		t.Fatalf("NXDOMAIN queried %d times, want 2 (no cache)", got)
	}
}

// TestResolverDoesNotCacheServFail: SERVFAIL is an error, and not an
// NXDOMAIN one.
func TestResolverDoesNotCacheServFail(t *testing.T) {
	addr, _ := startServer(t)
	_, err := LookupA(context.Background(), addr, "broken.test")
	var nx *NXDomainError
	if err == nil || errors.As(err, &nx) {
		t.Fatalf("SERVFAIL must surface as a non-NXDOMAIN error, got %v", err)
	}
}
