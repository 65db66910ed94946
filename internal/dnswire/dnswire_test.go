package dnswire

import (
	"context"
	"net"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestCanonicalName(t *testing.T) {
	cases := map[string]string{
		"Example.COM":  "example.com.",
		"example.com.": "example.com.",
		"a.b.c":        "a.b.c.",
	}
	for in, want := range cases {
		if got := CanonicalName(in); got != want {
			t.Errorf("CanonicalName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPackUnpackQuery(t *testing.T) {
	q := NewQuery(1234, "www.gub.uy", TypeA)
	b, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.ID != 1234 || got.Header.Response {
		t.Fatalf("header mismatch: %+v", got.Header)
	}
	if len(got.Questions) != 1 || got.Questions[0].Name != "www.gub.uy." || got.Questions[0].Type != TypeA {
		t.Fatalf("question mismatch: %+v", got.Questions)
	}
}

func TestPackUnpackAllRRTypes(t *testing.T) {
	m := &Message{Header: Header{ID: 7, Response: true, Authoritative: true}}
	m.Questions = []Question{{Name: "www.gov.br.", Type: TypeA, Class: ClassIN}}
	m.Answers = []RR{
		{Name: "www.gov.br.", Type: TypeCNAME, Class: ClassIN, TTL: 300, Target: "cdn.gov.br."},
		{Name: "cdn.gov.br.", Type: TypeA, Class: ClassIN, TTL: 60, A: netip.MustParseAddr("179.27.169.201")},
		{Name: "cdn.gov.br.", Type: TypeAAAA, Class: ClassIN, TTL: 60, A: netip.MustParseAddr("2001:db8::1")},
		{Name: "cdn.gov.br.", Type: TypeTXT, Class: ClassIN, TTL: 60, TXT: []string{"hello", "world"}},
	}
	m.Authority = []RR{
		{Name: "gov.br.", Type: TypeNS, Class: ClassIN, TTL: 86400, Target: "ns1.gov.br."},
		{Name: "gov.br.", Type: TypeSOA, Class: ClassIN, TTL: 86400, SOA: &SOAData{
			MName: "ns1.gov.br.", RName: "hostmaster.gov.br.",
			Serial: 2024010101, Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 300,
		}},
	}
	m.Additional = []RR{
		{Name: "201.169.27.179.in-addr.arpa.", Type: TypePTR, Class: ClassIN, TTL: 300, Target: "r01.mvd1.uy.antel.net."},
	}
	b, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Answers, m.Answers) {
		t.Errorf("answers mismatch:\n got %+v\nwant %+v", got.Answers, m.Answers)
	}
	if !reflect.DeepEqual(got.Authority, m.Authority) {
		t.Errorf("authority mismatch:\n got %+v\nwant %+v", got.Authority, m.Authority)
	}
	if !reflect.DeepEqual(got.Additional, m.Additional) {
		t.Errorf("additional mismatch:\n got %+v\nwant %+v", got.Additional, m.Additional)
	}
}

func TestNameCompressionShrinksMessage(t *testing.T) {
	base := &Message{Header: Header{ID: 9, Response: true}}
	for i := 0; i < 10; i++ {
		base.Answers = append(base.Answers, RR{
			Name: "very-long-ministry-hostname.finance.gov.example.", Type: TypeA,
			Class: ClassIN, TTL: 60, A: netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}),
		})
	}
	b, err := base.Pack()
	if err != nil {
		t.Fatal(err)
	}
	// Without compression each record would repeat the 49-byte name;
	// with compression the message must be much smaller.
	uncompressed := 12 + 10*(49+1+10+4)
	if len(b) >= uncompressed {
		t.Fatalf("no compression: packed %d bytes, uncompressed bound %d", len(b), uncompressed)
	}
	got, err := Unpack(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Answers) != 10 || got.Answers[9].Name != "very-long-ministry-hostname.finance.gov.example." {
		t.Fatalf("round-trip after compression failed: %+v", got.Answers)
	}
}

func TestUnpackRejectsMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty":        {},
		"short header": {0, 1, 2},
		// A label claiming 100 bytes with only one available.
		"bad label length": append([]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0}, 100, 'a'),
		// "a" followed by a pointer back to itself: every hop is
		// backwards, yet the name never ends.
		"pointer loop":    append([]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0}, 1, 'a', 0xC0, 12, 0, 1, 0, 1),
		"forward pointer": append([]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0}, 0xC0, 18, 0, 1, 0, 1, 1, 'a', 0),
		"name over 255 bytes": append(append([]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0},
			[]byte(strings.Repeat("\x3f"+strings.Repeat("a", 63), 4))...), 0, 0, 1, 0, 1),
		"dot in label": append([]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0}, 3, 'a', '.', 'b', 0, 0, 1, 0, 1),
	}
	for name, b := range cases {
		if _, err := Unpack(b); err == nil {
			t.Errorf("Unpack(%s) accepted malformed input", name)
		}
	}
}

func TestUnpackRejectsPointerLoop(t *testing.T) {
	// Header claiming one question whose name is a self-pointing
	// compression pointer.
	b := []byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 12, 0, 1, 0, 1}
	if _, err := Unpack(b); err == nil {
		t.Fatal("self-referencing pointer accepted")
	}
}

func TestPackRejectsOversizedLabel(t *testing.T) {
	m := NewQuery(1, strings.Repeat("a", 64)+".example.com", TypeA)
	if _, err := m.Pack(); err == nil {
		t.Fatal("oversized label accepted")
	}
}

func TestQuickRoundTripARecords(t *testing.T) {
	f := func(id uint16, a, b, c, d byte, labels [3]uint8) bool {
		name := ""
		for _, l := range labels {
			n := int(l%20) + 1
			name += strings.Repeat("x", n) + "."
		}
		name += "test."
		m := &Message{Header: Header{ID: id, Response: true}}
		m.Answers = []RR{{Name: name, Type: TypeA, Class: ClassIN, TTL: 42,
			A: netip.AddrFrom4([4]byte{a, b, c, d})}}
		buf, err := m.Pack()
		if err != nil {
			return false
		}
		got, err := Unpack(buf)
		if err != nil {
			return false
		}
		return got.Header.ID == id && len(got.Answers) == 1 &&
			got.Answers[0].Name == name &&
			got.Answers[0].A == netip.AddrFrom4([4]byte{a, b, c, d})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestServerUDPAndTCPFallback(t *testing.T) {
	addrOf := func(i byte) netip.Addr { return netip.AddrFrom4([4]byte{192, 0, 2, i}) }
	srv := &Server{Handler: HandlerFunc(func(q *Message, remote net.Addr) *Message {
		resp := q.Reply()
		n := 1
		if strings.HasPrefix(q.Questions[0].Name, "big.") {
			n = 60 // force truncation over UDP
		}
		for i := 0; i < n; i++ {
			resp.Answers = append(resp.Answers, RR{
				Name: q.Questions[0].Name, Type: TypeA, Class: ClassIN, TTL: 60, A: addrOf(byte(i)),
			})
		}
		return resp
	})}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	resp, err := Exchange(ctx, addr, NewQuery(100, "small.example", TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].A != addrOf(0) {
		t.Fatalf("small answer mismatch: %+v", resp.Answers)
	}

	resp, err = Exchange(ctx, addr, NewQuery(101, "big.example", TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 60 {
		t.Fatalf("TCP fallback answer count = %d, want 60", len(resp.Answers))
	}
	if resp.Header.Truncated {
		t.Fatal("TCP response still marked truncated")
	}
}

func TestServerServFailOnNilHandlerResponse(t *testing.T) {
	srv := &Server{Handler: HandlerFunc(func(q *Message, remote net.Addr) *Message { return nil })}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	resp, err := Exchange(ctx, addr, NewQuery(5, "x.example", TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != RCodeServFail {
		t.Fatalf("rcode = %v, want SERVFAIL", resp.Header.RCode)
	}
}

func TestRootNameRoundTrip(t *testing.T) {
	m := &Message{Header: Header{ID: 3}}
	m.Questions = []Question{{Name: ".", Type: TypeNS, Class: ClassIN}}
	b, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Questions[0].Name != "." {
		t.Fatalf("root name round-trip = %q", got.Questions[0].Name)
	}
}
