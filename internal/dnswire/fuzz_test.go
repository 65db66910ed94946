package dnswire

import (
	"net/netip"
	"reflect"
	"testing"
)

// fuzzReply is a response carrying every RR type the codec encodes,
// with names that share suffixes so Pack compresses them.
func fuzzReply() *Message {
	m := NewQuery(7, "www.gov.br", TypeA).Reply()
	m.Answers = []RR{
		{Name: "www.gov.br.", Type: TypeCNAME, Class: ClassIN, TTL: 300, Target: "cdn.gov.br."},
		{Name: "cdn.gov.br.", Type: TypeA, Class: ClassIN, TTL: 60, A: netip.MustParseAddr("179.27.169.201")},
		{Name: "cdn.gov.br.", Type: TypeAAAA, Class: ClassIN, TTL: 60, A: netip.MustParseAddr("2001:db8::1")},
		{Name: "cdn.gov.br.", Type: TypeTXT, Class: ClassIN, TTL: 60, TXT: []string{"hello", ""}},
	}
	m.Authority = []RR{
		{Name: "gov.br.", Type: TypeNS, Class: ClassIN, TTL: 86400, Target: "ns1.gov.br."},
		{Name: "gov.br.", Type: TypeSOA, Class: ClassIN, TTL: 86400, SOA: &SOAData{
			MName: "ns1.gov.br.", RName: "hostmaster.gov.br.", Serial: 2024010101,
		}},
	}
	m.Additional = []RR{
		{Name: "201.169.27.179.in-addr.arpa.", Type: TypePTR, Class: ClassIN, TTL: 300, Target: "r01.uy."},
	}
	return m
}

// FuzzUnpack holds the decoder to its contract on arbitrary bytes: no
// panic, an error for every rejected input, and a lossless round trip
// — Unpack(m.Pack()) == m for every accepted message m that Pack can
// encode. The committed corpus holds the malformed shapes (pointer
// loop, forward pointer, label overrun, overlong name); the seeds
// below are Pack output of a query and of a reply.
func FuzzUnpack(f *testing.F) {
	for _, m := range []*Message{NewQuery(1234, "www.gub.uy", TypeA), fuzzReply()} {
		b, err := m.Pack()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unpack(data)
		if err != nil {
			if m != nil {
				t.Fatalf("Unpack returned a message with error %v", err)
			}
			return
		}
		if m == nil {
			t.Fatal("Unpack returned neither a message nor an error")
		}
		b, err := m.Pack()
		if err != nil {
			return
		}
		again, err := Unpack(b)
		if err != nil {
			t.Fatalf("re-reading its own encoding: %v", err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("round trip changed the message:\n got %+v\nwant %+v", again, m)
		}
	})
}

// TestPackKeepsNameBytes is the first FuzzUnpack counterexample
// (corpus entry invalid-utf8-labels): Pack used to lower-case every
// name through strings.ToLower, which folds upper case and rewrites
// invalid UTF-8 as U+FFFD, so an accepted message did not survive
// Pack → Unpack. Pack now writes names byte for byte.
func TestPackKeepsNameBytes(t *testing.T) {
	wire := append([]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0}, 6, 'G', 'o', 'v', 0xff, 'B', 'R', 0, 0, 1, 0, 1)
	m, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Questions[0].Name; got != "Gov\xffBR." {
		t.Fatalf("decoded name %q", got)
	}
	b, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	again, err := Unpack(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, m) {
		t.Fatalf("round trip changed the message:\n got %+v\nwant %+v", again, m)
	}
}
