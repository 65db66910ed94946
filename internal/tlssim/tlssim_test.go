package tlssim

import (
	"crypto/tls"
	"crypto/x509"
	"io"
	"net"
	"testing"
	"time"
)

func TestStoreLookupBySubjectAndSAN(t *testing.T) {
	s := NewStore()
	s.Put(&Certificate{Subject: "finance.gov.br", SANs: []string{"finance.gov.br", "www.finance.gov.br", "energia-br.com"}})
	if c := s.Get("finance.gov.br"); c == nil {
		t.Fatal("subject lookup failed")
	}
	if c := s.Get("energia-br.com"); c == nil || c.Subject != "finance.gov.br" {
		t.Fatal("SAN lookup failed")
	}
	if s.Get("unknown.example") != nil {
		t.Fatal("unknown hostname must return nil")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestSANUniverse(t *testing.T) {
	s := NewStore()
	s.Put(&Certificate{Subject: "a.gov", SANs: []string{"a.gov", "affiliate.com"}})
	s.Put(&Certificate{Subject: "b.gov", SANs: []string{"b.gov"}})
	if c := s.bySAN["affiliate.com"]; c == nil || c.Subject != "a.gov" {
		t.Fatalf("SAN index missing affiliate.com: %v", s.bySAN)
	}
	if len(s.bySAN) != 3 {
		t.Fatalf("SAN index size = %d, want 3", len(s.bySAN))
	}
}

// TestSANLookupTieIndependentOfPutOrder: two certificates listing the
// same SAN host (a SAN-only affiliate shared by two landing sites) must
// answer Get and the SAN index with the smaller subject whichever was
// put first.
func TestSANLookupTieIndependentOfPutOrder(t *testing.T) {
	a := &Certificate{Subject: "a.gov", SANs: []string{"a.gov", "shared-affiliate.com"}}
	b := &Certificate{Subject: "b.gov", SANs: []string{"b.gov", "shared-affiliate.com"}}
	for _, order := range [][]*Certificate{{a, b}, {b, a}} {
		s := NewStore()
		for _, c := range order {
			s.Put(c)
		}
		if c := s.Get("shared-affiliate.com"); c != a {
			t.Fatalf("put order %s,%s: Get = %v, want a.gov", order[0].Subject, order[1].Subject, c)
		}
		if got := s.bySAN["shared-affiliate.com"]; got != a {
			t.Fatalf("put order %s,%s: SAN index = %v, want a.gov", order[0].Subject, order[1].Subject, got)
		}
	}
}

// TestPutReplacementDropsStaleSANs: re-putting a subject without a SAN
// hands the SAN to the next certificate that still lists it.
func TestPutReplacementDropsStaleSANs(t *testing.T) {
	s := NewStore()
	s.Put(&Certificate{Subject: "a.gov", SANs: []string{"a.gov", "shared-affiliate.com"}})
	s.Put(&Certificate{Subject: "b.gov", SANs: []string{"b.gov", "shared-affiliate.com"}})
	s.Put(&Certificate{Subject: "a.gov", SANs: []string{"a.gov"}})
	if c := s.Get("shared-affiliate.com"); c == nil || c.Subject != "b.gov" {
		t.Fatalf("Get after replacement = %v, want b.gov", c)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
}

func TestSubjectsSorted(t *testing.T) {
	s := NewStore()
	s.Put(&Certificate{Subject: "z.gov"})
	s.Put(&Certificate{Subject: "a.gov"})
	subj := s.subjects()
	if len(subj) != 2 || subj[0] != "a.gov" || subj[1] != "z.gov" {
		t.Fatalf("Subjects = %v", subj)
	}
}

func TestSelfSignRoundTrip(t *testing.T) {
	rec := &Certificate{
		Subject: "www.gub.uy",
		SANs:    []string{"sso.gub.uy", "tramites.gub.uy"},
		Issuer:  "GovTrust CA",
	}
	cert, err := SelfSign(rec, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := x509.ParseCertificate(cert.Certificate[0])
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"www.gub.uy": true, "sso.gub.uy": true, "tramites.gub.uy": true}
	for _, s := range parsed.DNSNames {
		delete(want, s)
	}
	if len(want) != 0 {
		t.Fatalf("missing SANs after round trip: %v", want)
	}
}

// TestSelfSignServesTLS terminates a real TLS connection with the
// generated certificate and reads the SANs off the wire, exactly like
// the §3.3 methodology inspects landing-page certificates.
func TestSelfSignServesTLS(t *testing.T) {
	rec := &Certificate{Subject: "landing.gov.test", SANs: []string{"affiliate.example"}, Issuer: "GovTrust CA"}
	cert, err := SelfSign(rec, time.Now().Add(-time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := tls.Listen("tcp", "127.0.0.1:0", &tls.Config{Certificates: []tls.Certificate{cert}})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		conn.Write([]byte("hello"))
		conn.Close()
	}()

	var leaf *x509.Certificate
	conn, err := tls.Dial("tcp", ln.Addr().String(), &tls.Config{
		InsecureSkipVerify: true,
		VerifyPeerCertificate: func(raw [][]byte, _ [][]*x509.Certificate) error {
			c, err := x509.ParseCertificate(raw[0])
			leaf = c
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	io.ReadAll(conn)
	conn.Close()
	if leaf == nil {
		t.Fatal("no peer certificate observed")
	}
	found := false
	for _, s := range leaf.DNSNames {
		if s == "affiliate.example" {
			found = true
		}
	}
	if !found {
		t.Fatalf("SAN missing from served certificate: %v", leaf.DNSNames)
	}
	var _ net.Conn // keep net import honest
}
