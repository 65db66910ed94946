// Package tlssim models the TLS certificates of landing pages. The
// classification methodology (§3.3, Table 1) inspects Subject
// Alternative Names to find government-affiliated hostnames that are
// not evident from their domain names (e.g. orniss.ro,
// energia-argentina.com.ar), so the synthetic estate carries a
// certificate record per landing site. Helpers can materialise real
// self-signed x509 certificates for integration tests that terminate
// actual TLS connections.
package tlssim

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"fmt"
	"math/big"
	"sort"
	"sync"
	"time"
)

// Certificate is the lightweight record the pipeline inspects.
type Certificate struct {
	Subject string   // common name, normally the landing hostname
	SANs    []string // subject alternative names
	Issuer  string

	// Valid reports whether a browser would accept the certificate.
	// Singanamalla et al. find over 70 % of government sites lack
	// valid HTTPS; Invalid explains why (expired, self-signed,
	// hostname mismatch).
	Valid   bool
	Invalid string
}

// Store holds certificates keyed by hostname.
type Store struct {
	mu    sync.RWMutex
	certs map[string]*Certificate
	// bySAN answers SAN lookups: for each SAN, the certificate with
	// the smallest Subject among those listing it, so the answer does
	// not depend on the order certificates were put.
	bySAN map[string]*Certificate
}

// NewStore returns an empty certificate store.
func NewStore() *Store {
	return &Store{certs: make(map[string]*Certificate), bySAN: make(map[string]*Certificate)}
}

// Put registers a certificate for its subject hostname, replacing any
// earlier certificate for the same subject.
func (s *Store) Put(c *Certificate) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, replaced := s.certs[c.Subject]
	s.certs[c.Subject] = c
	if !replaced {
		s.index(c)
		return
	}
	// The replaced certificate may still win SANs it no longer lists.
	s.bySAN = make(map[string]*Certificate, len(s.bySAN))
	for _, subj := range s.subjects() {
		s.index(s.certs[subj])
	}
}

// index enters c's SANs into bySAN; the caller holds the write lock.
func (s *Store) index(c *Certificate) {
	for _, san := range c.SANs {
		if cur := s.bySAN[san]; cur == nil || c.Subject < cur.Subject {
			s.bySAN[san] = c
		}
	}
}

// Get returns the certificate served for hostname: an exact subject
// match, else the certificate with the smallest subject among those
// listing the hostname as a SAN.
func (s *Store) Get(hostname string) *Certificate {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if c, ok := s.certs[hostname]; ok {
		return c
	}
	return s.bySAN[hostname]
}

// Len returns the number of stored certificates.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.certs)
}

func (s *Store) subjects() []string {
	out := make([]string, 0, len(s.certs))
	for k := range s.certs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// SelfSign materialises a real ECDSA P-256 self-signed x509
// certificate for the record, suitable for a TLS server in tests.
func SelfSign(c *Certificate, notBefore time.Time) (tls.Certificate, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("tlssim: key generation: %w", err)
	}
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(1),
		Subject:      pkix.Name{CommonName: c.Subject, Organization: []string{c.Issuer}},
		NotBefore:    notBefore,
		NotAfter:     notBefore.Add(90 * 24 * time.Hour),
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		DNSNames:     append([]string{c.Subject}, c.SANs...),
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("tlssim: certificate creation: %w", err)
	}
	return tls.Certificate{Certificate: [][]byte{der}, PrivateKey: key}, nil
}
