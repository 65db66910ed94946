// Package peeringdb models the PeeringDB evidence source of §3.4: a
// record store keyed by ASN carrying the network name, organization,
// website and free-text note that the government-network classifier
// searches for ownership indicators (e.g. AS26810's organization
// "U.S. Dept. of Health and Human Services").
package peeringdb

import "sync"

// Record is one PeeringDB network entry.
type Record struct {
	ASN     int
	Name    string
	Org     string
	Website string
	Note    string
}

// Store is an in-memory PeeringDB snapshot.
type Store struct {
	mu   sync.RWMutex
	byAS map[int]*Record
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{byAS: make(map[int]*Record)} }

// Add registers a record.
func (s *Store) Add(r Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := r
	s.byAS[r.ASN] = &rec
}

// Get returns the record for an ASN, if present. PeeringDB coverage is
// partial by design — the classifier must fall back to WHOIS and web
// search for the rest.
func (s *Store) Get(asn int) (Record, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.byAS[asn]
	if !ok {
		return Record{}, false
	}
	return *r, true
}

// Len returns the number of records.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byAS)
}
