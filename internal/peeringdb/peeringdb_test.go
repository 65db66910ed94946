package peeringdb

import "testing"

func TestStoreBasics(t *testing.T) {
	s := NewStore()
	s.Add(Record{ASN: 26810, Name: "HHS-NET", Org: "U.S. Dept. of Health and Human Services"})
	s.Add(Record{ASN: 13335, Name: "CLOUDFLARENET", Org: "Cloudflare, Inc."})
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	rec, ok := s.Get(26810)
	if !ok || rec.Org != "U.S. Dept. of Health and Human Services" {
		t.Fatalf("Get = %+v %v", rec, ok)
	}
	if _, ok := s.Get(99999); ok {
		t.Fatal("missing ASN found")
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := NewStore()
	s.Add(Record{ASN: 1, Org: "Original"})
	rec, _ := s.Get(1)
	rec.Org = "Mutated"
	again, _ := s.Get(1)
	if again.Org != "Original" {
		t.Fatal("Get leaked internal state")
	}
}
