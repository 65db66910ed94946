// Package jsonrec decodes annotated URL records from JSON in a single
// pass over the input bytes. Checkpoint resume and JSONL export
// loading both read tens of megabytes of records; encoding/json's
// reflective decoder validates and scans every byte several times, so
// this package replaces it on those two read paths with one
// schema-specialised walk driven by one key table: dataset.URLRecord's
// json tags, which both files write records under, and the export
// line's kind.
//
// The decoder accepts a subset of what encoding/json accepts and, on
// that subset, yields exactly what encoding/json would: keys match
// exactly first and case-insensitively second, unknown keys are
// validated and skipped, a repeated key's last value wins, and strings
// are unquoted with the same U+FFFD replacement of invalid UTF-8 and
// unpaired surrogates. It is stricter where encoding/json is lenient in
// ways no writer relies on: a null record field is an error rather
// than a no-op, and nesting is capped at a lower depth. The packages'
// fuzz targets hold the decoder to this contract against encoding/json
// as the reference.
//
// Decoded Host, Country, Region, Method, Org, RegCountry, ServeCountry
// and GeoMethod strings are interned per Decoder, and IP text is parsed
// once per distinct address, so a load allocates roughly one string
// (the URL) per record.
package jsonrec

import (
	"fmt"
	"net/netip"

	"repro/internal/dataset"
	"repro/internal/world"
)

// The record fields, in the order of keys. Kind is last, so the
// table without it is exactly the record's own fields.
const (
	fURL = iota
	fHost
	fCountry
	fRegion
	fBytes
	fDepth
	fMethod
	fIP
	fASN
	fOrg
	fRegCountry
	fGovAS
	fAnycast
	fServeCountry
	fGeoMethod
	fCategory
	fTopsiteSelf
	fHTTPSValid
	fKind
)

// keys are dataset.URLRecord's json tags in field order, then the
// JSONL export's kind. A checkpoint stores records under the same
// tags, so one table serves both read paths; the export's lines carry
// the kind, and a checkpoint's record arrays are decoded without it.
var keys = []string{
	"url", "host", "country", "region", "bytes", "depth", "method",
	"ip", "asn", "org", "regCountry", "govAS", "anycast",
	"serveCountry", "geoMethod", "category", "topsiteSelf", "httpsValid",
	"kind",
}

// Decoder decodes records. It carries the intern tables of one load
// and is not safe for concurrent use.
type Decoder struct {
	strs  map[string]string
	ips   map[string]netip.Addr
	buf   []byte
	batch []dataset.URLRecord
}

// NewDecoder returns a decoder with empty intern tables.
func NewDecoder() *Decoder {
	return &Decoder{strs: map[string]string{}, ips: map[string]netip.Addr{}}
}

func (d *Decoder) scan(b []byte) *scanner { return &scanner{b: b, buf: &d.buf} }

// Line decodes b, one JSON object with optional surrounding
// whitespace, into rec and returns the object's kind (empty when the
// object carries none). Keys that are not record fields are skipped,
// so an object of another kind decodes with only its record-named
// fields set. A missing or empty IP leaves rec.IP zero.
func (d *Decoder) Line(b []byte, rec *dataset.URLRecord) (kind string, err error) {
	s := d.scan(b)
	if kind, err = d.record(s, keys, rec); err != nil {
		return "", err
	}
	if s.next(); s.i != len(b) {
		return "", s.errorf("data after object")
	}
	return kind, nil
}

// Records decodes the JSON array of record objects at the start of b
// and returns the records and the number of bytes consumed. An empty
// array yields an empty, non-nil slice. A kind key is not a record
// field here: it is skipped like any other unknown key.
func (d *Decoder) Records(b []byte) ([]dataset.URLRecord, int, error) {
	s := d.scan(b)
	if err := s.expect('['); err != nil {
		return nil, 0, err
	}
	batch := d.batch[:0]
	if s.next() == ']' {
		s.i++
	} else {
		for more := true; more; {
			batch = append(batch, dataset.URLRecord{})
			if _, err := d.record(s, keys[:fKind], &batch[len(batch)-1]); err != nil {
				return nil, 0, err
			}
			var err error
			if more, err = s.more(']'); err != nil {
				return nil, 0, err
			}
		}
	}
	// The batch is reused across calls; the caller gets an exact-size
	// copy, so a load keeps no growth slack alive.
	d.batch = batch
	recs := make([]dataset.URLRecord, len(batch))
	copy(recs, batch)
	return recs, s.i, nil
}

// Object walks the members of the JSON object that is exactly b, with
// no surrounding whitespace. A member whose key selects one of names
// (matched as encoding/json matches struct fields) goes to fn with the
// bytes from the start of its value; fn decodes the value and returns
// the number of bytes it consumed. Members with other keys are
// validated and skipped. A repeated member is an error.
func (d *Decoder) Object(b []byte, names []string, fn func(field int, val []byte) (int, error)) error {
	if len(names) > 64 {
		panic("jsonrec: Object takes at most 64 names")
	}
	s := d.scan(b)
	if len(b) == 0 || b[0] != '{' {
		return s.errorf("expected object")
	}
	s.i++
	if s.next() == '}' {
		s.i++
	} else {
		var seen uint64
		for more, hint := true, 0; more; {
			f, err := s.key(names, hint)
			if err != nil {
				return err
			}
			if f < 0 {
				err = s.skip(1)
			} else {
				if seen&(1<<f) != 0 {
					return s.errorf("repeated key %q", names[f])
				}
				seen |= 1 << f
				hint = f + 1
				s.next()
				var n int
				n, err = fn(f, s.b[s.i:])
				s.i += n
			}
			if err != nil {
				return err
			}
			if more, err = s.more('}'); err != nil {
				return err
			}
		}
	}
	if s.i != len(b) {
		return s.errorf("data after object")
	}
	return nil
}

// Skip validates the JSON value at the start of b and returns its
// length.
func Skip(b []byte) (int, error) {
	s := &scanner{b: b, buf: new([]byte)}
	if err := s.skip(0); err != nil {
		return 0, err
	}
	return s.i, nil
}

// record decodes one record object at the scanner's position, matching
// its keys against names, keys or its prefix without the kind.
func (d *Decoder) record(s *scanner, names []string, r *dataset.URLRecord) (kind string, err error) {
	if err := s.expect('{'); err != nil {
		return "", err
	}
	if s.next() == '}' {
		s.i++
		return "", nil
	}
	var n int64
	for more, hint := true, 0; more; {
		f, err := s.key(names, hint)
		if err != nil {
			return "", err
		}
		switch f {
		case fURL:
			var b []byte
			if b, err = s.str(); err == nil {
				r.URL = string(b)
			}
		case fHost:
			r.Host, err = d.intern(s)
		case fCountry:
			r.Country, err = d.intern(s)
		case fRegion:
			var v string
			v, err = d.intern(s)
			r.Region = world.Region(v)
		case fBytes:
			r.Bytes, err = s.int(64)
		case fDepth:
			n, err = s.int(intBits)
			r.Depth = int(n)
		case fMethod:
			r.Method, err = d.intern(s)
		case fIP:
			r.IP, err = d.ip(s)
		case fASN:
			n, err = s.int(intBits)
			r.ASN = int(n)
		case fOrg:
			r.Org, err = d.intern(s)
		case fRegCountry:
			r.RegCountry, err = d.intern(s)
		case fGovAS:
			r.GovAS, err = s.bool()
		case fAnycast:
			r.Anycast, err = s.bool()
		case fServeCountry:
			r.ServeCountry, err = d.intern(s)
		case fGeoMethod:
			r.GeoMethod, err = d.intern(s)
		case fCategory:
			n, err = s.int(intBits)
			r.Category = world.Category(n)
		case fTopsiteSelf:
			r.TopsiteSelf, err = s.bool()
		case fHTTPSValid:
			r.HTTPSValid, err = s.bool()
		case fKind:
			kind, err = d.intern(s)
		default:
			err = s.skip(1)
		}
		if err != nil {
			return "", err
		}
		if f >= 0 {
			hint = f + 1
		}
		if more, err = s.more('}'); err != nil {
			return "", err
		}
	}
	return kind, nil
}

// intBits is the width of Go's int, which bounds Depth, ASN and
// Category as it bounds encoding/json.
const intBits = 32 << (^uint(0) >> 63)

// intern reads a string and returns the load's one copy of it.
func (d *Decoder) intern(s *scanner) (string, error) {
	b, err := s.str()
	if err != nil {
		return "", err
	}
	if v, ok := d.strs[string(b)]; ok {
		return v, nil
	}
	v := string(b)
	d.strs[v] = v
	return v, nil
}

// ip reads an address as netip.Addr.UnmarshalText does: empty text is
// the zero Addr.
func (d *Decoder) ip(s *scanner) (netip.Addr, error) {
	b, err := s.str()
	if err != nil {
		return netip.Addr{}, err
	}
	if a, ok := d.ips[string(b)]; ok {
		return a, nil
	}
	var a netip.Addr
	if err := a.UnmarshalText(b); err != nil {
		return netip.Addr{}, fmt.Errorf("bad IP %q", b)
	}
	d.ips[string(b)] = a
	return a, nil
}
