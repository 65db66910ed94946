package jsonrec

import (
	"encoding/json"
	"net/netip"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/world"
)

// TestLineMatchesEncodingJSON decodes records both ways: inputs the
// decoder must accept yield exactly encoding/json's record, and inputs
// it must reject are ones encoding/json rejects or that no writer
// produces. Go field names fold onto the tags, as in a checkpoint
// written before the tags existed.
func TestLineMatchesEncodingJSON(t *testing.T) {
	accept := []string{
		`{}`,
		`{"url":"https://a/\u00e9\ud83d\ude00\ud800x","host":"h","ip":"10.0.0.1","asn":-0,"bytes":-9223372036854775808}`,
		"{\"org\":\"a\xffb\",\"regCountry\":\"\\\"\\\\\\/\\b\\f\\n\\r\\t\"}",
		`{"URL":"folded","IP":"::1","HTTPSValid":true,"RegCountry":"US","\u0055RL":"escaped"}`,
		`{"extra":{"a":[1,2.5e-3,null,true,"x"]},"depth":7,"extra2":[]}`,
		`{"ip":"","category":3,"govAS":false,"GovAS":true}`,
		" { \"host\" : \"h\" , \"anycast\" : true } ",
	}
	for _, in := range accept {
		var got, want dataset.URLRecord
		if _, err := NewDecoder().Line([]byte(in), &got); err != nil {
			t.Errorf("%s: %v", in, err)
			continue
		}
		if err := json.Unmarshal([]byte(in), &want); err != nil {
			t.Errorf("%s: encoding/json rejects: %v", in, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", in, got, want)
		}
	}
	reject := []string{
		``, `[]`, `{`, `{"URL":"a"`, `{"URL":"a"}x`, "{\"URL\":\"a\"}\x00", `{"URL":"a",}`, `{"URL" "a"}`,
		`{"url":null}`, `{"depth":01}`, `{"depth":1.0}`, `{"depth":1e3}`, `{"depth":-}`,
		`{"bytes":9223372036854775808}`, `{"govAS":tru}`, `{"govAS":"true"}`,
		`{"url":"\x"}`, `{"url":"\u12"}`, "{\"url\":\"a\tb\"}", `{"ip":"1.2.3"}`, `{"kind":1}`,
		`{"X":[1,]}`, `{"X":nul}`, `{"X":.5}`, `{"X":1.}`, `{"X":1e}`, `{"X":"a}`,
	}
	for _, in := range reject {
		var got dataset.URLRecord
		if _, err := NewDecoder().Line([]byte(in), &got); err == nil {
			t.Errorf("%q accepted", in)
		}
	}
}

func TestRecordsAndObject(t *testing.T) {
	d := NewDecoder()
	recs, n, err := d.Records([]byte(`[] tail`))
	if err != nil || n != 2 || recs == nil || len(recs) != 0 {
		t.Fatalf("empty array: %v %d %v", recs, n, err)
	}
	// A record in an array has no kind: the key is skipped, whatever
	// its value, as encoding/json skips it.
	recs, _, err = d.Records([]byte(`[{"host":"a","kind":1},{"Host":"a","asn":2}]`))
	if err != nil || len(recs) != 2 || recs[1].ASN != 2 || recs[0].ASN != 0 {
		t.Fatalf("records: %+v %v", recs, err)
	}
	names := []string{"a", "b"}
	var seen []int
	fn := func(f int, val []byte) (int, error) {
		seen = append(seen, f)
		return Skip(val)
	}
	if err := d.Object([]byte(`{"B":1,"z":[{}],"a":"x"}`), names, fn); err != nil || !reflect.DeepEqual(seen, []int{1, 0}) {
		t.Fatalf("object: fields %v, err %v", seen, err)
	}
	for _, in := range []string{`{"a":1,"A":2}`, ` {}`, `{} `, `{"a":1`} {
		if err := d.Object([]byte(in), names, fn); err == nil {
			t.Errorf("Object accepted %q", in)
		}
	}
}

// TestKeysAreURLRecordTags: the key table must be dataset.URLRecord's
// json tag names in declaration order, then the export line's kind, or
// a field added to the record would be skipped on load.
func TestKeysAreURLRecordTags(t *testing.T) {
	rt := reflect.TypeOf(dataset.URLRecord{})
	var tags []string
	for i := 0; i < rt.NumField(); i++ {
		name, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		tags = append(tags, name)
	}
	if want := append(tags, "kind"); !reflect.DeepEqual(keys, want) {
		t.Fatalf("key table %v, want URLRecord's tags then kind %v", keys, want)
	}
	if fKind != rt.NumField() {
		t.Fatalf("fKind = %d, want %d", fKind, rt.NumField())
	}
}

// FuzzAppendRecord holds AppendRecord to encoding/json: for any field
// values, and IPv4, IPv6, zoned and zero addresses, its bytes closed
// by a brace are exactly json.Marshal's. The committed corpus covers
// <, > and &, control bytes, invalid UTF-8, U+2028 and U+2029, and
// zones that need escaping.
func FuzzAppendRecord(f *testing.F) {
	f.Add("https://gob.uy/a?b=1&c=<d>", "gob.uy", "Org \"Q\"\\", "UY", int64(-7), uint8(0xff), []byte{10, 0, 0, 1}, "")
	f.Fuzz(func(t *testing.T, url, host, org, other string, n int64, flags uint8, ip []byte, zone string) {
		r := dataset.URLRecord{
			URL: url, Host: host, Country: other, Region: world.Region(other),
			Bytes: n, Depth: int(n >> 3), ASN: int(int32(n)), Org: org, RegCountry: other,
			GovAS: flags&1 != 0, Anycast: flags&2 != 0, TopsiteSelf: flags&4 != 0,
			HTTPSValid: flags&8 != 0, Category: world.Category(int8(n)),
		}
		if flags&16 != 0 {
			r.Method = other
		}
		if flags&32 != 0 {
			r.ServeCountry = host
		}
		if flags&64 != 0 {
			r.GeoMethod = org
		}
		switch len(ip) {
		case 4:
			r.IP = netip.AddrFrom4([4]byte(ip))
		case 16:
			r.IP = netip.AddrFrom16([16]byte(ip)).WithZone(zone)
		}
		want, err := json.Marshal(&r)
		if err != nil {
			t.Fatal(err)
		}
		if got := append(AppendRecord(nil, &r), '}'); string(got) != string(want) {
			t.Fatalf("AppendRecord wrote\n%s\njson.Marshal writes\n%s", got, want)
		}
	})
}

// TestAppendRecordAllocates: encoding into a buffer with room
// allocates nothing.
func TestAppendRecordAllocates(t *testing.T) {
	r := dataset.URLRecord{URL: "https://gob.uy/<p>\u2028\xff", Host: "gob.uy", IP: netip.MustParseAddr("2001:db8::1"), Method: "tld", GovAS: true}
	buf := make([]byte, 0, 1024)
	if n := testing.AllocsPerRun(100, func() { AppendRecord(buf[:0], &r) }); n != 0 {
		t.Fatalf("AppendRecord allocates %.0f times", n)
	}
}
