package export

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// v3Export is statsDataset's JSONL export split into lines.
func v3Export(t *testing.T) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, statsDataset()); err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
}

// TestReadJSONLRejectsUnknownKind: every format version writes gov,
// topsite, country or trailer lines, so any other kind — or none — is
// a bad line, not a government record.
func TestReadJSONLRejectsUnknownKind(t *testing.T) {
	for _, kind := range []string{`"kind":"bogus"`, `"kind":""`, `"x":"gov"`} {
		lines := v3Export(t)
		lines[1] = strings.Replace(lines[1], `"kind":"gov"`, kind, 1)
		_, err := ReadJSONL(strings.NewReader(strings.Join(lines, "\n") + "\n"))
		var le *LineError
		if !errors.As(err, &le) || le.Line != 2 {
			t.Fatalf("%s: err = %v, want a LineError for line 2", kind, err)
		}
	}
}

// TestReadJSONLLineErrors: a malformed line of any kind is reported
// as a *LineError naming its 1-based line.
func TestReadJSONLLineErrors(t *testing.T) {
	lines := v3Export(t)
	n := len(lines) // header, 3 records, 2 country lines, trailer
	cases := []struct {
		name string
		line int
		edit func(string) string
	}{
		{"header syntax", 1, func(string) string { return "{" }},
		{"header format", 1, func(l string) string { return strings.Replace(l, "govhost-dataset", "other", 1) }},
		{"record syntax", 2, func(l string) string { return l[:len(l)-1] }},
		{"record bad IP", 3, func(l string) string { return strings.Replace(l, `"ip":"16.3.0.9"`, `"ip":"x"`, 1) }},
		{"record missing IP", 3, func(l string) string { return strings.Replace(l, `"ip":"16.3.0.9"`, `"ip":""`, 1) }},
		{"record bad category", 2, func(l string) string { return strings.Replace(l, `"category":0`, `"category":9`, 1) }},
		{"record wrong type", 2, func(l string) string { return strings.Replace(l, `"bytes":70000`, `"bytes":"70000"`, 1) }},
		{"topsite null field", 4, func(l string) string { return strings.Replace(l, `"host":"www.searchco.mx"`, `"host":null`, 1) }},
		{"country stats", n - 1, func(l string) string { return strings.Replace(l, `"hostnames":2`, `"hostnames":"2"`, 1) }},
		{"trailer", n, func(l string) string { return strings.Replace(l, `"records":2`, `"records":true`, 1) }},
		{"after trailer", n + 1, func(string) string { return "" }},
	}
	for _, c := range cases {
		ls := v3Export(t)
		if c.line > len(ls) {
			ls = append(ls, c.edit(""))
		} else {
			ls[c.line-1] = c.edit(ls[c.line-1])
		}
		_, err := ReadJSONL(strings.NewReader(strings.Join(ls, "\n") + "\n"))
		var le *LineError
		if !errors.As(err, &le) || le.Line != c.line {
			t.Errorf("%s: err = %v, want a LineError for line %d", c.name, err, c.line)
			continue
		}
		if !strings.Contains(err.Error(), "line ") || le.Unwrap() == nil {
			t.Errorf("%s: error %q does not name its line and cause", c.name, err)
		}
	}
}

// TestReadJSONLAgreesWithReference feeds ReadJSONL inputs that
// exercise encoding/json's corners — escapes, folded keys, unknown
// members, whitespace, invalid UTF-8, repeated keys — and demands it
// accepts each one with the reference's exact result.
func TestReadJSONLAgreesWithReference(t *testing.T) {
	for name, rec := range agreeingRecords {
		in := singleRecordExport(rec)
		got, err := ReadJSONL(strings.NewReader(in))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		want, err := readJSONLReference(strings.NewReader(in))
		if err != nil {
			t.Errorf("%s: reference rejects: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", name, got.Records, want.Records)
		}
	}
}

// singleRecordExport wraps one government record line in a header
// and a trailer counting it.
func singleRecordExport(rec string) string {
	return `{"format":"govhost-dataset","version":3}` + "\n" + rec + "\n" +
		`{"kind":"trailer","records":1,"topsites":0,"countries":0}` + "\n"
}

var agreeingRecords = map[string]string{
	"escapes":      `{"url":"https://x/\u00e9\"\\\/\b\f\n\r\t","host":"h\u0041","ip":"1.2.3.4","kind":"gov"}`,
	"surrogates":   `{"url":"\ud83d\ude00 \ud800 \udc00\u0041 \ud800\ud800","ip":"1.2.3.4","kind":"gov"}`,
	"bad utf8":     "{\"url\":\"a\xffb\xe2\x82\",\"org\":\"\xed\xa0\x80\",\"ip\":\"1.2.3.4\",\"kind\":\"gov\"}",
	"folded keys":  `{"URL":"u","Host":"h","IP":"1.2.3.4","\u212Aind":"gov","ſerveCountry":"US","Asn":7}`,
	"escaped key":  `{"\u0075rl":"u","ip":"1.2.3.4","kind":"gov"}`,
	"unknown keys": `{"x":[1,{"y":null},-0.5e+3,"s",true,false],"url":"u","ip":"1.2.3.4","kind":"gov","z":{}}`,
	"whitespace":   " \t{ \"url\" : \"u\" ,\t\"ip\":\"1.2.3.4\" , \"kind\" : \"gov\" , \"depth\" : -0 }\r ",
	"repeated":     `{"url":"a","url":"b","ip":"9.9.9.9","ip":"1.2.3.4","kind":"topsite","kind":"gov"}`,
	"extremes":     `{"bytes":-9223372036854775808,"asn":9223372036854775807,"ip":"::ffff:1.2.3.4","kind":"gov"}`,
	"ipv6 zone":    `{"ip":"fe80::1%eth0","kind":"gov","category":3,"govAS":true,"anycast":false}`,
}

// FuzzReadJSONL holds the single-pass reader to the encoding/json
// reference: no input panics; whatever ReadJSONL accepts, the
// reference accepts with an identical dataset; and every accepted
// dataset survives WriteJSONL → ReadJSONL unchanged. The committed
// corpus holds real WriteJSONL output and its truncations.
func FuzzReadJSONL(f *testing.F) {
	for _, rec := range agreeingRecords {
		f.Add([]byte(singleRecordExport(rec)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		ref, err := readJSONLReference(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("accepted an input the reference rejects: %v", err)
		}
		if !reflect.DeepEqual(ds, ref) {
			t.Fatalf("decoded dataset differs from the reference:\n got %+v\nwant %+v", ds, ref)
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, ds); err != nil {
			t.Fatal(err)
		}
		again, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("re-reading its own export: %v", err)
		}
		if !reflect.DeepEqual(again, ds) {
			t.Fatalf("round trip changed the dataset:\n got %+v\nwant %+v", again, ds)
		}
	})
}

// TestReferenceRejectsBadRecords: the reference and ReadJSONL refuse
// the same record defects, so the reference's accept set is not widened
// by decoding into the tagged record, whose IP reads empty text as the
// zero address.
func TestReferenceRejectsBadRecords(t *testing.T) {
	for name, rec := range map[string]string{
		"empty IP":     `{"url":"u","ip":"","kind":"gov"}`,
		"no IP":        `{"url":"u","kind":"gov"}`,
		"bad IP":       `{"url":"u","ip":"1.2.3","kind":"gov"}`,
		"bad category": `{"url":"u","ip":"1.2.3.4","category":-1,"kind":"gov"}`,
	} {
		in := singleRecordExport(rec)
		if _, err := ReadJSONL(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadJSONL accepts", name)
		}
		if _, err := readJSONLReference(strings.NewReader(in)); err == nil {
			t.Errorf("%s: reference accepts", name)
		}
	}
}
