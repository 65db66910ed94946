package jsonrec

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/dataset"
)

// TestLineMatchesEncodingJSON decodes checkpoint-keyed records both
// ways: inputs the decoder must accept yield exactly encoding/json's
// record, and inputs it must reject are ones encoding/json rejects or
// that no writer produces.
func TestLineMatchesEncodingJSON(t *testing.T) {
	accept := []string{
		`{}`,
		`{"URL":"https://a/\u00e9\ud83d\ude00\ud800x","Host":"h","IP":"10.0.0.1","ASN":-0,"Bytes":-9223372036854775808}`,
		"{\"Org\":\"a\xffb\",\"RegCountry\":\"\\\"\\\\\\/\\b\\f\\n\\r\\t\"}",
		`{"url":"folded","ip":"::1","hTTPSValid":true,"\u0055RL":"escaped"}`,
		`{"Extra":{"a":[1,2.5e-3,null,true,"x"]},"Depth":7,"Extra2":[]}`,
		`{"IP":"","Category":3,"GovAS":false,"GovAS":true}`,
		" { \"Host\" : \"h\" , \"Anycast\" : true } ",
	}
	for _, in := range accept {
		var got, want dataset.URLRecord
		if _, err := NewDecoder(CheckpointKeys).Line([]byte(in), &got); err != nil {
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
		`{"URL":null}`, `{"Depth":01}`, `{"Depth":1.0}`, `{"Depth":1e3}`, `{"Depth":-}`,
		`{"Bytes":9223372036854775808}`, `{"GovAS":tru}`, `{"GovAS":"true"}`,
		`{"URL":"\x"}`, `{"URL":"\u12"}`, "{\"URL\":\"a\tb\"}", `{"IP":"1.2.3"}`,
		`{"X":[1,]}`, `{"X":nul}`, `{"X":.5}`, `{"X":1.}`, `{"X":1e}`, `{"X":"a}`,
	}
	for _, in := range reject {
		var got dataset.URLRecord
		if _, err := NewDecoder(CheckpointKeys).Line([]byte(in), &got); err == nil {
			t.Errorf("%q accepted", in)
		}
	}
}

func TestRecordsAndObject(t *testing.T) {
	d := NewDecoder(CheckpointKeys)
	recs, n, err := d.Records([]byte(`[] tail`))
	if err != nil || n != 2 || recs == nil || len(recs) != 0 {
		t.Fatalf("empty array: %v %d %v", recs, n, err)
	}
	recs, _, err = d.Records([]byte(`[{"Host":"a"},{"Host":"a","ASN":2}]`))
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

// TestCheckpointKeysAreURLRecordFields: the checkpoint key table must
// name dataset.URLRecord's fields in declaration order, or a field
// added to the record would be skipped on resume.
func TestCheckpointKeysAreURLRecordFields(t *testing.T) {
	rt := reflect.TypeOf(dataset.URLRecord{})
	var fields []string
	for i := 0; i < rt.NumField(); i++ {
		fields = append(fields, rt.Field(i).Name)
	}
	if !reflect.DeepEqual(fields, CheckpointKeys.names) {
		t.Fatalf("URLRecord fields %v, checkpoint keys %v", fields, CheckpointKeys.names)
	}
	if fKind != len(fields) || len(ExportKeys.names) != fKind+1 {
		t.Fatalf("export key table is not one key per record field plus kind")
	}
}
