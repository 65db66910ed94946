package export

import (
	"bytes"
	"context"
	"encoding/csv"
	"errors"
	"net/netip"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/world"
)

func sampleDataset() *dataset.Dataset {
	return &dataset.Dataset{
		Seed: 42, Scale: 0.1,
		Records: []dataset.URLRecord{
			{
				URL: "https://www.gub.uy/", Host: "www.gub.uy", Country: "UY",
				Region: world.LAC, Bytes: 70000, Depth: 0, Method: "tld",
				IP: netip.MustParseAddr("179.27.169.201"), ASN: 6057,
				Org: "Administracion Nac. de Telecom.", RegCountry: "UY",
				GovAS: true, ServeCountry: "UY", GeoMethod: "AP",
				Category: world.CatGovtSOE,
			},
			{
				URL: "https://portal.gob.mx/a.js", Host: "portal.gob.mx", Country: "MX",
				Region: world.LAC, Bytes: 55000, Depth: 1, Method: "tld",
				IP: netip.MustParseAddr("16.3.0.9"), ASN: 8075,
				Org: "Microsoft, Inc.", RegCountry: "US",
				ServeCountry: "US", GeoMethod: "MG", Category: world.Cat3PGlobal,
			},
		},
		Topsites: []dataset.URLRecord{
			{
				URL: "https://www.searchco.mx/", Host: "www.searchco.mx", Country: "MX",
				Region: world.LAC, Bytes: 90000,
				IP: netip.MustParseAddr("16.9.0.1"), ASN: 400001, Org: "SearchCo Inc.",
				RegCountry: "US", ServeCountry: "US", GeoMethod: "AP",
				Category: world.CatGovtSOE, TopsiteSelf: true,
			},
		},
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	ds := sampleDataset()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != 42 || got.Scale != 0.1 {
		t.Fatalf("metadata lost: %+v", got)
	}
	if !reflect.DeepEqual(got.Records, ds.Records) {
		t.Fatalf("records differ:\n got %+v\nwant %+v", got.Records, ds.Records)
	}
	if !reflect.DeepEqual(got.Topsites, ds.Topsites) {
		t.Fatalf("topsites differ:\n got %+v\nwant %+v", got.Topsites, ds.Topsites)
	}
}

func TestReadJSONLRejectsForeignFormats(t *testing.T) {
	cases := map[string]string{
		"not json":        "garbage\n",
		"wrong format":    `{"format":"something-else","version":1}` + "\n",
		"wrong version":   `{"format":"govhost-dataset","version":99}` + "\n",
		"truncated count": `{"format":"govhost-dataset","version":3}` + "\n" + `{"kind":"trailer","records":5,"topsites":0,"countries":0}` + "\n",
	}
	for name, in := range cases {
		if _, err := ReadJSONL(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReadJSONLRejectsBadRecords(t *testing.T) {
	in := `{"format":"govhost-dataset","version":3}
{"url":"https://x/","ip":"not-an-ip","category":0,"kind":"gov"}
{"kind":"trailer","records":1,"topsites":0,"countries":0}
`
	if _, err := ReadJSONL(strings.NewReader(in)); err == nil {
		t.Fatal("bad IP accepted")
	}
	in = `{"format":"govhost-dataset","version":3}
{"url":"https://x/","ip":"1.2.3.4","category":99,"kind":"gov"}
{"kind":"trailer","records":1,"topsites":0,"countries":0}
`
	if _, err := ReadJSONL(strings.NewReader(in)); err == nil {
		t.Fatal("bad category accepted")
	}
}

func TestCSVShape(t *testing.T) {
	ds := sampleDataset()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // header + 2 gov + 1 topsite
		t.Fatalf("rows = %d", len(rows))
	}
	if len(rows[0]) != len(csvHeader) {
		t.Fatalf("column count = %d", len(rows[0]))
	}
	if !reflect.DeepEqual(rows[0], csvHeader) {
		t.Fatalf("header = %v", rows[0])
	}
	if rows[1][0] != "https://www.gub.uy/" || rows[1][15] != "Govt&SOE" {
		t.Fatalf("first row = %v", rows[1])
	}
	if rows[3][18] != "topsite" || rows[3][16] != "true" {
		t.Fatalf("topsite row = %v", rows[3])
	}
}

// TestAnalysesSurviveRoundTrip re-runs an analysis over a reloaded
// dataset and demands identical results — the property that makes the
// interchange format useful for replication.
func TestAnalysesSurviveRoundTrip(t *testing.T) {
	ds := sampleDataset()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	orig, again := analysis.BuildIndexWorkers(ds, 1), analysis.BuildIndexWorkers(got, 1)
	if orig.GlobalShares() != again.GlobalShares() {
		t.Fatal("global shares or byte totals differ after round trip")
	}
	if !reflect.DeepEqual(orig.CountryShares(), again.CountryShares()) {
		t.Fatal("country sets or shares differ after round trip")
	}
}

// statsDataset is sampleDataset with per-country coverage statistics,
// including a wholly failed country.
func statsDataset() *dataset.Dataset {
	ds := sampleDataset()
	ds.PerCountry = map[string]*dataset.CountryStats{
		"UY": {
			Country: "UY", Region: world.LAC,
			LandingURLs: 1, InternalURLs: 3, Hostnames: 2,
			Attempted: 6, FailedURLs: 2,
			Failures: map[string]int{"timeout": 1, "5xx": 1},
			Retries:  4, VantageAttempts: 1,
		},
		"MX": {
			Country: "MX", Region: world.LAC,
			Failed: true, FailureReason: "vantage: egress flapping (3 attempts)",
			VantageAttempts: 3,
		},
	}
	return ds
}

func TestJSONLRoundTripWithStats(t *testing.T) {
	ds := statsDataset()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.PerCountry) != 2 {
		t.Fatalf("reloaded %d country stats, want 2", len(got.PerCountry))
	}
	if !reflect.DeepEqual(got.PerCountry["UY"], ds.PerCountry["UY"]) {
		t.Errorf("UY stats: got %+v, want %+v", got.PerCountry["UY"], ds.PerCountry["UY"])
	}
	if !reflect.DeepEqual(got.PerCountry["MX"], ds.PerCountry["MX"]) {
		t.Errorf("MX stats: got %+v, want %+v", got.PerCountry["MX"], ds.PerCountry["MX"])
	}
}

// TestJSONLStatsDeterministic: equal datasets must serialise to equal
// bytes regardless of map iteration order — the chaos suite's
// byte-identity check leans on this.
func TestJSONLStatsDeterministic(t *testing.T) {
	var first []byte
	for i := 0; i < 10; i++ {
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, statsDataset()); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = buf.Bytes()
		} else if !bytes.Equal(first, buf.Bytes()) {
			t.Fatal("two serialisations of the same dataset differ")
		}
	}
}

// TestReadJSONLRejectsPreV3: no writer produces a version-1 or
// version-2 file, so their headers are bad lines like any other.
func TestReadJSONLRejectsPreV3(t *testing.T) {
	for _, v := range []string{"1", "2"} {
		in := `{"format":"govhost-dataset","version":` + v + `,"seed":1,"scale":0.1,"records":1,"topsites":0,"countries":0}
{"url":"https://www.gub.uy/","host":"www.gub.uy","country":"UY","region":"LAC","bytes":1,"depth":0,"ip":"179.27.169.201","asn":6057,"org":"x","regCountry":"UY","category":0,"kind":"gov"}
`
		_, err := ReadJSONL(strings.NewReader(in))
		var le *LineError
		if !errors.As(err, &le) || le.Line != 1 {
			t.Errorf("version %s: err = %v, want a LineError for line 1", v, err)
		}
	}
}

// TestReadJSONLDetectsMissingStats: a file cut before its trailer is
// a truncated file.
func TestReadJSONLDetectsMissingStats(t *testing.T) {
	ds := statsDataset()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, ds); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	cut := strings.Join(lines[:len(lines)-1], "\n") + "\n"
	if _, err := ReadJSONL(strings.NewReader(cut)); err == nil {
		t.Fatal("stats-truncated file loaded without error")
	}
}

// TestReadJSONLRejectsTruncation: a file that stops mid-way (kill
// during export) has no trailer and must not load as a complete
// dataset — the trailer carries the completeness proof.
func TestReadJSONLRejectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, statsDataset()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	for cut := 1; cut < len(lines); cut++ {
		truncated := strings.Join(lines[:cut], "\n") + "\n"
		if _, err := ReadJSONL(strings.NewReader(truncated)); err == nil {
			t.Errorf("dataset cut after %d/%d lines loaded cleanly", cut, len(lines))
		}
	}
}

func TestReadJSONLRejectsContentAfterTrailer(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, statsDataset()); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(`{"kind":"record"}` + "\n")
	_, err := ReadJSONL(&buf)
	if err == nil || !strings.Contains(err.Error(), "after trailer") {
		t.Fatalf("content after trailer: err = %v", err)
	}
}

// TestWriteJSONLMatchesReference: WriteJSONL writes exactly the bytes
// encoding/json writes, for a study's export and for records whose
// strings need every kind of escape.
func TestWriteJSONLMatchesReference(t *testing.T) {
	study, err := core.NewEnv(core.Config{Seed: 42, Scale: 0.01}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	escapes := sampleDataset()
	r := &escapes.Records[0]
	r.URL = "https://gob.uy/q?a=<b>&c=\"d\"\\\x00\x7f\xff\u2028\u2029é"
	r.Org, r.Method, r.IP = "Org\tline\nbreak\b\f\r", "", netip.MustParseAddr("fe80::1%eth0")
	for _, ds := range []*dataset.Dataset{study, statsDataset(), escapes} {
		var got, want bytes.Buffer
		if err := WriteJSONL(&got, ds); err != nil {
			t.Fatal(err)
		}
		if err := writeJSONLReference(&want, ds); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("WriteJSONL differs from encoding/json (%d vs %d bytes)", got.Len(), want.Len())
		}
	}
}
