package checkpoint

import (
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/metrics"
)

func testManifest() Manifest {
	return Manifest{
		Seed: 42, Scale: 0.02, Countries: []string{"NG", "US", "UY"},
		RetryAttempts: 3, IPInfoErrorRate: 0.03, ManycastRecall: 0.97,
	}
}

func testCountry(code string) Country {
	return Country{
		Code:    code,
		Stats:   &dataset.CountryStats{Country: code, LandingURLs: 2, Attempted: 10},
		Methods: map[string]int{"tld": 3, "discarded": 1},
		Records: []dataset.URLRecord{{
			URL: "https://a." + strings.ToLower(code) + "/", Host: "a." + strings.ToLower(code),
			Country: code, IP: netip.MustParseAddr("192.0.2.7"), ASN: 64500,
		}},
		FailedHosts: []HostOutcome{{Host: "bad." + strings.ToLower(code), Lookups: 2}},
		Tally: metrics.CrawlTally{
			RetriesByKind:     map[string]int64{"timeout": 2},
			Injections:        map[string]int64{"flap": 1, "timeout": 3},
			FrontierTruncated: 1,
			URLsByDepth:       []int64{2, 8},
		},
	}
}

// mustOpen opens the directory and registers Close, so sequential
// opens in one test do not trip over their own leases.
func mustOpen(t *testing.T, dir string, m Manifest, o Options) (*Store, *LoadResult) {
	t.Helper()
	store, res, err := Open(dir, m, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store, res
}

func TestOpenFreshThenResumeRoundTrips(t *testing.T) {
	dir := t.TempDir()
	store, res := mustOpen(t, dir, testManifest(), Options{})
	if len(res.Countries) != 0 {
		t.Fatalf("fresh open returned %d countries", len(res.Countries))
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err != nil {
		t.Fatalf("manifest not written: %v", err)
	}
	want := testCountry("UY")
	if err := store.Put(want); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	_, res = mustOpen(t, dir, testManifest(), Options{Resume: true})
	if len(res.Countries) != 1 {
		t.Fatalf("resume loaded %d countries, want 1", len(res.Countries))
	}
	got := res.Countries[0]
	if got.Code != "UY" || got.Stats.Attempted != 10 || got.Methods["tld"] != 3 {
		t.Fatalf("loaded country diverged: %+v", got)
	}
	if len(got.Records) != 1 || got.Records[0].IP != want.Records[0].IP {
		t.Fatalf("records diverged: %+v", got.Records)
	}
	if len(got.FailedHosts) != 1 || got.FailedHosts[0].Lookups != 2 {
		t.Fatalf("failed hosts diverged: %+v", got.FailedHosts)
	}
	if !reflect.DeepEqual(got.Tally, want.Tally) {
		t.Fatalf("tally diverged: %+v", got.Tally)
	}
}

func TestOpenRefusesExistingRunWithoutResume(t *testing.T) {
	dir := t.TempDir()
	store, _ := mustOpen(t, dir, testManifest(), Options{})
	store.Close()
	_, _, err := Open(dir, testManifest(), Options{})
	if err == nil || !strings.Contains(err.Error(), "already holds a run") {
		t.Fatalf("second open without resume: err = %v", err)
	}
}

func TestOpenResumeRejectsManifestMismatch(t *testing.T) {
	dir := t.TempDir()
	store, _ := mustOpen(t, dir, testManifest(), Options{})
	store.Close()
	other := testManifest()
	other.Scale = 0.1
	_, _, err := Open(dir, other, Options{Resume: true})
	if err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("mismatched resume: err = %v", err)
	}
}

// The field-by-field comparison must name the first divergent
// parameter and both values, not dump two JSON blobs.
func TestManifestMismatchNamesDivergentField(t *testing.T) {
	dir := t.TempDir()
	store, _ := mustOpen(t, dir, testManifest(), Options{})
	store.Close()
	other := testManifest()
	other.FaultSeed = 7
	_, _, err := Open(dir, other, Options{Resume: true})
	if err == nil {
		t.Fatal("mismatched resume succeeded")
	}
	msg := err.Error()
	for _, want := range []string{"faultSeed", "holds 0", "wants 7"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("mismatch error %q does not name %q", msg, want)
		}
	}
	if strings.Contains(msg, "{") {
		t.Fatalf("mismatch error still dumps a raw blob: %q", msg)
	}
}

func TestOpenResumeWithoutManifestDegradesToFresh(t *testing.T) {
	dir := t.TempDir()
	store, res := mustOpen(t, dir, testManifest(), Options{Resume: true})
	if store == nil || len(res.Countries) != 0 {
		t.Fatalf("resume on empty dir: store=%v loaded=%d", store, len(res.Countries))
	}
	store.Close()
	// The fresh-started directory must now carry the manifest, so the
	// next resume validates against it.
	if _, _, err := Open(dir, testManifest(), Options{Resume: true}); err != nil {
		t.Fatal(err)
	}
}

func TestPutBytesDeterministicAndAtomic(t *testing.T) {
	dir := t.TempDir()
	store, _ := mustOpen(t, dir, testManifest(), Options{})
	c := testCountry("NG")
	if err := store.Put(c); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(filepath.Join(dir, "NG.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(c); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(filepath.Join(dir, "NG.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Fatal("checkpoint bytes differ across identical Puts")
	}
	// No temp residue: the write renamed into place.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

// A stored file whose embedded code disagrees with its filename is
// quarantined — not a fatal resume error — and its country re-runs.
func TestLoadAllQuarantinesMismatchedFilename(t *testing.T) {
	dir := t.TempDir()
	store, _ := mustOpen(t, dir, testManifest(), Options{})
	if err := store.Put(testCountry("UY")); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(dir, "UY.json"), filepath.Join(dir, "US.json")); err != nil {
		t.Fatal(err)
	}
	store.Close()
	_, res := mustOpen(t, dir, testManifest(), Options{Resume: true})
	if len(res.Countries) != 0 {
		t.Fatalf("mismatched file loaded anyway: %+v", res.Countries)
	}
	if len(res.Quarantined) != 1 || res.Quarantined[0] != "US.json" {
		t.Fatalf("quarantined = %v, want [US.json]", res.Quarantined)
	}
	if _, err := os.Stat(filepath.Join(dir, "US.json.corrupt")); err != nil {
		t.Fatalf("quarantined file not renamed: %v", err)
	}
}
