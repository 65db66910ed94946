package core

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
)

// defaultManifestJSON is the manifest a default-config run (seed 42,
// scale 0.1) pins. The two §3.5 calibration rates are constants, not
// settings, so the bytes carry 0.03 and 0.97; format 1 marks country
// files that carry the crawl tally row.
const defaultManifestJSON = `{"format":1,"seed":42,"scale":0.1,"countries":["AE","AL","AR","AU","BA","BD","BE","BG","BO","BR","CA","CH","CL","CN","CR","CZ","DE","DK","DZ","EE","EG","ES","FR","GB","GE","GR","HK","HU","ID","IL","IN","IT","JP","KZ","LV","MA","MD","MX","MY","NG","NL","NO","NZ","PK","PL","PT","PY","RO","RS","RU","SE","SG","TH","TR","TW","UA","US","UY","VN","ZA"],"crawlDepth":0,"maxURLsPerCrawl":0,"faultSeed":42,"retryAttempts":0,"retryBudget":0,"ipinfoErrorRate":0.03,"manycastRecall":0.97}`

// formatZeroManifestJSON is the same manifest as written before the
// format field existed, when country files carried a metrics delta in
// place of the tally row.
const formatZeroManifestJSON = `{"seed":42,"scale":0.1,"countries":["AE","AL","AR","AU","BA","BD","BE","BG","BO","BR","CA","CH","CL","CN","CR","CZ","DE","DK","DZ","EE","EG","ES","FR","GB","GE","GR","HK","HU","ID","IL","IN","IT","JP","KZ","LV","MA","MD","MX","MY","NG","NL","NO","NZ","PK","PL","PT","PY","RO","RS","RU","SE","SG","TH","TR","TW","UA","US","UY","VN","ZA"],"crawlDepth":0,"maxURLsPerCrawl":0,"faultSeed":42,"retryAttempts":0,"retryBudget":0,"ipinfoErrorRate":0.03,"manycastRecall":0.97}`

// TestStudyManifestPinned locks the default manifest's bytes: a change
// here would refuse every existing checkpoint directory on resume.
func TestStudyManifestPinned(t *testing.T) {
	got, err := json.Marshal(StudyManifest(Config{Seed: 42, Scale: 0.1}))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != defaultManifestJSON {
		t.Errorf("default manifest drifted:\n got %s\nwant %s", got, defaultManifestJSON)
	}
}

// TestResumeRefusesFormatZeroManifest: a directory written before the
// format field existed holds countries without a tally row, so resuming
// it would assemble a short ledger. Its exact manifest must be refused
// with a typed mismatch on format.
func TestResumeRefusesFormatZeroManifest(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(formatZeroManifestJSON+"\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	m := StudyManifest(Config{Seed: 42, Scale: 0.1})
	s, _, err := checkpoint.Open(dir, m, checkpoint.Options{Resume: true})
	if err == nil {
		s.Close()
		t.Fatal("resume accepted a format-0 manifest")
	}
	var mm *checkpoint.MismatchError
	if !errors.As(err, &mm) || mm.Field != "format" || mm.Stored != "0" {
		t.Fatalf("resume error %v, want *checkpoint.MismatchError on format", err)
	}
}
