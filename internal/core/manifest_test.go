package core

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
)

// defaultManifestJSON is the manifest a default-config run (seed 42,
// scale 0.1) pins. The two §3.5 calibration rates are constants, not
// settings, and metrics are always on, so the bytes carry 0.03, 0.97
// and no disableMetrics key.
const defaultManifestJSON = `{"seed":42,"scale":0.1,"countries":["AE","AL","AR","AU","BA","BD","BE","BG","BO","BR","CA","CH","CL","CN","CR","CZ","DE","DK","DZ","EE","EG","ES","FR","GB","GE","GR","HK","HU","ID","IL","IN","IT","JP","KZ","LV","MA","MD","MX","MY","NG","NL","NO","NZ","PK","PL","PT","PY","RO","RS","RU","SE","SG","TH","TR","TW","UA","US","UY","VN","ZA"],"crawlDepth":0,"maxURLsPerCrawl":0,"faultSeed":42,"retryAttempts":0,"retryBudget":0,"ipinfoErrorRate":0.03,"manycastRecall":0.97}`

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

// TestResumeRefusesMetricsOffManifest: a directory written by a
// metrics-off run holds countries with empty metric deltas, so resuming
// it would assemble a short ledger. Its manifest must be refused with a
// typed mismatch on disableMetrics.
func TestResumeRefusesMetricsOffManifest(t *testing.T) {
	stored := strings.TrimSuffix(defaultManifestJSON, "}") + `,"disableMetrics":true}` + "\n"
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(stored), 0o666); err != nil {
		t.Fatal(err)
	}
	m := StudyManifest(Config{Seed: 42, Scale: 0.1})
	s, _, err := checkpoint.Open(dir, m, checkpoint.Options{Resume: true})
	if err == nil {
		s.Close()
		t.Fatal("resume accepted a metrics-off manifest")
	}
	var mm *checkpoint.MismatchError
	if !errors.As(err, &mm) || mm.Field != "disableMetrics" {
		t.Fatalf("resume error %v, want *checkpoint.MismatchError on disableMetrics", err)
	}
}
