package core

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/govclass"
	"repro/internal/har"
)

// baselineArtifacts runs cfg uninterrupted (no checkpointing) and
// returns the three byte streams the resume suite compares against:
// JSONL export, CSV export, and the deterministic metrics snapshot.
func baselineArtifacts(t *testing.T, cfg Config) (jsonl, csv, det []byte) {
	t.Helper()
	ds, _, snap := runWithMetrics(t, cfg)
	jsonl, csv = exportBytes(t, ds)
	det, err := snap.DeterministicJSON()
	if err != nil {
		t.Fatal(err)
	}
	return jsonl, csv, det
}

// killAt runs cfg with a checkpoint directory, cancelling the run the
// moment the nth country flushes through the merge sink. It returns
// how many country checkpoints survived the kill.
func killAt(t *testing.T, cfg Config, dir string, n int) int {
	t.Helper()
	cfg.CheckpointDir = dir
	env := NewEnv(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	flushes := 0
	env.afterFlush = func(string) {
		flushes++
		if flushes == n {
			cancel()
		}
	}
	if _, err := env.Run(ctx); err == nil {
		t.Fatalf("run killed after %d flushes reported success", n)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	persisted := 0
	for _, e := range entries {
		name := e.Name()
		if name != "manifest.json" && strings.HasSuffix(name, ".json") {
			persisted++
		}
	}
	// Satellite guarantee: cancellation flushes — and persists — every
	// completed country instead of discarding it, so at least the n
	// countries that flushed before the kill are on disk.
	if persisted < n {
		t.Fatalf("killed after %d flushes but only %d checkpoints persisted", n, persisted)
	}
	return persisted
}

// resumeRun completes a previously killed checkpointed run and returns
// its artifacts.
func resumeRun(t *testing.T, cfg Config, dir string) (jsonl, csv, det []byte) {
	t.Helper()
	cfg.CheckpointDir = dir
	cfg.Resume = true
	env := NewEnv(cfg)
	ds, err := env.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	jsonl, csv = exportBytes(t, ds)
	det, err = env.Metrics().Snapshot().DeterministicJSON()
	if err != nil {
		t.Fatal(err)
	}
	return jsonl, csv, det
}

// TestKillResumeByteIdentical is the tentpole guarantee: killing a
// checkpointed chaos run at any completion boundary and resuming it —
// at the same or a different concurrency shape — must export the very
// bytes an uninterrupted same-seed run exports, and the deterministic
// metrics snapshot must match too.
//
// A resume starts with empty caches, so the topsites row is the one
// where the resumed run recomputes resolutions and verdicts the loaded
// countries already paid for: the re-run topsites geolocate anycast
// keys the loaded government records use, and SERVFAIL storms leave
// negative resolution entries behind. One kill and one resume shape
// keep its runtime bounded.
func TestKillResumeByteIdentical(t *testing.T) {
	type shape struct{ country, fetch int }
	shapes := []shape{
		{1, 1},
		{3, 16},
	}
	servfail := chaosConfig()
	servfail.SkipTopsites = false
	servfail.FaultProfile = "servfail=0.9"
	rows := []struct {
		name                     string
		cfg                      Config
		killShapes, resumeShapes []shape
	}{
		{"chaos", chaosConfig(), shapes, shapes}, // three countries, aggressive faults
		{"servfail_topsites", servfail, []shape{{3, 16}}, []shape{{1, 1}}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cfg := row.cfg
			ds, _, snap := runWithMetrics(t, cfg)
			wantJSONL, wantCSV := exportBytes(t, ds)
			wantDet, err := snap.DeterministicJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !cfg.SkipTopsites {
				if n := sharedAnycastKeys(ds); n == 0 {
					t.Fatal("no topsite anycast key is shared with a government record; the row tests nothing a loaded country cached")
				}
				if snap.Deterministic.Cache.NegativeEntries == 0 {
					t.Fatal("no failed resolution; the row tests no negative cache entry")
				}
			}
			for _, killShape := range row.killShapes {
				for kills := 1; kills <= len(cfg.Countries); kills++ {
					for _, resumeShape := range row.resumeShapes {
						dir := t.TempDir()
						kcfg := cfg
						kcfg.CountryConcurrency = killShape.country
						kcfg.FetchConcurrency = killShape.fetch
						killAt(t, kcfg, dir, kills)

						rcfg := cfg
						rcfg.CountryConcurrency = resumeShape.country
						rcfg.FetchConcurrency = resumeShape.fetch
						jsonl, csv, det := resumeRun(t, rcfg, dir)
						tag := "kill@%+v after %d, resume@%+v"
						if !bytes.Equal(jsonl, wantJSONL) {
							t.Errorf("JSONL diverged: "+tag, killShape, kills, resumeShape)
						}
						if !bytes.Equal(csv, wantCSV) {
							t.Errorf("CSV diverged: "+tag, killShape, kills, resumeShape)
						}
						if !bytes.Equal(det, wantDet) {
							t.Errorf("deterministic metrics diverged: "+tag, killShape, kills, resumeShape)
						}
					}
				}
			}
		})
	}
}

// sharedAnycastKeys counts the anycast verdict keys (vantage, address)
// that both a government record and a topsite record use.
func sharedAnycastKeys(ds *dataset.Dataset) int {
	gov := map[anycastKey]bool{}
	for _, r := range ds.Records {
		if r.Anycast {
			gov[anycastKey{r.Country, r.IP}] = true
		}
	}
	shared := map[anycastKey]bool{}
	for _, r := range ds.Topsites {
		if k := (anycastKey{r.Country, r.IP}); r.Anycast && gov[k] {
			shared[k] = true
		}
	}
	return len(shared)
}

// TestResumeCompletedRun: resuming a directory whose run already
// finished re-runs nothing and still reproduces the baseline bytes.
func TestResumeCompletedRun(t *testing.T) {
	cfg := chaosConfig()
	wantJSONL, _, wantDet := baselineArtifacts(t, cfg)

	dir := t.TempDir()
	full := cfg
	full.CheckpointDir = dir
	if _, err := Run(context.Background(), full); err != nil {
		t.Fatal(err)
	}
	jsonl, _, det := resumeRun(t, cfg, dir)
	if !bytes.Equal(jsonl, wantJSONL) {
		t.Error("JSONL diverged on resume of a completed run")
	}
	if !bytes.Equal(det, wantDet) {
		t.Error("deterministic metrics diverged on resume of a completed run")
	}
}

// TestCheckpointDirRefusedWithoutResume: pointing a second run at a
// directory that already holds one is an error, not a silent clobber.
func TestCheckpointDirRefusedWithoutResume(t *testing.T) {
	dir := t.TempDir()
	cfg := chaosConfig()
	cfg.CheckpointDir = dir
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	_, err := Run(context.Background(), cfg)
	if err == nil || !strings.Contains(err.Error(), "already holds a run") {
		t.Fatalf("reuse without resume: err = %v", err)
	}
}

// TestResumeManifestMismatch: a resume under different study
// parameters must refuse to splice incompatible work together.
func TestResumeManifestMismatch(t *testing.T) {
	dir := t.TempDir()
	killAt(t, chaosConfig(), dir, 1)

	cfg := chaosConfig()
	cfg.Seed = 99
	cfg.CheckpointDir = dir
	cfg.Resume = true
	_, err := Run(context.Background(), cfg)
	if err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("mismatched resume: err = %v", err)
	}
}

// TestRecordsInFlightHighWater proves the streaming memory bound. At
// one country in flight the feed order (US, UY, NG) runs against the
// sorted flush order (NG, US, UY), so US and UY must park while NG
// crawls — the high-water mark is exactly their records, strictly
// below the study total. At any shape the rank-0 country never parks,
// so the bound holds there too.
func TestRecordsInFlightHighWater(t *testing.T) {
	cfg := chaosConfig()
	cfg.FaultProfile = "off"
	cfg.CountryConcurrency = 1
	cfg.FetchConcurrency = 1
	ds, _, snap := runWithMetrics(t, cfg)
	hw := snap.Runtime.Pipeline.RecordsInFlightHighWater
	total := int64(len(ds.Records))
	if hw <= 0 {
		t.Fatalf("high water = %d; US and UY should have parked behind NG", hw)
	}
	if hw >= total {
		t.Fatalf("high water %d not below total %d: streaming bound violated", hw, total)
	}

	cfg.CountryConcurrency = 3
	cfg.FetchConcurrency = 16
	ds, _, snap = runWithMetrics(t, cfg)
	if hw, total := snap.Runtime.Pipeline.RecordsInFlightHighWater, int64(len(ds.Records)); hw >= total {
		t.Fatalf("high water %d not below total %d at {3,16}", hw, total)
	}
}

// TestClassifyEntriesCountsDiscardedLandings is the accounting-bug
// regression: a landing URL that classifies as discarded must appear
// in the method tally exactly like any other discarded entry, or the
// ledger's derived Unusable count absorbs it.
func TestClassifyEntriesCountsDiscardedLandings(t *testing.T) {
	classifier := &govclass.URLClassifier{} // no landing hosts: every host discards
	entries := []har.Entry{
		{URL: "https://landing.example/", Host: "landing.example", Status: 200},
		{URL: "https://inner.example/x", Host: "inner.example", Status: 200},
		{URL: "https://broken.example/", Host: "broken.example", Status: 500, Failure: "http_5xx"},
		{URL: "https://empty.example/", Host: "empty.example", Status: 404},
	}
	landingSet := map[string]bool{"https://landing.example/": true}

	candidates, methods := classifyEntries(classifier, entries, landingSet)
	if len(candidates) != 0 {
		t.Fatalf("discarded entries produced %d candidates", len(candidates))
	}
	if got := methods[govclass.MethodDiscarded]; got != 2 {
		t.Fatalf("discarded tally = %d, want 2 (the landing URL must count)", got)
	}
}
