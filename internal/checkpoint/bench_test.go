package checkpoint_test

import (
	"context"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
)

// benchConfig is the study the benchmark and the allocation budget
// decode: scale 0.01, about 10k records over 61 country files.
var benchConfig = core.Config{Seed: 42, Scale: 0.01}

// studyCheckpoint runs the study with a checkpoint directory and
// returns the directory, complete and ready to resume.
func studyCheckpoint(tb testing.TB) string {
	tb.Helper()
	cfg := benchConfig
	cfg.CheckpointDir = tb.TempDir()
	if _, err := core.NewEnv(cfg).Run(context.Background()); err != nil {
		tb.Fatal(err)
	}
	return cfg.CheckpointDir
}

// openAll resumes the directory once and returns the records loaded.
func openAll(tb testing.TB, dir string) int {
	store, res, err := checkpoint.Open(dir, core.StudyManifest(benchConfig), checkpoint.Options{Resume: true})
	if err != nil {
		tb.Fatal(err)
	}
	if err := store.Close(); err != nil {
		tb.Fatal(err)
	}
	if len(res.Quarantined) != 0 {
		tb.Fatalf("quarantined %v", res.Quarantined)
	}
	n := 0
	for _, c := range res.Countries {
		n += len(c.Records)
	}
	return n
}

// BenchmarkCheckpointOpen measures a resume's load of a complete
// checkpoint: reading, verifying and decoding every country file.
func BenchmarkCheckpointOpen(b *testing.B) {
	dir := studyCheckpoint(b)
	records := openAll(b, dir)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		openAll(b, dir)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
}

// TestCheckpointOpenAllocationBudget pins the allocations of a resume
// load per decoded record. Each record costs its URL string; interned
// fields, IP text and the exact-size record slices add a small
// amortized share, and file reads and leases a fixed cost per open.
// The reflective decoder this replaced allocated about 10 objects per
// record.
func TestCheckpointOpenAllocationBudget(t *testing.T) {
	dir := studyCheckpoint(t)
	records := openAll(t, dir)
	allocs := testing.AllocsPerRun(3, func() { openAll(t, dir) })
	if per := allocs / float64(records); per > 2 {
		t.Fatalf("resume load allocates %.2f objects per record (%0.f over %d records), budget 2", per, allocs, records)
	}
}
