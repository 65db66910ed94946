package serve_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
)

// BenchmarkNewSnapshot measures a snapshot build from a scale-0.01
// study (about 11k records) — totals, content version and analysis
// index — the work the daemon does after loading its JSONL on start
// and on every reload.
func BenchmarkNewSnapshot(b *testing.B) {
	ds, err := core.NewEnv(core.Config{Seed: 42, Scale: 0.01}).Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := serve.NewSnapshotWorkers(ds, "bench", 0); err != nil {
			b.Fatal(err)
		}
	}
}
