package export_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/export"
)

// studyExport runs a scale-0.01 study (about 11k records) and returns
// its JSONL export.
func studyExport(tb testing.TB) []byte {
	tb.Helper()
	ds, err := core.NewEnv(core.Config{Seed: 42, Scale: 0.01}).Run(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := export.WriteJSONL(&buf, ds); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// readAll loads the export and returns the number of record lines.
func readAll(tb testing.TB, data []byte) int {
	ds, err := export.ReadJSONL(bytes.NewReader(data))
	if err != nil {
		tb.Fatal(err)
	}
	return len(ds.Records) + len(ds.Topsites)
}

// BenchmarkReadJSONL measures loading a study's JSONL export, as the
// serving daemon does on start and on every reload.
func BenchmarkReadJSONL(b *testing.B) {
	data := studyExport(b)
	records := readAll(b, data)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		readAll(b, data)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
}

// TestReadJSONLAllocationBudget pins the allocations of an export load
// per record line. Each record costs its URL string; interned fields,
// IP text and the growth of the record slices add a small amortized
// share. The reflective decoder this replaced allocated about 22
// objects per record.
func TestReadJSONLAllocationBudget(t *testing.T) {
	data := studyExport(t)
	records := readAll(t, data)
	allocs := testing.AllocsPerRun(3, func() { readAll(t, data) })
	if per := allocs / float64(records); per > 2 {
		t.Fatalf("export load allocates %.2f objects per record (%.0f over %d records), budget 2", per, allocs, records)
	}
}
