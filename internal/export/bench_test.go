package export_test

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/export"
)

// studyDataset runs a scale-0.01 study (about 11k records).
func studyDataset(tb testing.TB) *dataset.Dataset {
	tb.Helper()
	ds, err := core.NewEnv(core.Config{Seed: 42, Scale: 0.01}).Run(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	return ds
}

// studyExport returns the JSONL export of the scale-0.01 study.
func studyExport(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := export.WriteJSONL(&buf, studyDataset(tb)); err != nil {
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

// BenchmarkWriteJSONL measures encoding a study's JSONL export, as
// govhost -dump-jsonl does and as the serving daemon does into a hash
// for the dataset version on every snapshot build.
func BenchmarkWriteJSONL(b *testing.B) {
	ds := studyDataset(b)
	var buf bytes.Buffer
	if err := export.WriteJSONL(&buf, ds); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := export.WriteJSONL(&buf, ds); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(len(ds.Records)+len(ds.Topsites))), "ns/record")
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

// allocatedBytes returns the bytes fn allocates on the heap.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadJSONLSizedLoad: loading from a reader that can be read at an
// offset allocates the record slices once, at their final size, so a
// load costs each record about its own size plus its URL, with no
// slice regrowth on top.
func TestReadJSONLSizedLoad(t *testing.T) {
	data := studyExport(t)
	var ds *dataset.Dataset
	total := allocatedBytes(func() {
		var err error
		if ds, err = export.ReadJSONL(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	})
	if cap(ds.Records) != len(ds.Records) || cap(ds.Topsites) != len(ds.Topsites) {
		t.Fatalf("record slices have slack: %d/%d records, %d/%d topsites",
			len(ds.Records), cap(ds.Records), len(ds.Topsites), cap(ds.Topsites))
	}
	n := len(ds.Records) + len(ds.Topsites)
	var urlBytes int
	for _, recs := range [][]dataset.URLRecord{ds.Records, ds.Topsites} {
		for i := range recs {
			urlBytes += len(recs[i].URL)
		}
	}
	perRecord := float64(total) / float64(n)
	budget := 1.2 * (float64(unsafe.Sizeof(dataset.URLRecord{})) + float64(urlBytes)/float64(n))
	t.Logf("%.0f bytes per record, budget %.0f", perRecord, budget)
	if perRecord > budget {
		t.Fatalf("export load allocates %.0f bytes per record, budget %.0f", perRecord, budget)
	}
}

// TestReadJSONLLyingTrailer: a short input whose trailer claims 1<<40
// records is refused as truncated, and the claim does not size an
// allocation beyond what the input's length allows.
func TestReadJSONLLyingTrailer(t *testing.T) {
	in := `{"format":"govhost-dataset","version":3}` + "\n" +
		strings.Repeat(`{"url":"https://gob.uy/","ip":"10.0.0.1","kind":"gov"}`+"\n", 3) +
		`{"kind":"trailer","records":1099511627776,"topsites":1099511627776,"countries":0}` + "\n"
	var err error
	total := allocatedBytes(func() { _, err = export.ReadJSONL(strings.NewReader(in)) })
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("lying trailer: err = %v", err)
	}
	if total > 256<<10 {
		t.Fatalf("a %d-byte input allocated %d bytes", len(in), total)
	}
}
