package analysis

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/world"
)

// degradedDataset synthesizes a larger panel shaped like a
// chaos-degraded run: countries interleaved (not grouped, the worst
// case for chunking), rows with missing registration or location
// fields, and byte sizes spread across categories and ASNs. Every
// value is a deterministic function of the row number.
func degradedDataset() *dataset.Dataset {
	ds := indexDataset()
	countries := []string{"UY", "DE", "BR", "JP", "NG"}
	regions := []world.Region{world.LAC, world.ECA, world.LAC, world.EAP, world.SSA}
	cats := []world.Category{world.CatGovtSOE, world.Cat3PLocal, world.Cat3PGlobal, world.Cat3PRegional}
	dests := []string{"", "US", "BR", "DE", "JP"}
	for i := 0; i < 240; i++ {
		c := i % len(countries)
		r := rec(countries[c], regions[c], cats[i%len(cats)],
			int64(50+i*13%700), 1000+i%17, dests[i%len(dests)], dests[(i/2)%len(dests)])
		if i%7 == 0 {
			// Degraded rows: no validated location, as after a
			// geolocation failure under faults.
			r.ServeCountry = ""
		}
		if i%11 == 0 {
			r.RegCountry = ""
		}
		ds.Records = append(ds.Records, r)
	}
	return ds
}

// TestBuildIndexWorkerSweepByteIdentical is the parallel-build
// contract: the index built at workers ∈ {1, 2, 8} over a degraded,
// interleaved dataset is identical in every aggregate — float
// accumulators compared bitwise via DeepEqual, not within tolerance.
func TestBuildIndexWorkerSweepByteIdentical(t *testing.T) {
	ds := degradedDataset()
	ref := BuildIndexWorkers(ds, 1)
	for _, workers := range []int{2, 8} {
		got := BuildIndexWorkers(ds, workers)
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("index at %d workers differs from sequential build", workers)
		}
	}
	// And the zero/negative knob values behave like sequential.
	if !reflect.DeepEqual(BuildIndexWorkers(ds, 0), ref) {
		t.Error("workers=0 differs from sequential build")
	}
}

// TestBuildIndexWorkersMatchesScans holds the parallel build's merge
// path to the same exact-floats contract: every query, at widths 2
// and 8, against its record-scanning reference.
func TestBuildIndexWorkersMatchesScans(t *testing.T) {
	checkIndexQueries(t, 2, 8)
}

// TestChunkBoundsCoverAndAlign checks the partition invariants: the
// chunks tile [0, len) exactly, never split a run of equal countries,
// and degrade gracefully when workers exceed record groups.
func TestChunkBoundsCoverAndAlign(t *testing.T) {
	ds := degradedDataset()
	for _, n := range []int{1, 2, 3, 8, 64, 10000} {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			bounds := chunkBounds(ds.Records, n)
			prev := 0
			for _, b := range bounds {
				if b[0] != prev {
					t.Fatalf("chunk starts at %d, want %d (gap or overlap)", b[0], prev)
				}
				if b[1] <= b[0] {
					t.Fatalf("empty chunk %v", b)
				}
				if b[0] > 0 && ds.Records[b[0]].Country == ds.Records[b[0]-1].Country {
					t.Fatalf("chunk boundary %d splits country %s", b[0], ds.Records[b[0]].Country)
				}
				prev = b[1]
			}
			if prev != len(ds.Records) {
				t.Fatalf("chunks cover [0,%d), want [0,%d)", prev, len(ds.Records))
			}
		})
	}
	if got := chunkBounds(nil, 4); got != nil {
		t.Fatalf("chunkBounds(nil) = %v, want nil", got)
	}
}
