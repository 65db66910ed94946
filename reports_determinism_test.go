package govhost

import (
	"context"
	"testing"

	"repro/internal/analysis"
)

// TestReportsByteIdenticalAcrossConcurrencyShapes locks every rendered
// experiment — not just the exports the chaos suite goldens — to the
// seed: the same study at three different concurrency shapes must
// produce byte-identical report text for every experiment ID. This is
// the dynamic counterpart of govlint's map-order rule, and it covers
// the report-only aggregation paths (e.g. the Fig. 11 HHI
// distributions) that dataset exports never serialize. The "metrics"
// report is excluded: its timing half measures the wall clock by
// design.
func TestReportsByteIdenticalAcrossConcurrencyShapes(t *testing.T) {
	base := Config{Scale: 0.03, Seed: 11,
		Countries:       []string{"US", "MX", "UY", "FR", "JP"},
		MaxURLsPerCrawl: 30,
	}
	shapes := []struct {
		name           string
		country, fetch int
	}{
		{"serial", 1, 1},
		{"narrow", 2, 3},
		{"wide", 4, 8},
	}
	type rendered map[string]string
	render := func(country, fetch int) rendered {
		cfg := base
		cfg.CountryConcurrency = country
		cfg.FetchConcurrency = fetch
		s, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := rendered{}
		for _, e := range Experiments() {
			if e.ID == "metrics" {
				continue
			}
			out[e.ID] = s.Report(e.ID)
		}
		out["country:UY"] = s.Report("country:UY")
		return out
	}
	ref := render(shapes[0].country, shapes[0].fetch)
	for _, shape := range shapes[1:] {
		got := render(shape.country, shape.fetch)
		for id, want := range ref {
			if got[id] != want {
				t.Errorf("report %q differs between the %s and %s concurrency shapes:\n--- %s ---\n%s\n--- %s ---\n%s",
					id, shapes[0].name, shape.name, shapes[0].name, clip(want), shape.name, clip(got[id]))
			}
		}
	}
}

// TestReportsByteIdenticalAcrossAnalysisWorkers sweeps the parallel
// index build over a chaos-degraded partial dataset: one
// aggressive-fault study, its index rebuilt with the analysis scan
// split across 1, 2 and 8 workers and pinned into the study, must
// render byte-identical report text for every experiment. Faults
// leave rows with missing registration/location fields and whole
// failed countries, so this is the degraded-shape counterpart of the
// in-package worker-sweep test.
func TestReportsByteIdenticalAcrossAnalysisWorkers(t *testing.T) {
	st, err := Run(context.Background(), Config{Scale: 0.03, Seed: 11,
		Countries:       []string{"US", "MX", "UY", "FR", "JP", "NG", "DE"},
		MaxURLsPerCrawl: 30,
		FaultProfile:    "aggressive",
	})
	if err != nil {
		t.Fatal(err)
	}
	type rendered map[string]string
	render := func(workers int) rendered {
		s := &Study{cfg: st.cfg, env: st.env, ds: st.ds}
		s.idxOnce.Do(func() { s.idx = analysis.BuildIndexWorkers(st.ds, workers) })
		out := rendered{}
		for _, e := range Experiments() {
			if e.ID == "metrics" {
				continue
			}
			out[e.ID] = s.Report(e.ID)
		}
		return out
	}
	ref := render(1)
	for _, workers := range []int{2, 8} {
		got := render(workers)
		for id, want := range ref {
			if got[id] != want {
				t.Errorf("report %q differs between 1 and %d analysis workers:\n--- 1 worker ---\n%s\n--- %d workers ---\n%s",
					id, workers, clip(want), workers, clip(got[id]))
			}
		}
	}
}

// clip bounds a report body for failure output.
func clip(s string) string {
	if len(s) > 2000 {
		return s[:2000] + "…"
	}
	return s
}
