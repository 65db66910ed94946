package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
)

// extraBounds judge the metrics that only some workloads report, which
// BENCHMARK.json cannot list because every workload reports each of its
// metrics. fail_frac must not rise at all. p99_ms has no bound: it
// swings by half between runs.
var extraBounds = []metricSpec{
	{Name: "fail_frac", Better: "lower"},
	{Name: "alloc_mb", Better: "lower", Bound: 0.02},
	{Name: "reload_s", Better: "lower", Bound: 0.10},
}

// runCompare prints, for each workload × metric, both sides' median
// and quartiles over their runs, the relative change, and a verdict
// from the BENCHMARK.json bound: better, worse, within bound, or
// unresolved when a side's spread is wider than the bound. fail_frac
// must not rise at all. It exits 1 when any verdict is worse.
func runCompare(spec *benchSpec, files []string, stdout, stderr io.Writer) int {
	if len(files) != 2 {
		fmt.Fprintln(stderr, "bench: -compare takes two result files: base.json new.json")
		return 2
	}
	var sides [2]map[string]map[string][]float64 // workload → metric → one value per run
	for i, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		var f resultFile
		if err := json.Unmarshal(b, &f); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", path, err)
			return 1
		}
		sides[i] = map[string]map[string][]float64{}
		for _, r := range f.Runs {
			for _, w := range r.Workloads {
				m := sides[i][w.Name]
				if m == nil {
					m = map[string][]float64{}
					sides[i][w.Name] = m
				}
				for k, v := range w.Metrics {
					m[k] = append(m[k], v.Value)
				}
			}
		}
	}
	judged := map[string]metricSpec{}
	for _, m := range append(extraBounds, spec.EndToEnd...) {
		judged[m.Name] = m
	}
	fmt.Fprintf(stdout, "%-13s %-13s %28s %28s %9s  %s\n", "workload", "metric",
		"base median [q1, q3]", "new median [q1, q3]", "delta", "verdict")
	worse := false
	for _, wl := range spec.Workloads {
		a, b := sides[0][wl.Name], sides[1][wl.Name]
		if a == nil || b == nil {
			continue
		}
		var names []string
		for k := range a {
			if b[k] != nil {
				names = append(names, k)
			}
		}
		sort.Strings(names)
		for _, k := range names {
			v := "no bound"
			if m, ok := judged[k]; ok {
				v = verdict(a[k], b[k], m.Better, m.Bound)
			}
			worse = worse || v == "worse"
			ma, mb := median(a[k]), median(b[k])
			fmt.Fprintf(stdout, "%-13s %-13s %28s %28s %+8.2f%%  %s\n", wl.Name, k,
				spread(a[k]), spread(b[k]), 100*rel(ma, mb), v)
		}
	}
	if worse {
		return 1
	}
	return 0
}

func spread(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g]", median(xs), q1, q3)
}

// rel is the relative change from a to b; between zeros it is 0.
func rel(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Copysign(math.Inf(1), b)
	}
	return (b - a) / math.Abs(a)
}

// verdict judges the new runs b against the base runs a. A change
// beyond the bound is better or worse; inside it, within bound — unless
// either side's interquartile spread exceeds the bound, which makes the
// comparison unresolved, or every new run beats every base run.
func verdict(a, b []float64, better string, bound float64) string {
	if bound == 0 {
		// fail_frac: no run of the new side may fail more than the
		// worst run of the base.
		if slices.Max(b) > slices.Max(a) {
			return "worse"
		}
		return "within bound"
	}
	gain := rel(median(a), median(b))
	if better == "lower" {
		gain = -gain
	}
	beats := func(x, y float64) bool { return x < y }
	if better == "higher" {
		beats = func(x, y float64) bool { return x > y }
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && beats(x, y)
		}
	}
	noisy := false
	for _, xs := range [][]float64{a, b} {
		q1, q3 := quartiles(xs)
		s := rel(median(xs), median(xs)+q3-q1)
		noisy = noisy || len(xs) < 2 || math.Abs(s) > bound
	}
	switch {
	case noisy && allBetter:
		return "better"
	case noisy:
		return "unresolved"
	case gain < -bound:
		return "worse"
	case gain > bound:
		return "better"
	}
	return "within bound"
}
