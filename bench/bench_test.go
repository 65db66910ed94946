package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the bench binary, which
// re-executes itself with -child for every workload process.
func TestMain(m *testing.M) {
	if len(os.Args) > 2 && os.Args[1] == "-child" {
		os.Exit(runChild(os.Args[2], os.Stderr))
	}
	os.Exit(m.Run())
}

// TestQuickRun runs every workload in smoke mode, traced, and checks
// that every end-to-end metric is printed with its unit on every
// workload, that nothing failed, that the resumed study's output equals
// the fresh one's, and that the trace and its tables were written.
func TestQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped in -short")
	}
	dir := t.TempDir()
	out, spans := filepath.Join(dir, "result.json"), filepath.Join(dir, "trace.jsonl")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-seed", "7", "-out", out, "-trace", spans}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	text := stdout.String()
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			line := `(?m)^` + regexp.QuoteMeta(w.Name) + ` +` + regexp.QuoteMeta(m.Name) + ` +\S+ ` + regexp.QuoteMeta(m.Unit) + `$`
			if !regexp.MustCompile(line).MatchString(text) {
				t.Errorf("no %s line for %s in %s", m.Name, w.Name, m.Unit)
			}
		}
	}

	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Runs) != 1 || len(f.Runs[0].Workloads) != len(spec.Workloads) {
		t.Fatalf("result file holds %d runs, want 1 with %d workloads", len(f.Runs), len(spec.Workloads))
	}
	digests := map[string]string{}
	for _, w := range f.Runs[0].Workloads {
		if ff, ok := w.Metrics["fail_frac"]; !ok || ff.Value != 0 || !w.Correct {
			t.Errorf("%s: fail_frac %v, correct %v, errors %q", w.Name, ff.Value, w.Correct, w.Errors)
		}
		digests[w.Name] = w.Digest
	}
	if digests[wStudy] == "" || digests[wStudy] != digests[wResume] {
		t.Errorf("study digest %q, resume digest %q: want equal and non-empty", digests[wStudy], digests[wResume])
	}

	if st, err := os.Stat(spans); err != nil || st.Size() == 0 {
		t.Errorf("span file: %v", err)
	}
	for _, want := range []string{"iteration (residual)", "request (residual)", "one pass over every layer", "tracing overhead"} {
		if !strings.Contains(text, want) {
			t.Errorf("traced output lacks %q", want)
		}
	}
	lines := strings.Split(strings.TrimSpace(text), "\n")
	var sum struct {
		Correct bool              `json:"correct"`
		Metrics map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("last line is not the summary object: %v", err)
	}
	if !sum.Correct || len(sum.Metrics) != len(spec.Workloads)*len(spec.PerLayer) {
		t.Errorf("summary: correct %v with %d metrics, want %d", sum.Correct, len(sum.Metrics), len(spec.Workloads)*len(spec.PerLayer))
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v, %v; want 0.75, 2.25", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name   string
		new    []float64
		better string
		want   string
	}{
		{"same", []float64{100, 100, 101, 99, 100}, "lower", "within bound"},
		{"slower", []float64{120, 121, 119, 120, 122}, "lower", "worse"},
		{"faster", []float64{80, 81, 79, 80, 82}, "lower", "better"},
		{"more throughput", []float64{120, 121, 119, 120, 122}, "higher", "better"},
		{"noisy", []float64{50, 100, 150, 60, 140}, "lower", "unresolved"},
		{"one run", []float64{100}, "lower", "unresolved"},
	} {
		if got := verdict(base, c.new, c.better, 0.1); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	if got := verdict([]float64{0, 0, 0}, []float64{0, 0, 0.01}, "lower", 0); got != "worse" {
		t.Errorf("a rising fail_frac: verdict %q, want worse", got)
	}
	if got := verdict([]float64{0, 0}, []float64{0, 0}, "lower", 0); got != "within bound" {
		t.Errorf("fail_frac at zero: verdict %q, want within bound", got)
	}
}
