// Command bench is the repository's layered benchmark. It runs four
// workloads — a fresh study, a study resumed from a complete
// checkpoint, hot serving, and serving across live reloads — each in a
// fresh child process, times every layer from outside through its
// public functions, and checks that every output is correct.
//
//	bash bench/run.sh -workload study -seed 42 -seconds 30 -trace 0
//	cd bench && go run . -seed 42 -out a.json
//	cd bench && go run . -seed 42 -trace trace.jsonl
//	cd bench && go run . -compare a.json b.json
//
// It prints one `workload metric value unit` line per metric, then, as
// the last line, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. The metrics are the end-to-end ones of BENCHMARK.json, or
// with tracing on its per-layer ones. The exit status is non-zero on any
// correctness failure. See README.md for the workloads and the metrics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// The workloads. BENCHMARK.json lists the same four with why each was
// chosen.
const (
	wStudy       = "study"
	wResume      = "resume"
	wServeHot    = "serve-hot"
	wServeReload = "serve-reload"
)

// setupRuns is how many times a run measures its workload's set-up;
// setup_s is the median.
const setupRuns = 3

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the settings one parent invocation hands its workloads.
type options struct {
	seed     int64
	budget   time.Duration
	quick    bool
	trace    bool
	workDir  string
	govserve string
}

// scale is the study scale: 0.1 (96,295 records at seed 42), or 0.01
// for the smoke mode.
func (o *options) scale() float64 {
	if o.quick {
		return 0.01
	}
	return 0.1
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloads = fs.String("workload", "", "comma-separated workloads to run (default: every workload of BENCHMARK.json)")
		seed      = fs.Int64("seed", 42, "workload seed; the same seed gives the same inputs")
		seconds   = fs.Int("seconds", 0, "wall-clock budget of one workload run, set-up included (default: run_seconds of BENCHMARK.json)")
		trace     = fs.String("trace", "0", `"0": untraced; "1" or a file path: also rerun each workload traced, write its spans (to .bench_build/trace.jsonl for "1") and report the per-layer metrics`)
		out       = fs.String("out", "", "append this run's result to a JSON file, for -compare")
		compare   = fs.Bool("compare", false, "compare two result files: -compare base.json new.json")
		quick     = fs.Bool("quick", false, "smoke mode: scale 0.01, 2 iterations, 1 s serve phases")
		child     = fs.String("child", "", "internal: run one workload child from its JSON spec")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *child != "" {
		return runChild(*child, stderr)
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	root, err := repoRoot()
	if err != nil {
		return fail(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		return fail(err)
	}
	if *compare {
		return runCompare(spec, fs.Args(), stdout, stderr)
	}
	names, err := selectWorkloads(spec, *workloads)
	if err != nil {
		return fail(err)
	}
	secs := *seconds
	if secs <= 0 {
		secs = spec.RunSeconds
	}
	o := &options{seed: *seed, budget: time.Duration(secs) * time.Second, quick: *quick,
		trace: *trace != "0" && *trace != ""}
	tracePath := *trace
	build := filepath.Join(root, ".bench_build")
	if tracePath == "1" {
		tracePath = filepath.Join(build, "trace.jsonl")
	}
	if err := os.MkdirAll(build, 0o755); err != nil {
		return fail(err)
	}
	if o.workDir, err = os.MkdirTemp(build, "run-"); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(o.workDir)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// The serve workloads run the real daemon. It is built once per
	// invocation, untimed, next to the last build so that an unchanged
	// daemon is not linked again.
	o.govserve = filepath.Join(build, "govserve")
	gb := exec.CommandContext(ctx, "go", "build", "-o", o.govserve, "./cmd/govserve")
	gb.Dir, gb.Stdout, gb.Stderr = root, stderr, stderr
	if err := gb.Run(); err != nil {
		return fail(fmt.Errorf("building govserve: %w", err))
	}

	res := runResult{Seed: o.seed, Seconds: secs, Quick: o.quick, Host: host(root)}
	var spans []span
	for _, name := range names {
		w, sp := runWorkload(ctx, o, name)
		res.Workloads = append(res.Workloads, w)
		spans = append(spans, sp...)
	}
	crossCheck(res.Workloads)

	for _, w := range res.Workloads {
		printMetrics(stdout, w.Name, w.Metrics)
		if o.trace {
			printMetrics(stdout, w.Name, w.Layers)
		}
		for _, e := range w.Errors {
			fmt.Fprintf(stderr, "bench: %s: %s\n", w.Name, e)
		}
		if late, ok := w.Layers["gen.late_p99_ms"]; ok && late.Value > 1 {
			fmt.Fprintf(stderr, "bench: %s is generator-bound: gen.late_p99_ms %.3f > 1 ms, so its latencies overstate the daemon's\n", w.Name, late.Value)
		}
	}
	if o.trace {
		printSelfTimes(stdout, res.Workloads, spans)
		if err := writeSpans(tracePath, spans); err != nil {
			return fail(err)
		}
	}
	if *out != "" {
		if err := appendResult(*out, res); err != nil {
			return fail(err)
		}
	}
	summary, err := contractLine(spec, res.Workloads, o.trace)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, summary)
	for _, w := range res.Workloads {
		if !w.Correct {
			return 1
		}
	}
	return 0
}

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is what one workload run reports. Metrics holds the
// end-to-end metrics plus the workload's own extras (alloc_mb,
// reload_s, fail_frac); Layers holds the per-layer ones.
type workloadResult struct {
	Name      string            `json:"name"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Digest    string            `json:"digest,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Layers    map[string]metric `json:"layers,omitempty"`
}

// runResult is one invocation; -out files hold a list of them.
type runResult struct {
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Quick     bool              `json:"quick,omitempty"`
	Host      hostInfo          `json:"host"`
	Workloads []*workloadResult `json:"workloads"`
}

// runWorkload measures one workload within o.budget: its set-up
// setupRuns times, then its timed loop in a fresh child process, and
// with tracing on a second, traced child.
func runWorkload(ctx context.Context, o *options, name string) (*workloadResult, []span) {
	deadline := time.Now().Add(o.budget)
	w := &workloadResult{Name: name, Metrics: map[string]metric{}, Layers: map[string]metric{}}
	fail := func(err error) (*workloadResult, []span) {
		w.Failed++
		w.Attempted = max(w.Attempted, 1)
		w.Errors = append(w.Errors, err.Error())
		return w, nil
	}
	base := childSpec{Workload: name, Seed: o.seed, Scale: o.scale(), Quick: o.quick,
		Govserve: o.govserve, SetupRuns: 1}
	var setup []float64
	var digests []string
	absorb := func(c *childResult) {
		setup = append(setup, c.Setup...)
		w.Attempted += c.Attempted
		w.Failed += c.Failed
		w.Errors = append(w.Errors, c.Errors...)
		if c.Digest != "" {
			digests = append(digests, c.Digest)
		}
	}

	serving := name == wServeHot || name == wServeReload
	if serving {
		// The child starts the daemon setupRuns times itself.
		base.SetupRuns = setupRuns
	} else {
		// A study's set-up is its first iteration in a cold process, so
		// each extra set-up sample costs a process of its own.
		for k := 1; k < setupRuns; k++ {
			sp := base
			sp.SetupOnly = true
			c, err := spawn(ctx, o, sp, time.Minute)
			if err != nil {
				return fail(err)
			}
			absorb(c)
		}
	}
	main := base
	main.Budget = time.Until(deadline)
	if o.trace {
		main.Budget /= 2
	}
	c, err := spawn(ctx, o, main, main.Budget)
	if err != nil {
		return fail(err)
	}
	absorb(c)
	for k, v := range c.Metrics {
		w.Metrics[k] = v
	}
	for k, v := range c.Layers {
		w.Layers[k] = v
	}
	w.Metrics["setup_s"] = metric{median(setup), "s"}
	w.Metrics["peak_rss_mb"] = metric{c.RSSMB, "MB"}

	var spans []span
	if o.trace {
		traced := base
		traced.SetupRuns = 1
		traced.Trace = true
		traced.Budget = time.Until(deadline)
		t, err := spawn(ctx, o, traced, traced.Budget)
		if err != nil {
			return fail(err)
		}
		// setup_s is already taken: the traced child's set-up follows its
		// layer pass, in a process that is no longer cold.
		absorb(t)
		for k, v := range t.Layers {
			w.Layers[k] = v
		}
		if u, tr := w.Metrics["p50_ms"].Value, t.Metrics["p50_ms"].Value; u > 0 && tr > 0 {
			w.Layers["bench.trace_overhead_pct"] = metric{100 * (tr - u) / u, "%"}
		}
		spans = t.Spans
	}
	for _, d := range digests {
		if d != digests[0] {
			w.Failed++
			w.Errors = append(w.Errors, fmt.Sprintf("output digest differs between processes: %s vs %s", digests[0], d))
			break
		}
	}
	if len(digests) > 0 {
		w.Digest = digests[0]
	}
	w.Metrics["fail_frac"] = metric{float64(w.Failed) / float64(max(w.Attempted, 1)), "ratio"}
	w.Correct = w.Failed == 0
	return w, spans
}

// crossCheck holds the resumed study to the fresh one: at the same seed
// their output digests must be equal.
func crossCheck(ws []*workloadResult) {
	var study, resume *workloadResult
	for _, w := range ws {
		switch w.Name {
		case wStudy:
			study = w
		case wResume:
			resume = w
		}
	}
	if study == nil || resume == nil || study.Digest == "" || resume.Digest == "" || study.Digest == resume.Digest {
		return
	}
	resume.Failed++
	resume.Correct = false
	resume.Errors = append(resume.Errors, fmt.Sprintf("resumed digest %s differs from the fresh study's %s", resume.Digest, study.Digest))
	resume.Metrics["fail_frac"] = metric{float64(resume.Failed) / float64(max(resume.Attempted, 1)), "ratio"}
}

// spawn runs one workload child — a re-exec of this binary — and
// returns its result.
func spawn(ctx context.Context, o *options, sp childSpec, budget time.Duration) (*childResult, error) {
	dir, err := os.MkdirTemp(o.workDir, sp.Workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	sp.Dir = dir
	sp.Out = filepath.Join(dir, "result.json")
	arg, err := json.Marshal(sp)
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, budget+2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "-child", string(arg))
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child: %w", sp.Workload, err)
	}
	b, err := os.ReadFile(sp.Out)
	if err != nil {
		return nil, err
	}
	var c childResult
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s child result: %w", sp.Workload, err)
	}
	return &c, nil
}

func printMetrics(w io.Writer, workload string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-13s %-28s %14.6g %s\n", workload, k, ms[k].Value, ms[k].Unit)
	}
}

// contractLine renders the summary object printed last: with tracing
// off every end-to-end metric of BENCHMARK.json, with it on every
// per-layer one. A run of several workloads keys each metric as
// "workload/metric".
func contractLine(spec *benchSpec, ws []*workloadResult, traced bool) (string, error) {
	want := spec.EndToEnd
	if traced {
		want = spec.PerLayer
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, w := range ws {
		out.Correct = out.Correct && w.Correct
		out.Attempted += w.Attempted
		out.Failed += w.Failed
		have := w.Metrics
		if traced {
			have = w.Layers
		}
		for _, m := range want {
			v, ok := have[m.Name]
			if !ok && w.Correct {
				return "", fmt.Errorf("%s did not measure %s", w.Name, m.Name)
			}
			if ok && v.Unit != m.Unit {
				return "", fmt.Errorf("%s measured %s in %s, BENCHMARK.json says %s", w.Name, m.Name, v.Unit, m.Unit)
			}
			key := m.Name
			if len(ws) > 1 {
				key = w.Name + "/" + m.Name
			}
			if ok {
				out.Metrics[key] = v
			}
		}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// benchSpec is BENCHMARK.json: the workloads, and each metric's unit,
// direction and regression bound.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func selectWorkloads(spec *benchSpec, list string) ([]string, error) {
	known := map[string]bool{}
	var all []string
	for _, w := range spec.Workloads {
		known[w.Name] = true
		all = append(all, w.Name)
	}
	if list == "" {
		return all, nil
	}
	names := strings.Split(list, ",")
	for _, n := range names {
		if !known[n] {
			return nil, fmt.Errorf("unknown workload %q (have %s)", n, strings.Join(all, ", "))
		}
	}
	return names, nil
}

// repoRoot finds the repository: the nearest directory at or above the
// working directory whose go.mod declares module repro.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			for _, line := range strings.Split(string(b), "\n") {
				if f := strings.Fields(line); len(f) == 2 && f[0] == "module" && f[1] == "repro" {
					return dir, nil
				}
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod of module repro at or above the working directory; run from the repository")
		}
		dir = parent
	}
}

// hostInfo records what the numbers were measured on.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func host(root string) hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		CPU: "unknown", Commit: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	git := exec.Command("git", "rev-parse", "HEAD")
	git.Dir = root
	git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	if b, err := git.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(b))
	}
	return h
}

// appendResult adds res to the run list in path, creating the file.
func appendResult(path string, res runResult) error {
	var f resultFile
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	f.Runs = append(f.Runs, res)
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// resultFile is the -out format: every run appended to it.
type resultFile struct {
	Runs []runResult `json:"runs"`
}
