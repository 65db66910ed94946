package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	govhost "repro"
)

// childSpec tells a child process which workload to run and how.
type childSpec struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Scale    float64 `json:"scale"`
	Quick    bool    `json:"quick,omitempty"`
	// SetupOnly stops a study child after its set-up iteration.
	SetupOnly bool `json:"setup_only,omitempty"`
	// SetupRuns is how many daemons a serve child starts to time set-up.
	SetupRuns int           `json:"setup_runs"`
	Trace     bool          `json:"trace,omitempty"`
	Budget    time.Duration `json:"budget"`
	Dir       string        `json:"dir"`
	Govserve  string        `json:"govserve"`
	Out       string        `json:"out"`
}

// childResult is what a child measured and checked.
type childResult struct {
	Setup     []float64         `json:"setup_s"`
	Metrics   map[string]metric `json:"metrics"`
	Layers    map[string]metric `json:"layers"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Digest    string            `json:"digest,omitempty"`
	// RSSMB is the peak RSS of the process that did the work: the
	// median of the serving daemons' for the serve workloads, else the
	// child's own.
	RSSMB float64 `json:"rss_mb"`
	Spans []span  `json:"spans,omitempty"`

	refs []float64 // reference kernel times, ms
}

// maxErrors caps the error samples one child reports.
const maxErrors = 5

func (c *childResult) fail(format string, args ...any) {
	c.Failed++
	if len(c.Errors) < maxErrors {
		c.Errors = append(c.Errors, fmt.Sprintf(format, args...))
	}
}

func runChild(arg string, stderr io.Writer) int {
	var sp childSpec
	if err := json.Unmarshal([]byte(arg), &sp); err != nil {
		fmt.Fprintln(stderr, "bench child:", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	deadline := time.Now().Add(sp.Budget)
	res := &childResult{Metrics: map[string]metric{}, Layers: map[string]metric{}}
	var tr, layers *tracer
	var err error
	if sp.Trace {
		tr, layers = newTracer(sp.Workload), newTracer(sp.Workload+"/layers")
		err = layerPass(ctx, &sp, layers, res)
	}
	if err == nil {
		switch sp.Workload {
		case wStudy, wResume:
			err = runStudy(ctx, &sp, deadline, tr, res)
		case wServeHot, wServeReload:
			err = runServe(ctx, &sp, deadline, tr, res)
		default:
			err = fmt.Errorf("unknown workload %q", sp.Workload)
		}
	}
	if err != nil {
		res.Attempted++
		res.fail("%v", err)
	}
	if sp.Trace {
		res.Layers["residual_ms"] = metric{tr.residualMS(), "ms"}
		res.Spans = append(tr.spans, layers.spans...)
	}
	if res.RSSMB == 0 {
		res.RSSMB, _ = peakRSSMB("self")
	}
	if len(res.refs) > 0 {
		res.Metrics["ref_ms"] = metric{median(res.refs), "ms"}
	}
	b, err := json.Marshal(res)
	if err == nil {
		err = os.WriteFile(sp.Out, b, 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench child:", err)
		return 1
	}
	return 0
}

// runStudy runs the study or resume workload. Set-up is one fresh study
// iteration in this cold process (for resume it also writes the
// checkpoint directory); then, until the deadline, timed iterations of
// govhost.Run plus every report — fresh for study, resumed from the
// complete directory for resume.
func runStudy(ctx context.Context, sp *childSpec, deadline time.Time, tr *tracer, res *childResult) error {
	cfg := govhost.Config{Seed: sp.Seed, Scale: sp.Scale}
	if sp.Workload == wResume {
		cfg.CheckpointDir = filepath.Join(sp.Dir, "checkpoint")
	}
	f := res.speed(3)
	first, err := studyIteration(ctx, cfg, nil, 0)
	if err != nil {
		return err
	}
	res.Attempted++
	res.Setup = []float64{first.dur.Seconds() * f}
	res.Digest = first.digest
	if sp.SetupOnly {
		return nil
	}
	last := first.dur
	if sp.Workload == wResume {
		// An untimed warm-up resume lets the checkpoint path's lazy set-up
		// finish before timing, as the study's set-up iteration does for
		// the fresh path.
		cfg.Resume = true
		warm, err := studyIteration(ctx, cfg, nil, 0)
		if err != nil {
			return err
		}
		res.Attempted++
		if warm.digest != res.Digest {
			res.fail("resumed digest %s differs from the fresh run's %s", warm.digest, res.Digest)
		}
		last = warm.dur
	}
	var ops, allocs []float64
	total := 0.0
	// The kernel runs before and after every iteration; the iteration is
	// scaled by the geometric mean of the two, which tracks the host
	// through a second-long iteration better than either alone.
	before := res.sample()
	for i := 0; ; i++ {
		if sp.Quick && i == 2 || !sp.Quick && i > 0 && time.Now().Add(last).After(deadline) {
			break
		}
		it, err := studyIteration(ctx, cfg, tr, i)
		if err != nil {
			return err
		}
		after := res.sample()
		f := refFactor(math.Sqrt(before * after))
		before = after
		res.Attempted++
		if it.digest != res.Digest {
			res.fail("iteration %d digest %s differs from the set-up run's %s", i, it.digest, res.Digest)
		}
		ops = append(ops, float64(it.dur)/1e6*f)
		total += it.dur.Seconds() * f
		allocs = append(allocs, float64(it.alloc)/(1<<20))
		last = it.dur + refNominal
	}
	res.Metrics["p50_ms"] = metric{median(ops), "ms"}
	res.Metrics["ops_per_s"] = metric{float64(len(ops)) / total, "1/s"}
	res.Metrics["alloc_mb"] = metric{median(allocs), "MB"}
	return nil
}

type iteration struct {
	dur    time.Duration
	alloc  uint64
	digest string
}

// studyIteration times govhost.Run plus every report of
// govhost.Experiments, then — untimed — digests the output.
func studyIteration(ctx context.Context, cfg govhost.Config, tr *tracer, iter int) (iteration, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var (
		st      *govhost.Study
		err     error
		reports = make([]string, 0, len(govhost.Experiments()))
	)
	dur := tr.do(iter, "iteration", "", func() {
		tr.do(iter, "govhost.Run", "iteration", func() { st, err = govhost.Run(ctx, cfg) })
		if err != nil {
			return
		}
		for _, e := range govhost.Experiments() {
			tr.do(iter, "report:"+e.ID, "iteration", func() { reports = append(reports, st.Report(e.ID)) })
		}
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		return iteration{}, err
	}
	d, err := digest(st, reports)
	return iteration{dur: dur, alloc: after.TotalAlloc - before.TotalAlloc, digest: d}, err
}

// digest hashes a study's output: the JSONL export, the deterministic
// metrics and every report but "metrics", whose text carries timings.
func digest(st *govhost.Study, reports []string) (string, error) {
	h := sha256.New()
	if err := st.ExportJSONL(h); err != nil {
		return "", err
	}
	snap, ok := st.Metrics()
	if !ok {
		return "", fmt.Errorf("study has no metrics ledger")
	}
	det, err := snap.DeterministicJSON()
	if err != nil {
		return "", err
	}
	h.Write(det)
	for i, e := range govhost.Experiments() {
		if e.ID != "metrics" {
			io.WriteString(h, reports[i])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
