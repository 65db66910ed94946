package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation share
// workload and iter; parent names the enclosing span ("" at top level).
type span struct {
	Workload string `json:"workload"`
	Iter     int    `json:"iter"`
	Name     string `json:"name"`
	Parent   string `json:"parent"`
	StartNS  int64  `json:"start_ns"`
	DurNS    int64  `json:"dur_ns"`
}

// opSpans name the spans that are one whole operation of a workload:
// a study iteration, or a request timed from when it was due. Their
// self time — the part no child span covers — is the residual.
var opSpans = map[string]bool{"iteration": true, "request": true}

// tracer keeps spans in memory until the run ends. A nil tracer still
// times calls; it just records nothing, so the untraced and the traced
// runs share one code path.
type tracer struct {
	workload string
	t0       time.Time
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer { return &tracer{workload: workload, t0: time.Now()} }

// do times fn, records it as a span, and returns its duration.
func (t *tracer) do(iter int, name, parent string, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	t.add(iter, name, parent, start, d)
	return d
}

func (t *tracer) add(iter int, name, parent string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Workload: t.workload, Iter: iter, Name: name, Parent: parent,
		StartNS: start.Sub(t.t0).Nanoseconds(), DurNS: d.Nanoseconds()})
	t.mu.Unlock()
}

// residualMS is the mean time per operation that no layer span covers.
func (t *tracer) residualMS() float64 {
	rows, _, ops := selfTimes(t.spans)
	var self int64
	for _, r := range rows {
		if opSpans[r.name] {
			self += r.selfNS
		}
	}
	if ops == 0 {
		return 0
	}
	return float64(self) / float64(ops) / 1e6
}

type layerRow struct {
	name   string
	selfNS int64
	calls  int
	aside  bool // a top-level span outside the operations, such as a reload
}

// selfTimes sums each span name's self time: its duration minus the
// part its child spans cover. It also returns the total duration the
// shares are taken of — the operation spans', or for a set without any
// (the layer pass) every top-level span's — and the number of
// operation spans.
func selfTimes(spans []span) (rows []layerRow, totalNS int64, ops int) {
	byName := map[string]*layerRow{}
	row := func(name string) *layerRow {
		r := byName[name]
		if r == nil {
			r = &layerRow{name: name}
			byName[name] = r
		}
		return r
	}
	hasOps := slices.ContainsFunc(spans, func(s span) bool { return opSpans[s.Name] })
	for _, s := range spans {
		r := row(s.Name)
		r.selfNS += s.DurNS
		r.calls++
		switch {
		case s.Parent != "":
			row(s.Parent).selfNS -= s.DurNS
		case !hasOps:
			totalNS += s.DurNS
		case opSpans[s.Name]:
			totalNS += s.DurNS
			ops++
		default:
			r.aside = true
		}
	}
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].selfNS != rows[j].selfNS {
			return rows[i].selfNS > rows[j].selfNS
		}
		return rows[i].name < rows[j].name
	})
	return rows, totalNS, ops
}

// printSelfTimes prints, per traced workload and per layer pass, each
// layer's self time per operation and its share of the end-to-end
// time, the residual, and the tracing overhead. Layers under 0.1 % are
// summed into one line.
func printSelfTimes(w io.Writer, ws []*workloadResult, spans []span) {
	groups := map[string][]span{}
	var order []string
	for _, s := range spans {
		if groups[s.Workload] == nil {
			order = append(order, s.Workload)
		}
		groups[s.Workload] = append(groups[s.Workload], s)
	}
	for _, g := range order {
		rows, total, ops := selfTimes(groups[g])
		if total == 0 {
			continue
		}
		if ops > 0 {
			fmt.Fprintf(w, "\n%s: %d operations, %.4f ms each end to end\n", g, ops, float64(total)/float64(ops)/1e6)
		} else {
			fmt.Fprintf(w, "\n%s: one pass over every layer, %.1f ms\n", g, float64(total)/1e6)
		}
		fmt.Fprintf(w, "  %-32s %8s %14s %8s\n", "layer", "calls", "self ms/op", "share")
		per := float64(max(ops, 1)) * 1e6
		var rest int64
		folded := 0
		var aside []layerRow
		for _, r := range rows {
			if r.aside {
				aside = append(aside, r)
				continue
			}
			share := 100 * float64(r.selfNS) / float64(total)
			if share < 0.1 && !opSpans[r.name] {
				rest += r.selfNS
				folded++
				continue
			}
			name := r.name
			if opSpans[name] {
				name += " (residual)"
			}
			fmt.Fprintf(w, "  %-32s %8d %14.4f %7.2f%%\n", name, r.calls, float64(r.selfNS)/per, share)
		}
		if folded > 0 {
			fmt.Fprintf(w, "  %-32s %8s %14.4f %7.2f%%\n", fmt.Sprintf("(%d layers under 0.1%%)", folded), "",
				float64(rest)/per, 100*float64(rest)/float64(total))
		}
		for _, r := range aside {
			fmt.Fprintf(w, "  outside the operations: %s, %d calls, %.1f ms each\n", r.name, r.calls, float64(r.selfNS)/float64(r.calls)/1e6)
		}
	}
	for _, wl := range ws {
		if o, ok := wl.Layers["bench.trace_overhead_pct"]; ok {
			fmt.Fprintf(w, "%s: tracing overhead %+.2f%% on p50_ms (traced run vs untraced run)\n", wl.Name, o.Value)
		}
	}
}

// writeSpans writes every span as one JSON line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
