package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	govhost "repro"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/serve"
)

// Open-loop request rates. At 5,000 rps the hot daemon runs at about a
// quarter of its closed-loop capacity on two cores; serve-reload runs
// lighter so that the reloads, not the requests, load the cores.
const (
	hotRate    = 5000
	reloadRate = 1000
	// Each daemon's share of the load is cut into two slices of equal
	// length, about 4 s each at the default budget, with the reference
	// kernel run three times before each: one of the open loop, then one
	// of the closed loop. serve-reload reloads at the start of the open
	// slice, so that all of the open loop meets a reload and none of the
	// closed loop does.
	slicesPerDaemon = 2
	// zipfPlan is the length of the precomputed request plan.
	zipfPlan = 1 << 16
)

// runServe runs serve-hot or serve-reload against the real govserve
// daemon. The daemon receives only the generated export files; this
// process generates all load from at most runtime.NumCPU workers on as
// many connections, and byte-checks every response against an
// in-process render of the version the response names. The daemon is
// started sp.SetupRuns times, each start a set-up sample, and each
// daemon serves an equal share of the load, so that no one daemon's
// garbage-collection timing decides the run.
func runServe(ctx context.Context, sp *childSpec, deadline time.Time, tr *tracer, res *childResult) error {
	a, err := prepareExport(ctx, sp.Seed, sp.Scale, filepath.Join(sp.Dir, "a.jsonl"))
	if err != nil {
		return err
	}
	exports := []*exported{a}
	g := newLoadGen(tr)
	g.rate = hotRate
	if sp.Workload == wServeReload {
		b, err := prepareExport(ctx, sp.Seed+1, sp.Scale, filepath.Join(sp.Dir, "b.jsonl"))
		if err != nil {
			return err
		}
		exports = append(exports, b)
		g.rate = reloadRate
		// Every daemon starts on the first export and swaps to the second.
		g.reloadTo = b
	}
	g.expectAll(sp.Seed, exports)

	daemons := sp.SetupRuns
	var peaks []float64
	for k := 0; k < daemons; k++ {
		t0 := time.Now()
		f := res.speed(3)
		calib := time.Since(t0)
		d, took, err := startDaemon(ctx, sp.Govserve, a.path)
		if err != nil {
			return err
		}
		res.Setup = append(res.Setup, took.Seconds()*f)
		res.Attempted++
		if d.version != a.version {
			res.fail("daemon announced version %s, the export's is %s", d.version, a.version)
		}
		// Share what is left evenly between the slices of this daemon and
		// of the ones still to start, keeping time for the kernel before
		// every slice and start, for the starts, and a second to stop the
		// last. The slice count stays fixed, so every run has the same mix
		// of open and closed load and, in serve-reload, of load that meets
		// a reload.
		sliceDur := time.Second / slicesPerDaemon
		if !sp.Quick {
			left := time.Duration(daemons - k)
			load := time.Until(deadline) - time.Second - slicesPerDaemon*left*calib - (left-1)*(took+calib)
			sliceDur = max(load/(slicesPerDaemon*left), time.Second/4)
		}
		peak, err := g.serve(ctx, k, d, res.speed, sliceDur)
		if err != nil {
			return err
		}
		peaks = append(peaks, peak)
	}
	// A daemon's peak turns on when its collector runs while it loads;
	// the median of the daemons is not moved by one whose collector ran
	// late.
	res.RSSMB = median(peaks)
	res.Attempted += int(g.attempted.Load())
	res.Failed += int(g.failed.Load())
	res.Errors = append(res.Errors, g.errs...)
	if len(g.lat) == 0 || len(g.rates) == 0 {
		return errors.New("a load phase sent no requests")
	}
	// Latency and reloads follow the kernel across minutes more than from
	// one slice to the next, so they are scaled by the run's median kernel
	// time; each closed-loop slice's throughput was scaled by the kernel
	// times just before it.
	f := res.factor()
	res.Metrics["p50_ms"] = metric{median(g.lat) * f, "ms"}
	res.Metrics["p99_ms"] = metric{percentile(g.lat, 99) * f, "ms"}
	res.Metrics["ops_per_s"] = metric{median(g.rates), "1/s"}
	if g.reloadTo != nil {
		if len(g.reloads) == 0 {
			return errors.New("no reload completed")
		}
		res.Metrics["reload_s"] = metric{median(g.reloads) * f, "s"}
	}
	put := func(name string, v float64, unit string) { res.Layers[name] = metric{v, unit} }
	dm := &g.daemon
	put("serve.cache_hit_ratio", float64(dm.CacheHits)/float64(max(dm.CacheHits+dm.CacheMisses, 1)), "ratio")
	put("serve.cache_misses", float64(dm.CacheMisses), "count")
	put("serve.in_flight_hw", float64(dm.InFlightHighWater), "count")
	put("serve.reloads", float64(dm.Reloads), "count")
	put("serve.reload_failures", float64(dm.ReloadFailures), "count")
	put("gen.sent", float64(g.sent.Load()), "count")
	put("gen.conns", float64(g.peakConns), "count")
	put("gen.late_p99_ms", percentile(g.late, 99), "ms")
	return nil
}

// serve runs the share of the load of the k-th daemon in slices of
// sliceDur, adds the daemon's own counters, stops it and returns its peak
// RSS in MB.
func (g *loadGen) serve(ctx context.Context, k int, d *daemon, sample func(int) float64, sliceDur time.Duration) (float64, error) {
	defer d.stop()
	defer func() {
		for w := range g.pool {
			g.hangUp(w)
		}
	}()
	g.base = d.base
	dials := g.dials.Load()
	for s := 0; s < slicesPerDaemon; s++ {
		f := sample(3)
		var reload time.Duration
		wait := func() {}
		if g.reloadTo != nil && s == 0 {
			// The slice reloads while its requests arrive.
			wait = sched.Workers(1, func(int) { reload = g.reload(ctx, k, g.reloadTo) })
		}
		if s == 0 {
			lat, late := g.open(ctx, sliceDur, g.next)
			g.next += len(lat)
			g.lat, g.late = append(g.lat, lat...), append(g.late, late...)
		} else {
			n, el := g.closed(ctx, g.next, sliceDur)
			g.next += n
			g.rates = append(g.rates, float64(n)/el.Seconds()/f)
		}
		wait()
		if reload > 0 {
			g.reloads = append(g.reloads, reload.Seconds())
		}
	}
	dm, err := g.daemonMetrics(ctx)
	if err != nil {
		return 0, err
	}
	g.daemon.CacheHits += dm.CacheHits
	g.daemon.CacheMisses += dm.CacheMisses
	g.daemon.InFlightHighWater = max(g.daemon.InFlightHighWater, dm.InFlightHighWater)
	g.daemon.Reloads += dm.Reloads
	g.daemon.ReloadFailures += dm.ReloadFailures
	g.peakConns = max(g.peakConns, g.dials.Load()-dials)
	return d.stop()
}

// exported is one generated input: the export file the daemon loads,
// its dataset version, and the in-process snapshot its responses are
// checked against, until expectAll has rendered them.
type exported struct {
	path, version string
	snap          *serve.Snapshot
}

func prepareExport(ctx context.Context, seed int64, scale float64, path string) (*exported, error) {
	st, err := govhost.Run(ctx, govhost.Config{Seed: seed, Scale: scale})
	if err != nil {
		return nil, err
	}
	if err := writeExport(st, path); err != nil {
		return nil, err
	}
	snap, err := govhost.NewServeSnapshot(st, "bench")
	if err != nil {
		return nil, err
	}
	return &exported{path: path, version: snap.Version(), snap: snap}, nil
}

// reqKey is one canonical (endpoint, params) response of the API.
type reqKey struct {
	endpoint string
	query    url.Values
	path     string
}

// serveKeys lists every canonical key: the param-free endpoints, fig9
// and matrix in both kinds, and country for every code.
func serveKeys(countries []string) []reqKey {
	var keys []reqKey
	add := func(ep, q string) {
		vals, _ := url.ParseQuery(q)
		p := "/api/" + ep
		if q != "" {
			p += "?" + q
		}
		keys = append(keys, reqKey{endpoint: ep, query: vals, path: p})
	}
	for _, ep := range serve.EndpointNames() {
		switch ep {
		case "fig9", "matrix":
			add(ep, "kind=registration")
			add(ep, "kind=location")
		case "country":
			for _, c := range countries {
				add(ep, "code="+c)
			}
		default:
			add(ep, "")
		}
	}
	return keys
}

type response struct {
	status int
	body   []byte
}

// loadGen is the load generator: a seeded Zipf request plan over the
// canonical keys, the expected response of every key under every
// dataset version, one HTTP connection per worker, and the tallies of
// every daemon it has driven.
type loadGen struct {
	tr       *tracer
	base     string
	rate     float64   // open-loop requests per second
	reloadTo *exported // reload target; nil: no reloads
	keys     []reqKey
	plan     []int32
	expect   map[string][]response // by dataset version, per key
	pool     []conn                // one per worker
	admin    *http.Client

	lat, late, reloads []float64 // open-loop latency and lateness, ms; reload times, s
	rates              []float64 // closed-loop requests/s of each slice, at the reference speed
	next               int       // plan index
	daemon             metrics.ServeRuntime
	peakConns          int64 // most connections opened to one daemon

	dials, sent, attempted, failed atomic.Int64
	mu                             sync.Mutex
	errs                           []string
}

func newLoadGen(tr *tracer) *loadGen {
	return &loadGen{tr: tr, pool: make([]conn, runtime.NumCPU()), expect: map[string][]response{},
		admin: &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxConnsPerHost: 1}}}
}

// conn is one worker's keep-alive HTTP/1.1 connection to the daemon.
// The worker writes each request and parses its response on its own
// goroutine. net/http's client would hand every request between three
// goroutines, and on two cores those hand-offs, more than the daemon,
// would set the closed loop's pace.
type conn struct {
	c  net.Conn
	br *bufio.Reader
}

// get sends GET path on worker w's connection, dialling it first when
// there is none, and returns the response's status, dataset version and
// body. A connection that fails is closed, to be dialled again.
func (g *loadGen) get(w int, path string) (status int, version string, body []byte, err error) {
	cn := &g.pool[w]
	if cn.c == nil {
		c, err := net.Dial("tcp", strings.TrimPrefix(g.base, "http://"))
		if err != nil {
			return 0, "", nil, err
		}
		g.dials.Add(1)
		cn.c, cn.br = c, bufio.NewReader(c)
	}
	defer func() {
		if err != nil {
			g.hangUp(w)
		}
	}()
	if err := cn.c.SetDeadline(time.Now().Add(time.Minute)); err != nil {
		return 0, "", nil, err
	}
	if _, err := io.WriteString(cn.c, "GET "+path+" HTTP/1.1\r\nHost: bench\r\n\r\n"); err != nil {
		return 0, "", nil, err
	}
	resp, err := http.ReadResponse(cn.br, nil)
	if err != nil {
		return 0, "", nil, err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("X-Dataset-Version"), body, err
}

// hangUp closes worker w's connection, if it has one.
func (g *loadGen) hangUp(w int) {
	if cn := &g.pool[w]; cn.c != nil {
		cn.c.Close()
		cn.c, cn.br = nil, nil
	}
}

// expectAll fixes the keys — every canonical key the exports can all
// answer — renders each under every export's version, and draws the
// request plan from seed.
func (g *loadGen) expectAll(seed int64, exports []*exported) {
	shared := map[string]int{}
	for _, e := range exports {
		for _, c := range e.snap.Countries() {
			shared[c]++
		}
	}
	var countries []string
	for c, n := range shared {
		if n == len(exports) {
			countries = append(countries, c)
		}
	}
	sort.Strings(countries)
	g.keys = serveKeys(countries)
	for _, e := range exports {
		rs := make([]response, len(g.keys))
		for i, k := range g.keys {
			rs[i].body, rs[i].status = e.snap.Render(k.endpoint, k.query)
		}
		g.expect[e.version] = rs
		e.snap = nil // keep the generator's heap small while it sends
	}
	// Real demand is heavily head-weighted, so popularity is Zipf (s = 1)
	// over a ranking of the keys. The ranking is the same for every seed:
	// which response is hottest would otherwise move throughput from one
	// seed to the next more than the daemon does. The seed draws the
	// request sequence.
	rank := rand.New(rand.NewSource(1)).Perm(len(g.keys))
	r := rand.New(rand.NewSource(seed))
	cdf := make([]float64, len(g.keys))
	sum := 0.0
	for i := range cdf {
		sum += 1 / float64(i+1)
		cdf[i] = sum
	}
	g.plan = make([]int32, zipfPlan)
	for i := range g.plan {
		g.plan[i] = int32(rank[sort.SearchFloat64s(cdf, r.Float64()*sum)])
	}
}

func (g *loadGen) fail(format string, args ...any) {
	g.failed.Add(1)
	g.mu.Lock()
	if len(g.errs) < maxErrors {
		g.errs = append(g.errs, fmt.Sprintf(format, args...))
	}
	g.mu.Unlock()
}

// request sends plan entry i on worker w's connection and checks the
// response byte for byte against the expected body of the version it
// names.
func (g *loadGen) request(w, i int, tr *tracer) (sent, done time.Time) {
	k := g.plan[i%len(g.plan)]
	key := &g.keys[k]
	g.attempted.Add(1)
	g.sent.Add(1)
	sent = time.Now()
	status, version, body, err := g.get(w, key.path)
	done = time.Now()
	if tr != nil {
		tr.add(i, "http:"+key.endpoint, "request", sent, done.Sub(sent))
	}
	if err != nil {
		g.fail("%s: %v", key.path, err)
		return sent, done
	}
	want, ok := g.expect[version]
	switch {
	case !ok:
		g.fail("%s: unknown dataset version %q", key.path, version)
	case status != want[k].status || !bytes.Equal(body, want[k].body):
		g.fail("%s: status %d, body of %d bytes, differs from version %s's render", key.path, status, len(body), version)
	}
	return sent, done
}

// open sends g.rate × dur requests on a fixed schedule, however fast the
// daemon answers, and times each from when it was due, so a stall is
// charged to every request it delays. late is how far behind its
// schedule the generator sent each request. Plan indexes start at from.
func (g *loadGen) open(ctx context.Context, dur time.Duration, from int) (lat, late []float64) {
	n := int(g.rate * dur.Seconds())
	lat, late = make([]float64, n), make([]float64, n)
	period := float64(time.Second) / g.rate
	var next atomic.Int64
	t0 := time.Now()
	wait := sched.Workers(len(g.pool), func(w int) {
		for ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			due := t0.Add(time.Duration(float64(i) * period))
			sleepUntil(due)
			sent, done := g.request(w, from+i, g.tr)
			g.tr.add(from+i, "request", "", due, done.Sub(due))
			lat[i] = float64(done.Sub(due)) / 1e6
			late[i] = float64(sent.Sub(due)) / 1e6
		}
	})
	wait()
	return lat, late
}

// closed keeps every connection busy for dur — each worker sends its
// next request when the last one is answered — and returns how many
// requests completed in how long. Plan indexes start at from.
// It records no spans: the open loop's spans already show where a
// request's time goes, and the throughput is measured untraced.
func (g *loadGen) closed(ctx context.Context, from int, dur time.Duration) (int, time.Duration) {
	var next, done atomic.Int64
	next.Store(int64(from))
	t0 := time.Now()
	end := t0.Add(dur)
	wait := sched.Workers(len(g.pool), func(w int) {
		for ctx.Err() == nil && time.Now().Before(end) {
			i := int(next.Add(1)) - 1
			g.request(w, i, nil)
			done.Add(1)
		}
	})
	wait()
	return int(done.Load()), time.Since(t0)
}

// reload posts /admin/reload for target and returns how long the
// daemon took to answer, or 0 when the reload failed. It must answer
// 200 with the target's version. Reloads go over their own admin
// connection: they are operator actions, not load.
func (g *loadGen) reload(ctx context.Context, k int, target *exported) time.Duration {
	g.attempted.Add(1)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.base+"/admin/reload?jsonl="+url.QueryEscape(target.path), nil)
	if err != nil {
		g.fail("reload: %v", err)
		return 0
	}
	start := time.Now()
	resp, err := g.admin.Do(req)
	if err != nil {
		g.fail("reload: %v", err)
		return 0
	}
	var body struct {
		Version string `json:"version"`
	}
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	d := time.Since(start)
	g.tr.add(k, "reload", "", start, d)
	switch {
	case err != nil:
		g.fail("reload: %v", err)
	case resp.StatusCode != http.StatusOK:
		g.fail("reload answered %d", resp.StatusCode)
	case body.Version != target.version:
		g.fail("reload swapped in version %s, want %s", body.Version, target.version)
	default:
		return d
	}
	return 0
}

// daemonMetrics reads the daemon's own serve counters from /metrics.
func (g *loadGen) daemonMetrics(ctx context.Context) (metrics.ServeRuntime, error) {
	var snap metrics.Snapshot
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.base+"/metrics", nil)
	if err != nil {
		return snap.Runtime.Serve, err
	}
	resp, err := g.admin.Do(req)
	if err != nil {
		return snap.Runtime.Serve, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap.Runtime.Serve, fmt.Errorf("/metrics answered %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	return snap.Runtime.Serve, err
}

// sleepUntil waits for t with nanosleep. time.Sleep rides the runtime's
// timers, which round a sub-millisecond wait up to about a millisecond
// on Linux and would pace the open loop in bursts.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		if syscall.Nanosleep(&ts, nil) == nil {
			return
		}
	}
}

// daemon is one running govserve process.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	version string
	stderr  bytes.Buffer
	drained func()
	stopped bool
	rssMB   float64
}

// startDaemon execs govserve on an export file and waits for its first
// 200 from /healthz, returning how long that took.
func startDaemon(ctx context.Context, bin, jsonl string) (*daemon, time.Duration, error) {
	start := time.Now()
	d := &daemon{drained: func() {}}
	d.cmd = exec.CommandContext(ctx, bin, "-from-jsonl", jsonl, "-addr", "127.0.0.1:0")
	d.cmd.Stderr = &d.stderr
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	// The daemon announces "govserve: listening on http://ADDR
	// version=V source=S" once its snapshot is built.
	sc := bufio.NewScanner(stdout)
	if sc.Scan() {
		for _, f := range strings.Fields(sc.Text()) {
			if strings.HasPrefix(f, "http://") {
				d.base = f
			} else if v, ok := strings.CutPrefix(f, "version="); ok {
				d.version = v
			}
		}
	}
	d.drained = sched.Workers(1, func(int) {
		for sc.Scan() {
		}
	})
	if d.base == "" {
		d.stop()
		return nil, 0, fmt.Errorf("govserve did not announce its address: %s", strings.TrimSpace(d.stderr.String()))
	}
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Since(start) > time.Minute {
			d.stop()
			return nil, 0, fmt.Errorf("govserve at %s never answered /healthz with 200", d.base)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop reads the daemon's peak RSS in MB, sends SIGTERM, and waits for
// it to drain and exit. It is safe to call twice.
func (d *daemon) stop() (float64, error) {
	if d.stopped {
		return d.rssMB, nil
	}
	d.stopped = true
	d.rssMB, _ = peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.cmd.Process.Kill()
	}
	d.drained()
	if err := d.cmd.Wait(); err != nil {
		return d.rssMB, fmt.Errorf("govserve: %v: %s", err, strings.TrimSpace(d.stderr.String()))
	}
	return d.rssMB, nil
}
