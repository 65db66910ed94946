package govhost

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/serve"
)

// serveDaemonEnv carries the JSONL path a re-executed test binary
// serves as a real govserve daemon (see TestMain).
const serveDaemonEnv = "GOVHOST_TEST_SERVE_DAEMON"

// newLocalListener binds a kernel-assigned loopback port.
func newLocalListener() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}

// serveDaemonMain is the child side of the exec test: a real daemon
// process on a kernel-assigned port, announcing its address on stdout
// and draining on SIGTERM — the same lifecycle cmd/govserve runs.
func serveDaemonMain(jsonlPath string) {
	snap, err := ServeSnapshotFromJSONLWorkers(jsonlPath, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve daemon:", err)
		os.Exit(1)
	}
	srv := serve.New(serve.Config{Snapshot: snap, Workers: 4, Reloader: ServeReloader(Config{})})
	ln, err := newLocalListener()
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve daemon:", err)
		os.Exit(1)
	}
	fmt.Printf("listening %s %s\n", ln.Addr(), snap.Version())

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM)
	select {
	case err := <-done:
		fmt.Fprintln(os.Stderr, "serve daemon: serve returned early:", err)
		os.Exit(1)
	case <-sigc:
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "serve daemon:", err)
		os.Exit(1)
	}
	<-done
	fmt.Println("drained")
	os.Exit(0)
}

// execServeStudy is the small study the daemon serves; topsites stay
// on so the comparison endpoints have data.
func execServeStudy() Config {
	return Config{Seed: 11, Scale: 0.02, Countries: []string{"US", "DE", "BR"}}
}

// TestServeDaemonExec runs a real govserve process against a seeded
// study export. It diffs every endpoint's body against an in-process
// render of the same file and revalidates every 200 to a 304 through
// its ETag. It then fires a live reload at a fixed index of a
// concurrent seeded request run, byte-checks every response against
// the version it names, and checks that the daemon's not_modified
// count equals the 304s the client saw. Last it SIGTERMs the daemon
// and asserts a clean drain.
func TestServeDaemonExec(t *testing.T) {
	if testing.Short() {
		t.Skip("exec test: spawns a daemon process")
	}
	dir := t.TempDir()

	// Two study exports: the daemon starts on A and reloads to B.
	writeExport := func(name string, cfg Config) (string, *serve.Snapshot) {
		st, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := st.ExportJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		snap, err := ServeSnapshotFromJSONLWorkers(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		return path, snap
	}
	cfgB := execServeStudy()
	cfgB.Seed = 12
	pathA, snapA := writeExport("a.jsonl", execServeStudy())
	pathB, snapB := writeExport("b.jsonl", cfgB)
	if snapA.Version() == snapB.Version() {
		t.Fatal("study variants hash to the same version")
	}

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), serveDaemonEnv+"="+pathA)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	lines := bufio.NewScanner(stdout)
	if !lines.Scan() {
		t.Fatal("daemon exited before announcing its address")
	}
	fields := strings.Fields(lines.Text())
	if len(fields) != 3 || fields[0] != "listening" {
		t.Fatalf("unexpected announce line: %q", lines.Text())
	}
	base := "http://" + fields[1]
	if fields[2] != snapA.Version() {
		t.Fatalf("daemon serves version %s, local load computes %s", fields[2], snapA.Version())
	}

	mustSend := func(u, inm string) reply {
		t.Helper()
		r, err := send(u, inm)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	// Every endpoint must produce exactly the bytes the in-process
	// snapshot renders from the same file, and every 200 must carry
	// the tag ETagFor computes offline. Re-sending a 200's request with
	// its tag must answer 304 with no body and the same tag and
	// version; tagged collects each tagged call.
	notModified := 0
	checkAll := func(snap *serve.Snapshot, tagged *[]execCall) {
		t.Helper()
		for _, c := range execCalls(snap) {
			r := mustSend(c.url(base), "")
			wantBody, wantStatus := snap.Render(c.name, c.query)
			if r.status != wantStatus || r.version != snap.Version() || !bytes.Equal(r.body, wantBody) {
				t.Fatalf("%s: daemon answered status=%d version=%s; local render status=%d version=%s",
					c, r.status, r.version, wantStatus, snap.Version())
			}
			if r.status != http.StatusOK {
				continue
			}
			if want := serve.ETagFor(snap.Version(), c.name, c.query); r.etag != want {
				t.Fatalf("%s: ETag %q, ETagFor computes %q", c, r.etag, want)
			}
			cond := mustSend(c.url(base), r.etag)
			if cond.status != http.StatusNotModified || len(cond.body) != 0 || cond.etag != r.etag || cond.version != snap.Version() {
				t.Fatalf("%s with If-None-Match %s: status=%d, %d body bytes, ETag %s, version %s; want 304, none, the same tag, %s",
					c, r.etag, cond.status, len(cond.body), cond.etag, cond.version, snap.Version())
			}
			notModified++
			if tagged != nil {
				c.tag = r.etag
				*tagged = append(*tagged, c)
			}
		}
	}
	var taggedA []execCall
	checkAll(snapA, &taggedA)

	// Reload under load: four clients run a seeded plan over the
	// endpoint calls, and the client that claims request reloadAt POSTs
	// the reload to B before it sends that request. Every body must be
	// the render of the version it names, and once the reload has
	// answered 200 every request sent must be served by B. A's tags
	// then no longer match: each answers a full response with B's
	// bytes.
	reloadAtIndex := func(t *testing.T) {
		const requests, reloadAt, clients = 2000, 500, 4
		calls := execCalls(snapA)
		rng := rand.New(rand.NewSource(18))
		plan := make([]execCall, requests)
		for i := range plan {
			plan[i] = calls[rng.Intn(len(calls))]
		}
		byVersion := map[string]*serve.Snapshot{snapA.Version(): snapA, snapB.Version(): snapB}
		var (
			claimed   atomic.Int64
			reloaded  atomic.Bool
			sentAfter atomic.Int64 // requests sent after the reload answered
			mu        sync.Mutex
			served    = map[string]int{}
			failures  []string
			wg        sync.WaitGroup
		)
		fail := func(format string, args ...any) {
			mu.Lock()
			failures = append(failures, fmt.Sprintf(format, args...))
			mu.Unlock()
		}
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(claimed.Add(1)) - 1; i < requests; i = int(claimed.Add(1)) - 1 {
					if i == reloadAt {
						if status, err := postReload(base, pathB); err != nil || status != http.StatusOK {
							fail("reload before request %d: status %d, %v", i, status, err)
							return
						}
						reloaded.Store(true)
					}
					after := reloaded.Load()
					c := plan[i]
					r, err := send(c.url(base), "")
					if err != nil {
						fail("request %d %s: %v", i, c, err)
						return
					}
					snap := byVersion[r.version]
					if snap == nil {
						fail("request %d %s: unknown version %q", i, c, r.version)
						continue
					}
					if wantBody, wantStatus := snap.Render(c.name, c.query); r.status != wantStatus || !bytes.Equal(r.body, wantBody) {
						fail("request %d %s: status %d, body diverges from version %s's render", i, c, r.status, r.version)
					}
					if after {
						sentAfter.Add(1)
						if r.version != snapB.Version() {
							fail("request %d %s: sent after the reload answered 200, served by %s", i, c, r.version)
						}
					}
					mu.Lock()
					served[r.version]++
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		for _, f := range failures {
			t.Error(f)
		}
		t.Logf("reload at request %d of %d: responses per version %v, %d sent after the reload answered",
			reloadAt, requests, served, sentAfter.Load())
		if served[snapA.Version()] == 0 || served[snapB.Version()] == 0 {
			t.Errorf("responses per version %v: want both %s and %s", served, snapA.Version(), snapB.Version())
		}
		if t.Failed() {
			t.FailNow()
		}

		for _, c := range taggedA {
			r, err := send(c.url(base), c.tag)
			if err != nil {
				t.Fatal(err)
			}
			wantBody, wantStatus := snapB.Render(c.name, c.query)
			if r.status != wantStatus || r.version != snapB.Version() || !bytes.Equal(r.body, wantBody) {
				t.Fatalf("%s with A's tag %s: status=%d version=%s; want B's render, status=%d version=%s",
					c, c.tag, r.status, r.version, wantStatus, snapB.Version())
			}
		}
	}
	if !t.Run("ReloadAtIndex", reloadAtIndex) {
		t.FailNow()
	}
	checkAll(snapB, nil)

	// The daemon counted exactly the 304s the client saw.
	var m metrics.Snapshot
	if err := json.Unmarshal(mustSend(base+"/metrics", "").body, &m); err != nil {
		t.Fatal(err)
	}
	if got := m.Runtime.Serve.NotModified; got != int64(notModified) {
		t.Fatalf("daemon counted not_modified=%d, client saw %d 304s", got, notModified)
	}

	// SIGTERM: the daemon must drain and exit 0 after printing the
	// drain marker.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if !lines.Scan() || lines.Text() != "drained" {
		t.Fatalf("expected drain marker, got %q", lines.Text())
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exit: %v", err)
	}
}

// reply is one daemon response as the exec test sees it.
type reply struct {
	status        int
	version, etag string
	body          []byte
}

// send GETs u, with an If-None-Match header when inm is set.
func send(u, inm string) (reply, error) {
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return reply{}, err
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	return reply{res.StatusCode, res.Header.Get("X-Dataset-Version"), res.Header.Get("ETag"), body}, err
}

// execCall is one endpoint call; tag is the ETag a 200 carried.
type execCall struct {
	name  string
	query url.Values
	tag   string
}

func (c execCall) url(base string) string { return base + "/api/" + c.String() }

func (c execCall) String() string {
	if len(c.query) == 0 {
		return c.name
	}
	return c.name + "?" + c.query.Encode()
}

// execCalls lists one call per endpoint, both flow kinds for fig9 and
// matrix, and one country call per country of snap.
func execCalls(snap *serve.Snapshot) []execCall {
	var calls []execCall
	for _, name := range serve.EndpointNames() {
		switch name {
		case "fig9", "matrix":
			calls = append(calls,
				execCall{name: name, query: url.Values{"kind": {"registration"}}},
				execCall{name: name, query: url.Values{"kind": {"location"}}})
		case "country":
			for _, c := range snap.Countries() {
				calls = append(calls, execCall{name: name, query: url.Values{"code": {c}}})
			}
		default:
			calls = append(calls, execCall{name: name})
		}
	}
	return calls
}

// postReload asks the daemon at base to swap to the JSONL export at
// path and returns the status it answered.
func postReload(base, path string) (int, error) {
	res, err := http.Post(base+"/admin/reload?jsonl="+url.QueryEscape(path), "", nil)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	return res.StatusCode, nil
}
