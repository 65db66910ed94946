package govhost

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

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
// study export, diffs every endpoint's body against an in-process
// render of the same file, exercises a live reload, then SIGTERMs the
// daemon and asserts a clean drain.
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

	get := func(u string) (int, string, []byte) {
		res, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		body, err := io.ReadAll(res.Body)
		if err != nil {
			t.Fatal(err)
		}
		return res.StatusCode, res.Header.Get("X-Dataset-Version"), body
	}

	// Every endpoint must produce exactly the bytes the in-process
	// snapshot renders from the same file.
	checkAll := func(snap *serve.Snapshot) {
		t.Helper()
		for _, name := range serve.EndpointNames() {
			queries := []string{""}
			switch name {
			case "fig9", "matrix":
				queries = []string{"kind=registration", "kind=location"}
			case "country":
				queries = nil
				for _, c := range snap.Countries() {
					queries = append(queries, "code="+c)
				}
			}
			for _, query := range queries {
				u := base + "/api/" + name
				if query != "" {
					u += "?" + query
				}
				status, version, body := get(u)
				q, _ := url.ParseQuery(query)
				wantBody, wantStatus := snap.Render(name, q)
				if status != wantStatus || version != snap.Version() || !bytes.Equal(body, wantBody) {
					t.Fatalf("%s?%s: daemon answered status=%d version=%s; local render status=%d version=%s",
						name, query, status, version, wantStatus, snap.Version())
				}
			}
		}
	}
	checkAll(snapA)

	// Live reload to B: the swap must land and every endpoint must now
	// render B's bytes.
	req, err := http.NewRequest(http.MethodPost, base+"/admin/reload?jsonl="+pathB, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("reload answered %d", res.StatusCode)
	}
	checkAll(snapB)

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
