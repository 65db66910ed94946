// Command govserve is the always-on analysis daemon: it loads a study
// — from an exported JSONL file, from a checkpoint directory, or by
// running the pipeline at startup — and serves every index-backed
// figure and table as an HTTP/JSON API. The loaded study is an
// immutable snapshot behind an atomic pointer; POST /admin/reload (or
// SIGHUP) swaps in a fresh snapshot without dropping in-flight
// requests, and SIGTERM drains cleanly.
//
// Usage:
//
//	govserve -from-jsonl study.jsonl -addr 127.0.0.1:8080
//	govserve -from-checkpoint ckpt/ -seed 42 -scale 0.05
//	govserve -run -seed 42 -scale 0.02 -countries US,MX,BR
//	curl localhost:8080/api/fig2
//	curl -X POST 'localhost:8080/admin/reload?jsonl=other.jsonl'
//
// Load testing lives in the benchmark module: bench/'s serve-hot and
// serve-reload workloads drive this daemon with a seeded Zipf mix and
// byte-check every response (bash bench/run.sh -workload serve-reload).
//
//lint:deterministic
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	govhost "repro"
	"repro/internal/sched"
	"repro/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8080", "listen address; port 0 picks a free port")
		fromJSONL = flag.String("from-jsonl", "", "serve a saved dataset export")
		fromCkpt  = flag.String("from-checkpoint", "", "resume (and complete) the study in this checkpoint directory, then serve it")
		runStudy  = flag.Bool("run", false, "run the pipeline at startup and serve the result")
		seed      = flag.Int64("seed", 42, "study seed for -run / -from-checkpoint manifest matching")
		scale     = flag.Float64("scale", 0.1, "study scale for -run / -from-checkpoint manifest matching")
		countries = flag.String("countries", "", "comma-separated ISO codes for -run / -from-checkpoint")
		workers   = flag.Int("workers", 0, "concurrent request renders; excess requests queue (default 8)")
	)
	flag.Parse()

	if err := runDaemon(*addr, *fromJSONL, *fromCkpt, *runStudy, *seed, *scale, *countries, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "govserve:", err)
		os.Exit(1)
	}
}

func studyConfig(seed int64, scale float64, countries string) govhost.Config {
	cfg := govhost.Config{Seed: seed, Scale: scale}
	if countries != "" {
		cfg.Countries = strings.Split(countries, ",")
	}
	return cfg
}

func runDaemon(addr, fromJSONL, fromCkpt string, runStudy bool, seed int64, scale float64, countries string, workers int) error {
	ctx := context.Background()
	cfg := studyConfig(seed, scale, countries)

	var (
		snap *serve.Snapshot
		src  serve.Source // what SIGHUP re-loads
		err  error
	)
	switch {
	case fromJSONL != "":
		snap, err = govhost.ServeSnapshotFromJSONL(fromJSONL)
		src = serve.Source{Kind: "jsonl", Path: fromJSONL}
	case fromCkpt != "":
		c := cfg
		c.CheckpointDir = fromCkpt
		snap, err = govhost.ServeSnapshotFromCheckpoint(ctx, c)
		src = serve.Source{Kind: "checkpoint", Path: fromCkpt}
	case runStudy:
		var st *govhost.Study
		st, err = govhost.Run(ctx, cfg)
		if err == nil {
			snap, err = govhost.NewServeSnapshot(st, fmt.Sprintf("run:seed=%d,scale=%g", seed, scale))
		}
	default:
		return fmt.Errorf("pass one of -from-jsonl, -from-checkpoint, or -run")
	}
	if err != nil {
		return err
	}

	srv := serve.New(serve.Config{
		Snapshot: snap,
		Workers:  workers,
		Reloader: govhost.ServeReloader(cfg),
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("govserve: listening on http://%s version=%s source=%s\n",
		ln.Addr(), snap.Version(), snap.Desc())

	errc := make(chan error, 1)
	wait := sched.Workers(1, func(int) { errc <- srv.Serve(ln) })

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT, syscall.SIGHUP)
	for {
		select {
		case err := <-errc:
			wait()
			return err
		case sig := <-sigc:
			if sig == syscall.SIGHUP {
				if src.Kind == "" {
					fmt.Fprintln(os.Stderr, "govserve: SIGHUP ignored: started from -run, nothing to reload from")
					continue
				}
				next, rerr := srv.Reload(ctx, src)
				if rerr != nil {
					fmt.Fprintln(os.Stderr, "govserve: reload failed, keeping current snapshot:", rerr)
					continue
				}
				fmt.Printf("govserve: reloaded version=%s\n", next.Version())
				continue
			}
			shutdownCtx, cancel := context.WithTimeout(ctx, 15*time.Second)
			defer cancel()
			serr := srv.Shutdown(shutdownCtx)
			wait()
			<-errc // Serve's return, unblocked by Shutdown
			if serr != nil {
				return serr
			}
			fmt.Println("govserve: drained")
			return nil
		}
	}
}
