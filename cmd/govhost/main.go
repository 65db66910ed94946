// Command govhost runs the full government-hosting study and prints
// paper-vs-measured reports for any of the paper's tables and figures.
//
// Usage:
//
//	govhost -scale 0.1 -exp fig2,fig9
//	govhost -exp all
//	govhost -countries US,MX,BR -exp fig2
//
//lint:deterministic
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"time"

	govhost "repro"
	"repro/internal/prof"
)

func main() {
	var (
		scale       = flag.Float64("scale", 0.1, "fraction of the paper's estate size to generate (1.0 ≈ 1M URLs)")
		seed        = flag.Int64("seed", 42, "study seed; equal seeds give identical studies")
		countries   = flag.String("countries", "", "comma-separated ISO codes to restrict the panel (default: all 61)")
		exps        = flag.String("exp", "findings", "comma-separated experiment IDs, or 'all' / 'list'")
		depth       = flag.Int("depth", 0, "crawl depth override (default: the paper's 7)")
		countryConc = flag.Int("country-concurrency", 0, "countries crawled in parallel (default: 8)")
		fetchConc   = flag.Int("fetch-concurrency", 0, "study-wide fetch/annotate worker pool size shared by all crawls (default: 8)")
		maxURLs     = flag.Int("max-urls", 0, "cap on distinct URLs per country crawl, deterministically admitted (default: unlimited)")
		faultProf   = flag.String("fault-profile", "off", "chaos fault profile: off, mild, aggressive, or key=value spec (timeout=0.1,reset=0.05,...)")
		faultSeed   = flag.Int64("fault-seed", 0, "seed for the fault plan (default: -seed); same seed, same faults")
		retries     = flag.Int("retries", 0, "max fetch attempts per URL (default: 3; negative disables retries)")
		retryBudget = flag.Int64("retry-budget", 0, "study-wide cap on total retries (default: unlimited)")
		trustIPInfo = flag.Bool("trust-ipinfo", false, "ablation: skip geolocation verification")
		noSAN       = flag.Bool("no-san", false, "ablation: disable SAN-based URL classification")
		noTopsites  = flag.Bool("no-topsites", false, "skip the Appendix D top-site baseline")
		metricsOut  = flag.String("metrics", "", "dump the per-stage metrics snapshot after the run: 'text' (aligned ledger) or 'json'")
		quiet       = flag.Bool("quiet", false, "suppress progress output")
		dumpJSONL   = flag.String("dump-jsonl", "", "write the annotated dataset as JSON lines to this path")
		dumpCSV     = flag.String("dump-csv", "", "write the annotated dataset as CSV to this path")
		fromJSONL   = flag.String("from-jsonl", "", "re-analyse a saved dataset instead of running the pipeline")
		checkpoint  = flag.String("checkpoint", "", "persist each finished country into this directory so a killed run can be resumed")
		resume      = flag.Bool("resume", false, "resume the run found in -checkpoint: finished countries load from disk, the rest re-run")
		shardSpec   = flag.String("shard", "", "run as one shard worker 'i/n': collect the countries whose sorted-panel index ≡ i (mod n) into -checkpoint, then exit")
		shards      = flag.Int("shards", 0, "supervise this many shard worker processes over -checkpoint (restarting crashes), then assemble the full study")
		shardRetry  = flag.Int("shard-restarts", 0, "restart budget per crashed shard worker (default: 3; negative disables restarts)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile covering the run to this path (go tool pprof)")
		memProfile  = flag.String("memprofile", "", "write a heap profile at exit to this path (go tool pprof)")
	)
	flag.Parse()

	stopProf, perr := prof.Start(*cpuProfile, *memProfile)
	if perr != nil {
		fmt.Fprintln(os.Stderr, "govhost:", perr)
		os.Exit(1)
	}
	defer stopProf()

	if *exps == "list" {
		for _, e := range govhost.Experiments() {
			fmt.Printf("%-9s %s\n", e.ID, e.Title)
		}
		return
	}

	if *resume && *checkpoint == "" {
		fmt.Fprintln(os.Stderr, "govhost: -resume requires -checkpoint")
		os.Exit(1)
	}
	if *fromJSONL != "" && *checkpoint != "" {
		fmt.Fprintln(os.Stderr, "govhost: -checkpoint applies to pipeline runs; it cannot be combined with -from-jsonl")
		os.Exit(1)
	}
	if *shardSpec != "" && *shards > 0 {
		fmt.Fprintln(os.Stderr, "govhost: -shard runs a single worker and -shards runs the supervisor; pick one")
		os.Exit(1)
	}
	if (*shardSpec != "" || *shards > 0) && *checkpoint == "" {
		fmt.Fprintln(os.Stderr, "govhost: sharded execution requires -checkpoint (the shared directory the shards assemble through)")
		os.Exit(1)
	}
	if *shards > 0 && *fromJSONL != "" {
		fmt.Fprintln(os.Stderr, "govhost: -shards runs the pipeline; it cannot be combined with -from-jsonl")
		os.Exit(1)
	}

	cfg := govhost.Config{
		Seed:               *seed,
		Scale:              *scale,
		CrawlDepth:         *depth,
		CountryConcurrency: *countryConc,
		FetchConcurrency:   *fetchConc,
		MaxURLsPerCrawl:    *maxURLs,
		FaultProfile:       *faultProf,
		FaultSeed:          *faultSeed,
		RetryAttempts:      *retries,
		RetryBudget:        *retryBudget,
		TrustIPInfo:        *trustIPInfo,
		DisableSAN:         *noSAN,
		SkipTopsites:       *noTopsites,
		CheckpointDir:      *checkpoint,
		Resume:             *resume,
	}
	if *countries != "" {
		cfg.Countries = strings.Split(strings.ToUpper(*countries), ",")
	}

	//lint:ignore nondeterminism -- stderr elapsed-time progress line; no study or report bytes derive from it
	start := time.Now()

	if *shardSpec != "" {
		idxStr, nStr, ok := strings.Cut(*shardSpec, "/")
		idx, ierr := strconv.Atoi(idxStr)
		n, nerr := strconv.Atoi(nStr)
		if !ok || ierr != nil || nerr != nil || n <= 0 || idx < 0 || idx >= n {
			fmt.Fprintf(os.Stderr, "govhost: -shard wants 'i/n' with 0 <= i < n, got %q\n", *shardSpec)
			os.Exit(1)
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		done, err := govhost.RunShardWorker(ctx, cfg, idx, n)
		if err != nil {
			fmt.Fprintln(os.Stderr, err) // already prefixed "govhost:"
			os.Exit(1)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "shard %d/%d complete in %v: %d countries checkpointed in %s\n",
				//lint:ignore nondeterminism -- stderr elapsed-time progress line; no study or report bytes derive from it
				idx, n, time.Since(start).Round(time.Millisecond), done, *checkpoint)
		}
		return
	}

	var study *govhost.Study
	var err error
	if *fromJSONL != "" {
		f, ferr := os.Open(*fromJSONL)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "govhost:", ferr)
			os.Exit(1)
		}
		study, err = govhost.Load(f)
		f.Close()
	} else {
		// ^C cancels the run context instead of killing the process, so
		// a checkpointed run drains every completed country to disk
		// before exiting (a second ^C kills outright).
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		if *shards > 0 {
			study, err = runSharded(ctx, cfg, *shards, *shardRetry, *quiet)
		} else {
			study, err = govhost.Run(ctx, cfg)
		}
	}
	if err != nil {
		// Load, Run and RunSharded prefix their errors "govhost:", and
		// runSharded prefixes its own.
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if !*quiet {
		st := study.Stats()
		fmt.Fprintf(os.Stderr, "study complete in %v: %d URLs, %d hostnames, %d IPs, %d ASes\n",
			//lint:ignore nondeterminism -- stderr elapsed-time progress line; no study or report bytes derive from it
			time.Since(start).Round(time.Millisecond),
			st.UniqueURLs, st.UniqueHostnames, st.UniqueIPs, st.ASes)
	}

	for _, dump := range []struct {
		path  string
		write func(io.Writer) error
	}{
		{*dumpJSONL, study.ExportJSONL},
		{*dumpCSV, study.ExportCSV},
	} {
		if dump.path == "" {
			continue
		}
		f, err := os.Create(dump.path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "govhost:", err)
			os.Exit(1)
		}
		if err := dump.write(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "govhost:", err)
			os.Exit(1)
		}
		f.Close()
		if !*quiet {
			fmt.Fprintf(os.Stderr, "dataset written to %s\n", dump.path)
		}
	}

	if *exps == "all" {
		fmt.Print(study.ReportAll())
	} else {
		for _, id := range strings.Split(*exps, ",") {
			fmt.Print(study.Report(strings.TrimSpace(id)))
			fmt.Println()
		}
	}

	if *metricsOut != "" {
		snap, ok := study.Metrics()
		if !ok {
			// Only a re-analysis (-from-jsonl) has no ledger: it never
			// ran the pipeline, so the per-stage ledger (fetches, cache
			// hits, scheduler shape) would be all zeros, and printing it
			// as if measured would mislead. The flag combination is not
			// an error: say what is and is not available instead.
			st := study.Stats()
			fmt.Fprintf(os.Stderr, "govhost: -metrics: no pipeline metrics in a re-analysis (-from-jsonl): the per-stage ledger describes a live run and was not serialised.\n")
			fmt.Fprintf(os.Stderr, "govhost: dataset-level statistics are available: %d URLs, %d hostnames, %d IPs, %d ASes (%d gov), %d server countries; run -exp coverage for the per-country coverage table.\n",
				st.UniqueURLs, st.UniqueHostnames, st.UniqueIPs, st.ASes, st.GovASes, st.ServerCountries)
			return
		}
		switch *metricsOut {
		case "text":
			fmt.Print(snap.Text())
		case "json":
			buf, err := snap.JSON()
			if err != nil {
				fmt.Fprintln(os.Stderr, "govhost:", err)
				os.Exit(1)
			}
			os.Stdout.Write(buf)
			fmt.Println()
		default:
			fmt.Fprintf(os.Stderr, "govhost: -metrics must be 'text' or 'json', got %q\n", *metricsOut)
			os.Exit(1)
		}
	}
}

// runSharded re-executes this binary as n shard worker processes under
// the crash supervisor, then assembles their checkpoints into the
// study. Worker crash/restart/exhaustion events stream to stderr.
func runSharded(ctx context.Context, cfg govhost.Config, n, restarts int, quiet bool) (*govhost.Study, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("govhost: %w", err)
	}
	base := workerArgs()
	study, outcomes, err := govhost.RunSharded(ctx, cfg, govhost.Sharding{
		Shards:      n,
		MaxRestarts: restarts,
		Worker: func(ctx context.Context, shard, shards int) *exec.Cmd {
			args := append(append([]string(nil), base...), "-shard", fmt.Sprintf("%d/%d", shard, shards))
			cmd := exec.CommandContext(ctx, exe, args...)
			cmd.Stderr = os.Stderr
			return cmd
		},
		Log: os.Stderr,
	})
	if err != nil {
		return nil, err
	}
	if !quiet {
		for _, o := range outcomes {
			switch {
			case o.Err != nil:
				fmt.Fprintf(os.Stderr, "shard %d/%d: gave up after %d restarts; its uncollected countries are marked failed in the partial dataset\n", o.Shard, n, o.Restarts)
			case o.Restarts > 0:
				fmt.Fprintf(os.Stderr, "shard %d/%d: recovered after %d restart(s)\n", o.Shard, n, o.Restarts)
			}
		}
	}
	return study, nil
}

// workerArgs rebuilds the command line for a shard worker: every study
// flag the user set passes through verbatim; supervisor-only and
// report/export flags do not (workers collect and checkpoint, the
// assembly pass reports).
func workerArgs() []string {
	drop := map[string]bool{
		"shard": true, "shards": true, "shard-restarts": true,
		"exp": true, "dump-jsonl": true, "dump-csv": true, "from-jsonl": true,
		"metrics": true, "cpuprofile": true, "memprofile": true,
	}
	var args []string
	flag.Visit(func(f *flag.Flag) {
		if !drop[f.Name] {
			args = append(args, "-"+f.Name+"="+f.Value.String())
		}
	})
	return args
}
