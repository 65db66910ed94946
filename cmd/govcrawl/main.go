// Command govcrawl demonstrates the collection substrate end to end
// over real sockets: it generates the synthetic estate, serves it over
// HTTP, resolves hostnames through a live DNS server speaking RFC 1035
// over UDP, crawls one country's government landing pages through an
// in-country vantage point, and writes the resulting HAR archive as
// JSON.
//
// Usage:
//
//	govcrawl -country UY -scale 0.05 -o crawl.har.json
//
//lint:deterministic
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/dnswire"
	"repro/internal/faults"
	"repro/internal/fetch"
	"repro/internal/metrics"
	"repro/internal/prof"
	"repro/internal/sched"
	"repro/internal/vantage"
	"repro/internal/webserve"
)

func main() {
	var (
		country     = flag.String("country", "UY", "ISO code of the country to crawl")
		scale       = flag.Float64("scale", 0.05, "estate scale")
		seed        = flag.Int64("seed", 42, "study seed")
		depth       = flag.Int("depth", 7, "crawl depth")
		concurrency = flag.Int("concurrency", 16, "bounded fetch worker pool size")
		maxURLs     = flag.Int("max-urls", 0, "cap on distinct URLs admitted, deterministically (default: unlimited)")
		faultProf   = flag.String("fault-profile", "off", "chaos fault profile: off, mild, aggressive, or key=value spec (timeout=0.1,reset=0.05,...)")
		faultSeed   = flag.Int64("fault-seed", 0, "seed for the fault plan (default: -seed); same seed, same faults")
		retries     = flag.Int("retries", 0, "max fetch attempts per URL (default: 3; negative disables retries)")
		metricsOut  = flag.String("metrics", "", "dump the crawl's metrics snapshot to stderr: 'text' or 'json'")
		out         = flag.String("o", "", "output HAR JSON path (default stdout)")
		dumpZone    = flag.String("dump-zone", "", "write the authoritative zones in RFC 1035 master format to this path")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile covering the run to this path (go tool pprof)")
		memProfile  = flag.String("memprofile", "", "write a heap profile at exit to this path (go tool pprof)")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	env := core.NewEnv(core.Config{Seed: *seed, Scale: *scale})
	c := env.World.Country(*country)
	if c == nil || c.Landing == 0 {
		fmt.Fprintf(os.Stderr, "govcrawl: no estate for country %q\n", *country)
		os.Exit(1)
	}

	if *dumpZone != "" {
		f, err := os.Create(*dumpZone)
		if err != nil {
			fatal(err)
		}
		if err := env.Zones.WriteZoneFile(f); err != nil {
			f.Close()
			fatal(err)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "zone file written to %s\n", *dumpZone)
	}

	// Real HTTP server over the estate.
	srv := &webserve.Server{Estate: env.Estate}
	httpAddr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	defer srv.Close()

	// Real DNS server over the zones.
	dns := &dnswire.Server{Handler: env.Zones.Handler()}
	dnsAddr, err := dns.Start("127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	defer dns.Close()
	fmt.Fprintf(os.Stderr, "synthetic web on http://%s, DNS on %s\n", httpAddr, dnsAddr)

	// Resolve one landing hostname over the wire as a sanity check.
	landings := env.Estate.LandingURLs[c.Code]
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	if len(landings) > 0 {
		q := dnswire.NewQuery(1, hostOf(landings[0]), dnswire.TypeA)
		resp, err := dnswire.Exchange(ctx, dnsAddr, q)
		if err != nil {
			fatal(err)
		}
		for _, rr := range resp.Answers {
			if rr.Type == dnswire.TypeA {
				fmt.Fprintf(os.Stderr, "DNS: %s -> %s\n", hostOf(landings[0]), rr.A)
			}
		}
	}

	// The real-socket fetcher rides the same fault/retry stack the
	// pipeline uses, so chaos behaviour is demonstrable over the wire.
	prof, err := faults.ParseProfile(*faultProf)
	if err != nil {
		fatal(err)
	}
	// The scheduler records its runtime observations into a registry,
	// and the crawl's tally row becomes the deterministic half, the way
	// the study pipeline derives its ledger.
	reg := metrics.New()
	var fetcher fetch.Fetcher = vantage.NewHTTPFetcher(httpAddr, c.Code)
	var injector *faults.Fetcher
	if prof.Enabled() {
		fs := *faultSeed
		if fs == 0 {
			fs = *seed
		}
		injector = &faults.Fetcher{Inner: fetcher, Plan: faults.NewPlan(fs, prof)}
		fetcher = injector
	}
	retrier := &fetch.Retrier{
		Inner:  fetcher,
		Policy: fetch.RetryPolicy{MaxAttempts: *retries, Seed: *seed},
	}
	pool := sched.NewPool(*concurrency)
	defer pool.Close()
	pool.SetMetrics(&reg.Sched)
	cr := &crawler.Crawler{
		Fetcher: retrier,
		Config: crawler.Config{
			MaxDepth: *depth, MaxURLs: *maxURLs,
			Country: c.Code, VPN: c.VPN,
		},
		Pool: pool,
	}
	//lint:ignore nondeterminism -- stderr elapsed-time progress line; no archive bytes derive from it
	start := time.Now()
	archive, frontier, err := cr.Crawl(ctx, landings)
	if err != nil {
		fatal(err)
	}
	if *metricsOut != "" {
		tally := metrics.CrawlTally{
			RetriesByKind:     retrier.Stats().RetriesByKind,
			FrontierTruncated: frontier.Truncated,
			URLsByDepth:       frontier.AdmittedByDepth,
		}
		if injector != nil {
			tally.Injections = injector.Injections()
		}
		var ledger metrics.Deterministic
		ledger.AddCrawl(tally)
		reg.SetDeterministic(ledger)
		snap := reg.Snapshot()
		switch *metricsOut {
		case "text":
			fmt.Fprint(os.Stderr, snap.Text())
		case "json":
			buf, err := snap.JSON()
			if err != nil {
				fatal(err)
			}
			os.Stderr.Write(buf)
			fmt.Fprintln(os.Stderr)
		default:
			fatal(fmt.Errorf("-metrics must be 'text' or 'json', got %q", *metricsOut))
		}
	}
	fmt.Fprintf(os.Stderr, "crawled %d entries (%d hosts, %d bytes) in %v\n",
		len(archive.Entries), len(archive.Hosts()), archive.TotalBytes(),
		//lint:ignore nondeterminism -- stderr elapsed-time progress line; no archive bytes derive from it
		time.Since(start).Round(time.Millisecond))
	if counts := archive.FailureCounts(); len(counts) > 0 {
		kinds := make([]string, 0, len(counts))
		for k := range counts {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		fmt.Fprintf(os.Stderr, "failures:")
		for _, k := range kinds {
			fmt.Fprintf(os.Stderr, " %s=%d", k, counts[k])
		}
		fmt.Fprintln(os.Stderr)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := archive.WriteJSON(w); err != nil {
		fatal(err)
	}
}

func hostOf(url string) string {
	const prefix = "https://"
	s := url
	if len(s) > len(prefix) && s[:len(prefix)] == prefix {
		s = s[len(prefix):]
	}
	for i := 0; i < len(s); i++ {
		if s[i] == '/' {
			return s[:i]
		}
	}
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "govcrawl:", err)
	os.Exit(1)
}
