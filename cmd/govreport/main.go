// Command govreport regenerates the EXPERIMENTS.md body: it runs the
// study at the requested scale and emits a markdown document with one
// paper-vs-measured section per table and figure.
//
// Usage:
//
//	govreport -scale 0.2 > EXPERIMENTS.md
//
//lint:deterministic
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	govhost "repro"
)

func main() {
	var (
		scale = flag.Float64("scale", 0.2, "estate scale")
		seed  = flag.Int64("seed", 42, "study seed")
	)
	flag.Parse()

	//lint:ignore nondeterminism -- elapsed-time footer of the human-readable report; every table above it is seed-deterministic
	start := time.Now()
	study, err := govhost.Run(context.Background(), govhost.Config{Seed: *seed, Scale: *scale})
	if err != nil {
		fmt.Fprintln(os.Stderr, "govreport:", err)
		os.Exit(1)
	}

	fmt.Println("# EXPERIMENTS — paper vs. measured")
	fmt.Println()
	fmt.Printf("Generated by `govreport -scale %g -seed %d` in %v.\n", *scale, *seed,
		//lint:ignore nondeterminism -- elapsed-time footer of the human-readable report; every table above it is seed-deterministic
		time.Since(start).Round(time.Millisecond))
	fmt.Println()
	fmt.Println("The substrate is a synthetic Internet calibrated against the paper's")
	fmt.Println("published findings (see DESIGN.md §2); absolute counts scale with the")
	fmt.Println("`-scale` flag, so shares, rankings and crossovers are the comparison")
	fmt.Println("targets, not raw magnitudes.")
	fmt.Println()
	for _, e := range govhost.Experiments() {
		fmt.Printf("## %s\n\n", e.Title)
		fmt.Println("```")
		fmt.Print(study.Report(e.ID))
		fmt.Println("```")
		fmt.Println()
	}
	fmt.Print(resumeWalkthrough)
	fmt.Println()
	fmt.Print(shardedWalkthrough)
	fmt.Println()
	fmt.Print(servingWalkthrough)
	fmt.Println()
	fmt.Print(lintWalkthrough)
}

// resumeWalkthrough is a static operational appendix: how to survive
// a killed long run. It documents behaviour the chaos suite asserts
// (byte-identical resume), so it does not depend on this run's data.
const resumeWalkthrough = `## Operations — resuming a killed run

Large-scale runs checkpoint per country and resume byte-identically.
A walkthrough, scaled down so the kill is easy to reproduce:

` + "```console" + `
$ go run ./cmd/govhost -scale 0.5 -seed 42 -checkpoint run1/ \
    -dump-jsonl full.jsonl -exp table3
^C                                 # kill it mid-study
$ ls run1/
AE.json AL.json ... manifest.json  # every completed country persisted
$ go run ./cmd/govhost -scale 0.5 -seed 42 -checkpoint run1/ -resume \
    -dump-jsonl resumed.jsonl -exp table3
$ cmp full-uninterrupted.jsonl resumed.jsonl && echo identical
identical
` + "```" + `

What the guarantee covers:

* the manifest pins everything that shapes the bytes (seed, scale,
  panel, fault profile, retry budget, ablations); a resume under any
  other configuration is refused with a mismatch error, and re-using
  the directory without -resume is refused outright;
* loaded countries are not re-crawled — their records, measured stats
  and deterministic metric contributions splice in from disk; the
  remaining countries start with empty caches and resolve or probe
  what they need, which yields the same answers because every
  resolution and verdict is a pure function of the seed; the cache
  and geolocation counters are derived once from the assembled
  dataset, so they match an uninterrupted run;
* the resumed run's JSONL, CSV and deterministic metrics snapshot are
  byte-identical to an uninterrupted same-seed run, even at a
  different -country-concurrency/-fetch-concurrency shape than the killed run
  (the chaos suite kills at every completion boundary and asserts
  exactly this);
* cancellation itself flushes: on ^C every country that finished
  before the signal is drained to the checkpoint directory before the
  process exits.

Re-analysis of a finished export needs no pipeline at all:
` + "`govhost -from-jsonl full.jsonl -exp fig9`" + ` loads the dataset with
its measured per-country statistics preserved verbatim.
`

// shardedWalkthrough is the multi-process companion to the resume
// appendix: the supervised country-sharded mode and its crash
// semantics, all of which the chaos and exec-based suites assert.
const shardedWalkthrough = `## Operations — sharded multi-process runs

The checkpoint directory is also the rendezvous for a supervised
multi-process run: n workers each collect every n-th country of the
sorted panel, and a final assembly pass merges the checkpoints.

` + "```console" + `
$ go run ./cmd/govhost -scale 0.5 -seed 42 -checkpoint run1/ -shards 4 \
    -dump-jsonl sharded.jsonl -exp table3
shard 2/4: worker crashed (exit status 137); restart 1/3 in 350ms
shard 2/4: recovered after 1 restart(s)
$ cmp full-uninterrupted.jsonl sharded.jsonl && echo identical
identical
` + "```" + `

Each worker is this binary re-executed with -shard i/n: it stakes a
lease file (slot-i-of-n.lease, PID + generation) in the directory,
collects only its owned countries, skips the topsites baseline (the
assembly runs it), and checkpoints each country with an embedded
SHA-256. The supervisor restarts crashed workers with capped
seed-jittered backoff; kill -9 a worker and watch it resume from its
own checkpoints. The moving parts are crash-hardened:

* distinct slots of the same shard shape share the directory; a
  second claimant of a live slot, or any run of a different shape, is
  refused — a lease whose owner is dead is taken over with a
  generation bump;
* checkpoint writes are fsynced temp-file renames, and orphaned temp
  files from a previous crash are swept on open;
* a truncated, bit-flipped or misnamed checkpoint is quarantined to
  *.corrupt (counted in shard.checkpoints_quarantined) and its
  country re-runs transparently.

A shard that exhausts its restart budget (-shard-restarts, default 3)
degrades the run instead of aborting it: its uncollected countries
become Failed rows whose FailureReason names the restart budget,
while everything it checkpointed before dying still loads. When all
shards finish, the assembled JSONL, CSV and deterministic metrics are
byte-identical to an uninterrupted single-process run — the chaos
suite asserts this across a kill × corruption × {1,2,4}-shard matrix.
`

// servingWalkthrough is the always-on companion: the govserve daemon,
// its reload semantics and how it is load-tested, all of which the
// serve chaos and exec suites and bench's serve workloads assert.
const servingWalkthrough = `## Operations — serving the analysis under load

A finished study does not have to be re-run (or even re-loaded) per
question: govserve holds it in memory as an immutable snapshot and
serves every index-backed figure and table as HTTP/JSON.

` + "```console" + `
$ go run ./cmd/govhost -scale 0.2 -dump-jsonl study.jsonl -exp table3
$ go run ./cmd/govserve -from-jsonl study.jsonl -addr 127.0.0.1:8080
govserve: listening on http://127.0.0.1:8080 version=82d0f36c478f ...
$ curl -s localhost:8080/api/fig2          # {"version":...,"data":{...}}
$ curl -s 'localhost:8080/api/fig9?kind=location'
$ curl -s 'localhost:8080/api/country?code=UY'
$ curl -s localhost:8080/metrics           # live runtime ledger
$ curl -s -X POST 'localhost:8080/admin/reload?jsonl=other.jsonl'
` + "```" + `

(-from-checkpoint resumes and serves a checkpoint directory; -run
executes the pipeline at startup. SIGHUP re-loads the original
source; SIGTERM drains in-flight requests and exits.)

What the guarantees cover:

* a response body is a pure function of (dataset version, endpoint,
  params) — the version is a content hash of the export bytes, every
  response carries it (X-Dataset-Version and in the envelope), and a
  single-flight per-snapshot cache renders each body exactly once no
  matter how many requests stampede it;
* /admin/reload swaps the snapshot atomically: in-flight requests
  finish on the old snapshot, new requests see the new one, and no
  request ever observes a torn mix of versions (a race-mode chaos
  test hammers the API during concurrent reloads to prove it);
* a reload that fails — checkpoint manifest mismatch, corrupt or
  missing file — answers a typed 409/422 naming the first divergent
  field, and the old snapshot keeps serving;
* every 200 carries a strong ETag (version + a digest of the
  canonical endpoint/params key — equal tags imply byte-equal
  bodies), a matching If-None-Match is answered 304 with no body,
  and the 304s are counted separately in /metrics
  (serve.not_modified).

Load testing lives in the benchmark module. Its serve-hot and
serve-reload workloads start this daemon on a seeded export, drive a
Zipf (s = 1) request mix in an open loop and then a closed one,
byte-check every response against an in-process render of the same
file, and report p50/p99 latency and throughput. serve-reload swaps
the daemon to a second export as its open loop starts:

` + "```console" + `
$ bash bench/run.sh -workload serve-reload -seconds 10
` + "```" + `

A run is correct only with fail_frac 0. BENCH_8.json in the repo
root predates the benchmark module: it came from the load harness
govserve carried before, since retired (20k requests across a live
reload, zero mismatches, zero drops). The exec test
TestServeDaemonExec runs the real daemon process and checks the
conditional leg and a reload fired at a fixed index of a concurrent
seeded run: every 304 has an empty body, every body equals the
render of the version it names, and every request sent after the
reload answered is served by the new version.
`

// lintWalkthrough explains how to read and act on a govlint
// finding — the static half of the determinism contract the tier-1
// verify enforces.
const lintWalkthrough = `## Operations — reading a lint report

The determinism contract is enforced statically by govlint (the
tier-1 leg ` + "`" + `go run ./cmd/govlint ./...` + "`" + `). A clean tree prints nothing
and exits 0; a finding from the whole-program taint pass reads like
this:

` + "`" + `` + "`" + `` + "`" + `console
$ go run ./cmd/govlint ./...
cmd/govcrawl/main.go:102:15: determinism-taint: call to
  dnswire.LookupA transitively reads the wall clock or races an
  ambient timer (main → dnswire.LookupA → dnswire.Exchange →
  time.Now); deterministic packages must derive all timing from
  injected values
cmd/govprobe/main.go:77:14: determinism-taint: call to
  dnswire.LookupA transitively reads the wall clock or races an
  ambient timer (main → dnswire.LookupA → dnswire.Exchange →
  time.Now); deterministic packages must derive all timing from
  injected values
` + "`" + `` + "`" + `` + "`" + `

Read the parenthesized chain right to left: ` + "`" + `time.Now` + "`" + ` is the
forbidden source, ` + "`" + `dnswire.Exchange` + "`" + ` is the helper that reaches it,
` + "`" + `LookupA` + "`" + ` is the call that carries it out of the package, and
` + "`" + `main` + "`" + ` (in a deterministic-tagged package) is the caller being
flagged, once per such caller. The tree is clean because
` + "`" + `Exchange` + "`" + ` carries a barrier: it reads the wall clock only for a
socket deadline when the context carries none, and the bytes it
exchanges are clock-free. Delete that barrier and govlint prints the
findings above. The fix is one of three, in order of preference: inject the
value (pass a timestamp or a seeded generator down the chain), sort
or sanitize the helper (for map-order chains), or — when the effect
genuinely never reaches deterministic output — put
` + "`" + `//lint:ignore determinism-taint -- reason` + "`" + ` on the helper's
declaration, which sanctions every caller at once and is audited: the
barrier becomes a ` + "`" + `stale-ignore` + "`" + ` finding the moment the helper stops
touching the clock.

Machine-readable output and baselines drive the CI surface:

` + "`" + `` + "`" + `` + "`" + `console
$ go run ./cmd/govlint -format json ./...     # stable JSON array
$ go run ./cmd/govlint -format sarif ./... > govlint.sarif
$ go run ./cmd/govlint -write-baseline accepted.json ./...
$ go run ./cmd/govlint -baseline accepted.json ./...  # red only on NEW findings
` + "`" + `` + "`" + `` + "`" + `

Both renderings are byte-identical across runs and ` + "`" + `-j` + "`" + ` worker
counts, so they diff cleanly in CI artifacts. ` + "`" + `-rules` + "`" + ` lists every
check with one-line docs. BENCH_9.json records the analyzer's own
wall times, serial vs parallel, over this repository.
`
