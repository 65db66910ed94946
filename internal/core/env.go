// Package core orchestrates the full measurement study: it
// materialises the synthetic environment (world, network, estate, DNS
// zones, WHOIS, PeeringDB, IPInfo, MAnycast2), then runs the paper's
// pipeline — vantage connection and validation, recursive crawling,
// government-URL filtering, serving-infrastructure identification,
// multistage geolocation — and produces the annotated dataset every
// table and figure is computed from.
package core

import (
	"repro/internal/dnssim"
	"repro/internal/faults"
	"repro/internal/geo/ipinfo"
	"repro/internal/geo/manycast"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/peeringdb"
	"repro/internal/probing"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/webgen"
	"repro/internal/whois"
	"repro/internal/world"
)

// Config parameterises a study run.
type Config struct {
	Seed  int64
	Scale float64 // fraction of the paper's estate size (1.0 = full)

	// Countries restricts the study to a subset of panel countries
	// (ISO codes); nil means all 61.
	Countries []string

	// CrawlDepth overrides the §3.2 depth of 7 when positive.
	CrawlDepth int
	// CountryConcurrency bounds how many countries are in flight at
	// once; 0 means 8.
	CountryConcurrency int
	// FetchConcurrency bounds the study-wide fetch/annotate worker
	// pool shared by every crawl; 0 means 8.
	FetchConcurrency int
	// MaxURLsPerCrawl caps the distinct URLs admitted per country
	// crawl (0 = unlimited). Admission is deterministic: the cap cuts
	// a sorted per-depth frontier, so equal seeds crawl equal URL sets.
	MaxURLsPerCrawl int

	// SkipTopsites disables the Appendix D baseline collection.
	SkipTopsites bool

	// TrustIPInfo skips the §3.5 verification stages and takes the
	// commercial database at face value (ablation).
	TrustIPInfo bool
	// GlobalThresholdMS replaces per-country road-distance thresholds
	// with one global value when positive (ablation).
	GlobalThresholdMS float64
	// DisableSAN drops the Table 1 SAN-matching step (ablation).
	DisableSAN bool

	// TrendYears evolves the world forward: each simulated year shifts
	// hosting toward global third parties at the consolidation rate
	// the related work measures (extension).
	TrendYears int

	// FaultProfile enables deterministic fault injection (chaos runs):
	// a named profile ("mild", "aggressive") or a key=value spec per
	// faults.ParseProfile. Empty or "off" runs the healthy world.
	FaultProfile string
	// FaultSeed seeds the fault plan; 0 inherits Seed. Equal fault
	// seeds inject identical faults at any concurrency.
	FaultSeed int64
	// RetryAttempts is the per-URL fetch attempt cap including the
	// first try; 0 means 3, negative disables retries.
	RetryAttempts int
	// RetryBudget caps the retries the whole study may spend (a
	// safety valve against fault storms; retries past it become
	// terminal failures). 0 means unlimited. A binding budget trades
	// byte-reproducibility for bounded cost — leave it unlimited when
	// comparing chaos runs.
	RetryBudget int64

	// CheckpointDir, when set, persists each finished country into the
	// directory as it flushes through the merge sink, so a killed run
	// can restart where it stopped. The directory must be empty (or
	// hold a matching interrupted run, with Resume set).
	CheckpointDir string
	// Resume loads finished countries from CheckpointDir instead of
	// re-running them. The stored manifest must match this
	// configuration; a missing manifest degrades to a fresh start. A
	// resumed run's exports and deterministic metrics are byte-identical
	// to an uninterrupted same-seed run at any concurrency shape.
	Resume bool

	// ShardCount, when positive, puts the run in shard-worker mode: it
	// executes only the countries whose index in the sorted study set ≡
	// ShardIndex (mod ShardCount), checkpointing them into CheckpointDir
	// (required) under lease slot ShardIndex. Workers force SkipTopsites
	// and Resume — the assembly pass runs topsites and a restarted
	// worker must pick up its own earlier progress. The checkpoint
	// manifest pins the full study set, so every worker and the
	// assembly pass share one directory.
	ShardCount int
	// ShardIndex is this worker's shard position in [0, ShardCount).
	ShardIndex int

	// FailCountries names countries the caller knows cannot be
	// collected — the shards that exhausted their supervisor restart
	// budget. A listed country that is not already checkpointed gets a
	// typed Failed stats row (PR-2-style failure accounting) instead of
	// running, so a degraded sharded run yields a partial dataset
	// rather than an abort. Listed countries that did checkpoint load
	// normally.
	FailCountries []string
}

// The §3.5 calibration of the synthetic geolocation sources: the
// fraction of unicast addresses the commercial IPInfo database
// mislocates, and the detection rate of the MAnycast2 snapshot. Both
// are pinned in the checkpoint manifest, so changing either refuses
// directories written under the old value.
const (
	ipinfoErrorRate = 0.03
	manycastRecall  = 0.97
)

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Scale <= 0 {
		c.Scale = 0.1
	}
	c.CountryConcurrency = sched.ResolveWorkers(c.CountryConcurrency)
	c.FetchConcurrency = sched.ResolveWorkers(c.FetchConcurrency)
	if c.FaultSeed == 0 {
		c.FaultSeed = c.Seed
	}
	return c
}

// Env is the fully materialised synthetic environment.
type Env struct {
	Config   Config
	World    *world.Model
	Profiles map[string]*world.Profile
	Net      *netsim.Net
	Estate   *webgen.Estate
	Zones    *dnssim.Zones
	WhoisDB  *whois.DB
	PDB      *peeringdb.Store
	IPInfo   *ipinfo.DB
	Manycast *manycast.Snapshot
	Prober   *probing.Prober

	// Faults is the seeded fault plan for chaos runs; nil (the usual
	// case) runs the healthy world. Run materialises it from
	// Config.FaultProfile when unset, and tests may inject one
	// directly.
	Faults *faults.Plan
	// faultsWired guards the one-time wrap of resolveHost with DNS
	// fault injection, so a re-entrant Run cannot stack injectors.
	faultsWired bool

	// resolutions is the study-wide hostname→(IP, WHOIS) cache shared
	// by every country's annotation pass. Failed lookups are cached too
	// (negative entries), so a bad hostname costs one resolution, not
	// one per URL referencing it.
	resolutions *rescache
	// resolveHost performs one uncached resolution; tests may replace
	// it to observe or fault-inject lookups.
	resolveHost resolveFunc

	// metrics is the study-wide per-stage instrumentation registry:
	// runtime observations from the scheduler, caches and merge sink,
	// and the deterministic ledger Run computes at the end; nil only
	// for loaded studies, which never ran a pipeline.
	metrics *metrics.Registry

	// afterFlush, when set, is called by the merge sink after each
	// country flushes (and, when checkpointing, persists). Tests use it
	// to kill a run at a precise completion boundary.
	afterFlush func(code string)
}

// Metrics exposes the per-stage metrics registry; nil only when the
// Env was reconstructed from a saved dataset.
func (env *Env) Metrics() *metrics.Registry { return env.metrics }

// wireProberMetrics points the prober's coalesce counters at the
// registry's geo slice.
func (env *Env) wireProberMetrics() {
	if env.Prober == nil {
		return
	}
	env.Prober.UnicastCoalesced = &env.metrics.Geo.Unicast.Coalesced
	env.Prober.AnycastCoalesced = &env.metrics.Geo.Anycast.Coalesced
}

// NewEnv builds the environment for a configuration.
func NewEnv(cfg Config) *Env {
	cfg = cfg.withDefaults()
	w := world.New()
	profiles := world.BuildProfiles(w, cfg.Seed)
	world.ApplyTrend(profiles, cfg.TrendYears)
	net := netsim.Build(w, cfg.Seed)
	estate := webgen.Build(w, net, profiles, cfg.Seed, cfg.Scale)
	zones := dnssim.Build(estate, net)

	env := &Env{
		Config:   cfg,
		World:    w,
		Profiles: profiles,
		Net:      net,
		Estate:   estate,
		Zones:    zones,
		WhoisDB:  buildWhois(net),
		PDB:      buildPeeringDB(net),
		IPInfo:   buildIPInfo(w, net, cfg),
		Manycast: buildManycast(net, cfg),
	}
	env.Prober = probing.New(net, w, zones, env.IPInfo, env.Manycast)
	env.Prober.GlobalThresholdMS = cfg.GlobalThresholdMS
	env.metrics = metrics.New()
	env.wireProberMetrics()
	env.resolutions = newRescache(&env.metrics.Cache.Coalesced)
	env.resolveHost = env.zoneResolve
	return env
}

// LoadedEnv wraps a bare world model for studies reconstructed from a
// saved dataset: analyses and reports only consult the world, not the
// synthetic network or estate.
func LoadedEnv(w *world.Model) *Env {
	return &Env{World: w}
}

// buildWhois derives the public registry from the allocation table.
func buildWhois(n *netsim.Net) *whois.DB {
	db := whois.NewDB()
	for _, ap := range n.AllocatedPrefixes() {
		db.Add(whois.Record{
			Prefix:     ap.Prefix,
			NetName:    ap.AS.Name,
			ASN:        ap.AS.ASN,
			Org:        ap.AS.Org,
			Country:    ap.AS.RegCountry,
			Email:      ap.AS.ContactEmail,
			PeeringURL: ap.AS.Website,
		})
	}
	db.Sort()
	return db
}

// buildPeeringDB snapshots the networks that maintain PeeringDB
// records.
func buildPeeringDB(n *netsim.Net) *peeringdb.Store {
	s := peeringdb.NewStore()
	for _, as := range n.ASList {
		if !as.PeeringDB {
			continue
		}
		s.Add(peeringdb.Record{
			ASN: as.ASN, Name: as.Name, Org: as.Org,
			Website: as.Website, Note: as.PeeringNote,
		})
	}
	return s
}

// buildIPInfo derives the commercial geolocation database: unicast
// addresses are correct except for ipinfoErrorRate of them; anycast
// addresses are pinned to the operator's home country, the classic
// commercial-database failure mode.
func buildIPInfo(w *world.Model, n *netsim.Net, cfg Config) *ipinfo.DB {
	db := ipinfo.New()
	r := rng.New(cfg.Seed, "ipinfo-errors")
	codes := w.SortedCodes()
	for _, h := range n.HostList {
		var e ipinfo.Entry
		e.Org = h.AS.Org
		if h.Anycast {
			e.Country = h.Provider.Home
		} else {
			e.Country = h.Country
			if r.Float64() < ipinfoErrorRate {
				e.Country = codes[r.Intn(len(codes))]
			}
		}
		db.Put(h.Addr, e)
	}
	return db
}

// buildManycast snapshots anycast detection at manycastRecall.
func buildManycast(n *netsim.Net, cfg Config) *manycast.Snapshot {
	s := manycast.New()
	r := rng.New(cfg.Seed, "manycast")
	for _, h := range n.HostList {
		if h.Anycast && r.Float64() < manycastRecall {
			s.Mark(h.Addr)
		}
	}
	return s
}
