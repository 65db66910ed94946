package main

import (
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	govhost "repro"
	"repro/internal/analysis"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dnssim"
	"repro/internal/export"
	"repro/internal/netsim"
	"repro/internal/serve"
	"repro/internal/webgen"
	"repro/internal/world"
)

// defaultIndexWorkers is the analysis index width the facade and the
// daemon pick when left unset.
const defaultIndexWorkers = 8

// layerPass times every layer once, at the workload's seed and scale,
// through the layer's public entry points: the environment builders in
// core.NewEnv's order, a fresh study with its reports, a checkpointed
// run with an isolated checkpoint.Open and a resume, the JSONL export
// both ways, the index, and the serving snapshot with a cold and a hot
// render of every endpoint key. Each call is a span; the pipeline's
// busy times and counts come from the study's own metrics ledger.
// Times are scaled to the reference speed of the kernel run just
// before; the spans stay as measured.
func layerPass(ctx context.Context, sp *childSpec, tr *tracer, res *childResult) error {
	seed, scale := sp.Seed, sp.Scale
	f := res.speed(3)
	put := func(name string, v float64, unit string) {
		if unit == "ms" || unit == "us" {
			v *= f
		}
		res.Layers[name] = metric{v, unit}
	}
	step := func(name string, fn func()) float64 { return float64(tr.do(0, name, "", fn)) / 1e6 }
	var err error

	var (
		w        *world.Model
		profiles map[string]*world.Profile
		net      *netsim.Net
		estate   *webgen.Estate
	)
	sub := 0.0
	for _, b := range []struct {
		name string
		fn   func()
	}{
		{"world.profiles", func() { w = world.New(); profiles = world.BuildProfiles(w, seed) }},
		{"netsim.build", func() { net = netsim.Build(w, seed) }},
		{"webgen.build", func() { estate = webgen.Build(w, net, profiles, seed, scale) }},
		{"dnssim.build", func() { dnssim.Build(estate, net) }},
	} {
		d := step(b.name, b.fn)
		put(b.name+"_ms", d, "ms")
		sub += d
	}
	newEnv := step("core.newenv", func() { core.NewEnv(core.Config{Seed: seed, Scale: scale}) })
	put("core.newenv_ms", newEnv, "ms")
	put("core.env_residual_ms", newEnv-sub, "ms") // whois, peeringdb, ipinfo, manycast

	cfg := govhost.Config{Seed: seed, Scale: scale}
	var st *govhost.Study
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run := step("govhost.Run", func() { st, err = govhost.Run(ctx, cfg) })
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	put("core.run_ms", run, "ms")
	put("core.run_alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20), "MB")
	snap, _ := st.Metrics()
	pipelineLayers(snap, put)

	// The first report builds the study's lazy analysis index.
	var first, fig5, fig12 float64
	all := step("reports", func() {
		for i, e := range govhost.Experiments() {
			d := float64(tr.do(0, "report:"+e.ID, "reports", func() { st.Report(e.ID) })) / 1e6
			switch {
			case i == 0:
				first = d
			case e.ID == "fig5":
				fig5 = d
			case e.ID == "fig12":
				fig12 = d
			}
		}
	})
	put("report.first_ms", first, "ms")
	put("report.all_ms", all, "ms")
	put("report.fig5_ms", fig5, "ms")
	put("report.fig12_ms", fig12, "ms")

	dir := filepath.Join(sp.Dir, "layers-checkpoint")
	ccfg := cfg
	ccfg.CheckpointDir = dir
	step("govhost.Run(checkpoint)", func() { _, err = govhost.Run(ctx, ccfg) })
	if err != nil {
		return err
	}
	var store *checkpoint.Store
	open := step("checkpoint.open", func() {
		store, _, err = checkpoint.Open(dir, core.StudyManifest(core.Config{Seed: seed, Scale: scale}),
			checkpoint.Options{Resume: true})
	})
	if err != nil {
		return err
	}
	if err := store.Close(); err != nil {
		return err
	}
	ccfg.Resume = true
	resume := step("govhost.Run(resume)", func() { _, err = govhost.Run(ctx, ccfg) })
	if err != nil {
		return err
	}
	put("checkpoint.open_ms", open, "ms")
	put("checkpoint.dir_mb", dirMB(dir), "MB")
	put("core.resume_assemble_ms", resume-open, "ms")

	path := filepath.Join(sp.Dir, "layers.jsonl")
	put("export.write_jsonl_ms", step("export.write_jsonl", func() { err = writeExport(st, path) }), "ms")
	if err != nil {
		return err
	}
	put("export.jsonl_mb", dirMB(path), "MB")
	var ds *dataset.Dataset
	put("export.read_jsonl_ms", step("export.read_jsonl", func() { ds, err = readExport(path) }), "ms")
	if err != nil {
		return err
	}
	put("analysis.index_ms", step("analysis.index", func() { analysis.BuildIndexWorkers(ds, defaultIndexWorkers) }), "ms")
	put("serve.version_ms", step("serve.version", func() { _, err = serve.DatasetVersion(ds) }), "ms")
	if err != nil {
		return err
	}
	var ss *serve.Snapshot
	put("serve.snapshot_ms", step("serve.snapshot", func() { ss, err = serve.NewSnapshotWorkers(ds, "bench", 0) }), "ms")
	if err != nil {
		return err
	}
	keys := serveKeys(ss.Countries())
	render := func() {
		for _, k := range keys {
			ss.Render(k.endpoint, k.query)
		}
	}
	put("serve.render_cold_ms", step("serve.render_cold", render), "ms")
	put("serve.render_hot_us", step("serve.render_hot", render)*1e3/float64(len(keys)), "us")
	return nil
}

// pipelineLayers reads the pipeline's layers from a study's metrics
// ledger. Stage times are busy time summed over concurrently crawled
// countries, not wall time; the counts come from the deterministic
// half and repeat exactly for a seed.
func pipelineLayers(s govhost.MetricsSnapshot, put func(string, float64, string)) {
	rt, det := s.Runtime, s.Deterministic
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	ratio := func(hits, lookups int64) float64 {
		if lookups == 0 {
			return 0
		}
		return float64(hits) / float64(lookups)
	}
	put("core.vantage_busy_ms", ms(rt.Stages["vantage"].Sum), "ms")
	put("crawler.busy_ms", ms(rt.Stages["crawl"].Sum), "ms")
	put("govclass.busy_ms", ms(rt.Stages["classify"].Sum), "ms")
	put("core.annotate_busy_ms", ms(rt.Stages["annotate"].Sum), "ms")
	put("core.topsites_ms", ms(rt.Stages["topsites"].Sum), "ms")
	put("core.records_in_flight_hw", float64(rt.Pipeline.RecordsInFlightHighWater), "count")
	put("sched.tasks", float64(rt.Sched.TasksSubmitted), "count")
	put("sched.queue_wait_ms", ms(rt.Sched.QueueWait.Sum), "ms")
	put("sched.queue_depth_hw", float64(rt.Sched.QueueDepthHighWater), "count")
	put("rescache.lookups", float64(det.Cache.Lookups), "count")
	put("rescache.hit_ratio", ratio(det.Cache.Hits, det.Cache.Lookups), "ratio")
	put("probing.unicast_hit_ratio", ratio(det.Geo.Unicast.Hits, det.Geo.Unicast.Lookups), "ratio")
	put("probing.anycast_hit_ratio", ratio(det.Geo.Anycast.Hits, det.Geo.Anycast.Lookups), "ratio")
	put("crawler.admitted", float64(det.Crawl.FrontierAdmitted), "count")
	put("fetch.attempts", float64(det.Fetch.Attempts), "count")
	put("dataset.records", float64(det.Pipeline.Records), "count")
}

func writeExport(st *govhost.Study, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := st.ExportJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readExport(path string) (*dataset.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return export.ReadJSONL(f)
}

// dirMB is the size of a file, or of every file under a directory.
func dirMB(path string) float64 {
	var n int64
	filepath.WalkDir(path, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return float64(n) / (1 << 20)
}
