package govhost

import (
	"context"
	"fmt"
	"os"

	"repro/internal/serve"
)

// NewServeSnapshot freezes a completed study into a serving snapshot
// for the govserve daemon. The study's AnalysisWorkers knob shapes
// how many goroutines the index build uses; the snapshot bytes are
// identical at any setting.
func NewServeSnapshot(st *Study, desc string) (*serve.Snapshot, error) {
	return serve.NewSnapshotWorkers(st.ds, desc, st.cfg.AnalysisWorkers)
}

// ServeSnapshotFromJSONLWorkers loads an exported study file into a
// serving snapshot. The snapshot's version is a pure function of the
// file's canonical export bytes, so a client holding the same file
// computes the same version the daemon will claim. workers is the
// index-build worker count (0 or negative picks the default of 8).
// Any value yields byte-identical snapshots; the knob trades only the
// build's wall-clock time, which is the critical path of daemon
// startup and /admin/reload.
func ServeSnapshotFromJSONLWorkers(path string, workers int) (*serve.Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("govhost: %w", err)
	}
	defer f.Close()
	st, err := Load(f)
	if err != nil {
		return nil, err
	}
	return serve.NewSnapshotWorkers(st.ds, "jsonl:"+path, workers)
}

// ServeSnapshotFromCheckpoint resumes cfg's study from its checkpoint
// directory — completing any unfinished countries — and freezes the
// result. A directory whose manifest diverges from cfg surfaces the
// typed checkpoint mismatch, which the daemon maps to 409.
func ServeSnapshotFromCheckpoint(ctx context.Context, cfg Config) (*serve.Snapshot, error) {
	cfg.Resume = true
	st, err := Run(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return serve.NewSnapshotWorkers(st.ds, "checkpoint:"+cfg.CheckpointDir, cfg.AnalysisWorkers)
}

// ServeReloader wires the daemon's /admin/reload (and SIGHUP) to the
// study loaders. cfg supplies the manifest-relevant knobs a
// checkpoint reload must match; JSONL reloads ignore it.
func ServeReloader(cfg Config) serve.ReloadFunc {
	return func(ctx context.Context, src serve.Source) (*serve.Snapshot, error) {
		switch src.Kind {
		case "jsonl":
			return ServeSnapshotFromJSONLWorkers(src.Path, cfg.AnalysisWorkers)
		case "checkpoint":
			c := cfg
			c.CheckpointDir = src.Path
			return ServeSnapshotFromCheckpoint(ctx, c)
		}
		return nil, fmt.Errorf("govhost: unknown reload source kind %q", src.Kind)
	}
}
