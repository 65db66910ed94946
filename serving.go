package govhost

import (
	"context"
	"fmt"
	"os"

	"repro/internal/export"
	"repro/internal/serve"
)

// NewServeSnapshot freezes a completed study into a serving snapshot
// for the govserve daemon.
func NewServeSnapshot(st *Study, desc string) (*serve.Snapshot, error) {
	return serve.NewSnapshotWorkers(st.ds, desc, 0)
}

// ServeSnapshotFromJSONL loads an exported study file into a serving
// snapshot. The snapshot's version is a pure function of the file's
// canonical export bytes, so a client holding the same file computes
// the same version the daemon will claim. The file is parsed once and
// handed straight to the snapshot build, which fills the totals and
// builds the index; this is the critical path of daemon startup and
// /admin/reload.
func ServeSnapshotFromJSONL(path string) (*serve.Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("govhost: %w", err)
	}
	defer f.Close()
	ds, err := export.ReadJSONL(f)
	if err != nil {
		return nil, fmt.Errorf("govhost: %w", err)
	}
	return serve.NewSnapshotWorkers(ds, "jsonl:"+path, 0)
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
	return serve.NewSnapshotWorkers(st.ds, "checkpoint:"+cfg.CheckpointDir, 0)
}

// ServeReloader wires the daemon's /admin/reload (and SIGHUP) to the
// study loaders. cfg supplies the manifest-relevant knobs a
// checkpoint reload must match; JSONL reloads ignore it.
func ServeReloader(cfg Config) serve.ReloadFunc {
	return func(ctx context.Context, src serve.Source) (*serve.Snapshot, error) {
		switch src.Kind {
		case "jsonl":
			return ServeSnapshotFromJSONL(src.Path)
		case "checkpoint":
			c := cfg
			c.CheckpointDir = src.Path
			return ServeSnapshotFromCheckpoint(ctx, c)
		}
		return nil, fmt.Errorf("govhost: unknown reload source kind %q", src.Kind)
	}
}
