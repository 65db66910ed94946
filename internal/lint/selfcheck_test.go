package lint

import (
	"testing"
)

// TestRepoIsClean runs the whole rule set over the whole module — the
// same check as `go run ./cmd/govlint ./...` — and requires zero
// findings. Every intentional violation must carry a reasoned
// //lint:ignore, so a red result here means either a real regression
// or an unexplained suppression.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	runner, err := NewRunner(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := runner.Loader.ModuleDirs()
	if err != nil {
		t.Fatal(err)
	}
	if err := runner.CheckDirs(dirs, 1); err != nil {
		t.Fatal(err)
	}
	if diags := runner.Diagnostics(); len(diags) > 0 {
		t.Errorf("govlint is not clean on the repository:\n%s", Text(diags))
	}
}

// TestRepoIsCleanParallel is the same whole-module check on a worker
// team — the shape the tier-1 leg actually runs — and doubles as the
// repo-scale race test for the concurrent loader and runner.
func TestRepoIsCleanParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	runner, err := NewRunner(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := runner.Loader.ModuleDirs()
	if err != nil {
		t.Fatal(err)
	}
	if err := runner.CheckDirs(dirs, 8); err != nil {
		t.Fatal(err)
	}
	if diags := runner.Diagnostics(); len(diags) > 0 {
		t.Errorf("govlint (parallel) is not clean on the repository:\n%s", Text(diags))
	}
}
