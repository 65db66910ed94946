package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestErrorsCarryOnePrefix builds govhost and drives it into errors
// from each source: a flag check in main, a saved dataset Load
// refuses, and a checkpoint directory that a plain run, a shard worker
// and a supervisor each refuse under another seed. Every error must
// reach stderr with the "govhost:" prefix exactly once.
func TestErrorsCarryOnePrefix(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the govhost binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "govhost")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	ck := filepath.Join(dir, "ck")
	study := []string{"-scale", "0.01", "-countries", "UY", "-no-topsites", "-quiet", "-exp", "table3", "-checkpoint", ck}
	if out, err := exec.Command(bin, append([]string{"-seed", "42"}, study...)...).CombinedOutput(); err != nil {
		t.Fatalf("seed-42 run: %v\n%s", err, out)
	}
	bad := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(bad, []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Full slice expressions: each case appends to its own copy.
	mismatch := append([]string{"-seed", "43", "-resume"}, study...)
	mismatch = mismatch[:len(mismatch):len(mismatch)]
	for name, c := range map[string]struct {
		args []string
		want string
	}{
		"flag check":   {[]string{"-resume"}, "-resume requires -checkpoint"},
		"load":         {[]string{"-from-jsonl", bad, "-quiet"}, "not a govhost dataset"},
		"run":          {mismatch, "manifest mismatch"},
		"shard worker": {append(mismatch, "-shard", "0/1"), "manifest mismatch"},
		"sharded run":  {append(mismatch, "-shards", "1"), "manifest mismatch"},
	} {
		cmd := exec.Command(bin, c.args...)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		if err := cmd.Run(); err == nil {
			t.Errorf("%s: exit 0, want an error", name)
			continue
		}
		msg := stderr.String()
		if !strings.HasPrefix(msg, "govhost: ") || strings.Count(msg, "govhost:") != 1 || !strings.Contains(msg, c.want) {
			t.Errorf("%s: stderr %q, want one \"govhost:\" prefix and %q", name, msg, c.want)
		}
	}
}
