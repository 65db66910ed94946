package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestLedgerGolden pins the absolute bytes of the deterministic ledger
// for four study shapes, topsites included. The fresh-vs-resume and
// cross-concurrency suites only compare runs of one build with each
// other, so a drift shared by every path would pass them; these
// goldens catch it. They were generated once and are never rewritten
// by the test: a mismatch is a ledger change to explain, not to
// regenerate away.
func TestLedgerGolden(t *testing.T) {
	withTopsites := func(edit func(*Config)) Config {
		cfg := chaosConfig()
		cfg.SkipTopsites = false
		edit(&cfg)
		return cfg
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"chaos", withTopsites(func(*Config) {})},
		{"chaos_trustipinfo", withTopsites(func(c *Config) { c.TrustIPInfo = true })},
		{"off", withTopsites(func(c *Config) { c.FaultProfile = "off" })},
		{"servfail", withTopsites(func(c *Config) { c.FaultProfile = "servfail=0.9" })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, snap := runWithMetrics(t, tc.cfg)
			got, err := snap.DeterministicJSON()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "ledger_"+tc.name+".json")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("deterministic ledger differs from %s:\ngot:\n%s", path, got)
			}
			if tc.name == "servfail" && snap.Deterministic.Cache.NegativeEntries == 0 {
				t.Error("servfail=0.9 failed no resolution; the golden pins no negative entries")
			}
		})
	}
}
