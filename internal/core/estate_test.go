package core

import (
	"context"
	"slices"
	"testing"

	"repro/internal/shard"
	"repro/internal/webgen"
)

// TestResumeOfCompleteCheckpointBuildsNoCountry: a resume that loads
// every country from its checkpoint crawls none, so it must build no
// country's page trees — not even for the 14 comparison countries,
// whose topsite crawl still runs.
func TestResumeOfCompleteCheckpointBuildsNoCountry(t *testing.T) {
	cfg := Config{Seed: 42, Scale: 0.02}
	dir := t.TempDir()
	full := cfg
	full.CheckpointDir = dir
	if _, err := NewEnv(full).Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	cfg.CheckpointDir = dir
	cfg.Resume = true
	env := NewEnv(cfg)
	ds, err := env.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if built := env.Estate.BuiltCountries(); len(built) != 0 {
		t.Fatalf("resume of a complete checkpoint built %v", built)
	}
	crawled := map[string]bool{}
	for _, r := range ds.Topsites {
		crawled[r.Country] = true
	}
	if len(crawled) != len(webgen.ComparisonCountries) {
		t.Fatalf("topsite records cover %d countries, want %d", len(crawled), len(webgen.ComparisonCountries))
	}
	if n := len(env.Metrics().Snapshot().Runtime.Countries); n != 0 {
		t.Fatalf("resume recorded %d country timings, want none", n)
	}
}

// TestCountrySubsetBuildsOnlyItsCountry: a one-country study builds
// that country's page trees and no other, and times the build.
func TestCountrySubsetBuildsOnlyItsCountry(t *testing.T) {
	env := NewEnv(Config{Seed: 42, Scale: 0.02, Countries: []string{"PT"}})
	if built := env.Estate.BuiltCountries(); len(built) != 0 {
		t.Fatalf("NewEnv built %v", built)
	}
	if _, err := env.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if built := env.Estate.BuiltCountries(); !slices.Equal(built, []string{"PT"}) {
		t.Fatalf("PT study built %v, want [PT]", built)
	}
	if est := env.Metrics().Snapshot().Runtime.Countries["PT"].Estate; est <= 0 {
		t.Fatalf("PT estate timing = %v, want > 0", est)
	}
}

// TestShardWorkerBuildsOnlyOwnedCountries: each shard worker builds
// exactly the countries it owns, and the assembly pass (topsites
// skipped) builds none.
func TestShardWorkerBuildsOnlyOwnedCountries(t *testing.T) {
	cfg := Config{Seed: 42, Scale: 0.02, Countries: []string{"US", "UY", "NG", "PT", "JP"}, SkipTopsites: true}
	codes := append([]string(nil), cfg.Countries...)
	slices.Sort(codes)
	dir := t.TempDir()
	const shards = 2
	for i := 0; i < shards; i++ {
		w := cfg
		w.CheckpointDir, w.ShardIndex, w.ShardCount = dir, i, shards
		env := NewEnv(w)
		if _, err := env.Run(context.Background()); err != nil {
			t.Fatalf("shard %d/%d: %v", i, shards, err)
		}
		if built, owned := env.Estate.BuiltCountries(), shard.Owned(codes, i, shards); !slices.Equal(built, owned) {
			t.Fatalf("shard %d/%d built %v, want its owned %v", i, shards, built, owned)
		}
	}
	asm := cfg
	asm.CheckpointDir, asm.Resume = dir, true
	env := NewEnv(asm)
	if _, err := env.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if built := env.Estate.BuiltCountries(); len(built) != 0 {
		t.Fatalf("assembly pass built %v", built)
	}
}

// BenchmarkNewEnv measures the environment build at the bench scale;
// page trees are not part of it.
func BenchmarkNewEnv(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewEnv(Config{Seed: 42, Scale: 0.1})
	}
}
