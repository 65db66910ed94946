// Package rng provides deterministic, hierarchically derivable random
// number generators for the synthetic world model.
//
// Every component of the simulation derives its own generator from a
// single study seed plus a string label, so adding randomness to one
// component never perturbs the stream consumed by another. This keeps
// the whole reproduction bit-for-bit stable across runs and across
// incremental changes to unrelated modules.
package rng

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
)

// Derive returns a sub-seed deterministically derived from seed and label.
func Derive(seed int64, label string) int64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(seed))
	h.Write(buf[:])
	h.Write([]byte(label))
	return int64(h.Sum64())
}

// New returns a *rand.Rand seeded from Derive(seed, label).
func New(seed int64, label string) *rand.Rand {
	return rand.New(rand.NewSource(Derive(seed, label)))
}

// Pick returns a weighted random index into weights. Weights must be
// non-negative; if they sum to zero, Pick returns 0.
func Pick(r *rand.Rand, weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return 0
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// LogNormal draws a log-normally distributed value with the given
// location mu and scale sigma (parameters of the underlying normal).
func LogNormal(r *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}
