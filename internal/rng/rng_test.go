package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeriveDeterministic(t *testing.T) {
	if Derive(42, "a") != Derive(42, "a") {
		t.Fatal("Derive is not deterministic")
	}
	if Derive(42, "a") == Derive(42, "b") {
		t.Fatal("Derive ignores the label")
	}
	if Derive(42, "a") == Derive(43, "a") {
		t.Fatal("Derive ignores the seed")
	}
}

func TestNewIndependentStreams(t *testing.T) {
	a, b := New(1, "x"), New(1, "y")
	same := 0
	for i := 0; i < 32; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different labels overlap: %d identical draws", same)
	}
}

func TestPickRespectsWeights(t *testing.T) {
	r := New(7, "pick")
	counts := [3]int{}
	weights := []float64{0.7, 0.2, 0.1}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[Pick(r, weights)]++
	}
	for i, w := range weights {
		got := float64(counts[i]) / n
		if math.Abs(got-w) > 0.02 {
			t.Errorf("weight %d: got %.3f, want %.3f±0.02", i, got, w)
		}
	}
}

func TestPickDegenerateInputs(t *testing.T) {
	r := New(7, "degenerate")
	if got := Pick(r, []float64{0, 0, 0}); got != 0 {
		t.Errorf("zero weights: got %d, want 0", got)
	}
	if got := Pick(r, []float64{5}); got != 0 {
		t.Errorf("single weight: got %d, want 0", got)
	}
}

func TestPickInBoundsQuick(t *testing.T) {
	r := New(7, "bounds")
	f := func(ws [5]uint8) bool {
		weights := make([]float64, len(ws))
		for i, w := range ws {
			weights[i] = float64(w)
		}
		idx := Pick(r, weights)
		return idx >= 0 && idx < len(weights)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(11, "lognormal")
	for i := 0; i < 1000; i++ {
		if v := LogNormal(r, 5, 1); v <= 0 {
			t.Fatalf("LogNormal returned non-positive %v", v)
		}
	}
}

func TestLogNormalMedianNearExpMu(t *testing.T) {
	r := New(11, "lognormal-median")
	var below, above int
	mu := 4.0
	for i := 0; i < 5000; i++ {
		if LogNormal(r, mu, 0.9) < math.Exp(mu) {
			below++
		} else {
			above++
		}
	}
	ratio := float64(below) / float64(below+above)
	if ratio < 0.45 || ratio > 0.55 {
		t.Fatalf("median check failed: %.3f below exp(mu)", ratio)
	}
}
