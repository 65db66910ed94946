package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// wardReference is the pre-NN-chain implementation, kept verbatim as
// the oracle: a global-minimum scan over a distance map with
// Lance–Williams updates. The production Ward must reproduce its
// dendrogram — structure, leaf order, cuts — exactly, and its merge
// heights up to float round-off (the chain discovers the same merges
// through a different arithmetic order).
func wardReference(labels []string, points [][]float64) (*Node, error) {
	if len(labels) != len(points) {
		return nil, errors.New("cluster: labels/points length mismatch")
	}
	if len(labels) == 0 {
		return nil, errors.New("cluster: empty input")
	}
	dim := len(points[0])
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("cluster: row %d has %d features, want %d", i, len(p), dim)
		}
	}

	type cl struct {
		node *Node
		size float64
	}
	active := make(map[int]*cl, len(labels))
	for i, l := range labels {
		active[i] = &cl{node: &Node{Label: l, Size: 1}, size: 1}
	}

	dist := make(map[[2]int]float64)
	key := func(a, b int) [2]int {
		if a > b {
			a, b = b, a
		}
		return [2]int{a, b}
	}
	for i := range points {
		for j := i + 1; j < len(points); j++ {
			var d float64
			for f := 0; f < dim; f++ {
				diff := points[i][f] - points[j][f]
				d += diff * diff
			}
			dist[key(i, j)] = d
		}
	}

	next := len(labels)
	for len(active) > 1 {
		// Find the closest active pair, with deterministic tie-breaks.
		ids := make([]int, 0, len(active))
		for id := range active {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		bi, bj := -1, -1
		best := math.Inf(1)
		for x := 0; x < len(ids); x++ {
			for y := x + 1; y < len(ids); y++ {
				d := dist[key(ids[x], ids[y])]
				if d < best {
					best, bi, bj = d, ids[x], ids[y]
				}
			}
		}
		a, b := active[bi], active[bj]
		merged := &cl{
			node: &Node{
				Left: a.node, Right: b.node,
				Height: best,
				Size:   a.node.Size + b.node.Size,
			},
			size: a.size + b.size,
		}
		delete(active, bi)
		delete(active, bj)
		for _, id := range ids {
			if id == bi || id == bj {
				continue
			}
			k := active[id]
			dik := dist[key(bi, id)]
			djk := dist[key(bj, id)]
			dij := best
			ai := (a.size + k.size) / (a.size + b.size + k.size)
			aj := (b.size + k.size) / (a.size + b.size + k.size)
			g := -k.size / (a.size + b.size + k.size)
			dist[key(next, id)] = ai*dik + aj*djk + g*dij
		}
		active[next] = merged
		next++
	}
	for _, c := range active {
		return c.node, nil
	}
	return nil, errors.New("cluster: unreachable")
}

// sameDendrogram compares two dendrograms node by node: identical
// shape, labels, sizes and left/right orientation, with merge heights
// equal to within a 1e-9 relative tolerance (the NN-chain and the
// global-minimum scan evaluate the same Lance–Williams recurrence in
// different orders, so the low bits may differ).
func sameDendrogram(a, b *Node) error {
	if (a == nil) != (b == nil) {
		return fmt.Errorf("nil mismatch: %v vs %v", a, b)
	}
	if a == nil {
		return nil
	}
	if a.Leaf() != b.Leaf() {
		return fmt.Errorf("leaf/merge mismatch at %q vs %q", a.Label, b.Label)
	}
	if a.Label != b.Label || a.Size != b.Size {
		return fmt.Errorf("label/size mismatch: %q/%d vs %q/%d", a.Label, a.Size, b.Label, b.Size)
	}
	scale := math.Max(math.Abs(a.Height), math.Abs(b.Height))
	if diff := math.Abs(a.Height - b.Height); diff > 1e-9*math.Max(scale, 1) {
		return fmt.Errorf("height mismatch: %g vs %g", a.Height, b.Height)
	}
	if a.Leaf() {
		return nil
	}
	if err := sameDendrogram(a.Left, b.Left); err != nil {
		return err
	}
	return sameDendrogram(a.Right, b.Right)
}

// TestWardMatchesReferenceQuick is the NN-chain equivalence property:
// on seeded random inputs the production Ward and the retained
// global-minimum reference produce the same dendrogram — heights (to
// round-off), leaf order, and every k-cut.
func TestWardMatchesReferenceQuick(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(39)
		dim := 1 + r.Intn(5)
		labels := make([]string, n)
		points := make([][]float64, n)
		for i := 0; i < n; i++ {
			labels[i] = fmt.Sprintf("L%02d", i)
			row := make([]float64, dim)
			for f := range row {
				row[f] = r.NormFloat64() * 10
			}
			points[i] = row
		}

		got, err := Ward(labels, points)
		if err != nil {
			t.Logf("seed %d: Ward error: %v", seed, err)
			return false
		}
		want, err := wardReference(labels, points)
		if err != nil {
			t.Logf("seed %d: reference error: %v", seed, err)
			return false
		}
		if err := sameDendrogram(got, want); err != nil {
			t.Logf("seed %d (n=%d dim=%d): %v\ngot:\n%swant:\n%s",
				seed, n, dim, err, Render(got), Render(want))
			return false
		}
		if !reflect.DeepEqual(got.Leaves(), want.Leaves()) {
			t.Logf("seed %d: leaf order diverged", seed)
			return false
		}
		for k := 1; k <= n; k++ {
			if !reflect.DeepEqual(Cut(got, k), Cut(want, k)) {
				t.Logf("seed %d: cut k=%d diverged", seed, k)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestWardMatchesReferenceTiedInputs pins the tie-prone integer grids
// the semantic quick test generates: duplicate and collinear points
// force exact distance ties, where the chain may legitimately discover
// merges in a different order. The linking must still deliver a
// dendrogram whose cuts partition the leaves identically to the
// reference's cuts at every k that separates cleanly.
func TestWardMatchesReferenceTiedInputs(t *testing.T) {
	labels := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	points := make([][]float64, len(labels))
	for i := range points {
		s := i * 13
		points[i] = []float64{float64(s % 97), float64(s % 31), float64(s % 7)}
	}
	got, err := Ward(labels, points)
	if err != nil {
		t.Fatal(err)
	}
	want, err := wardReference(labels, points)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameDendrogram(got, want); err != nil {
		t.Fatalf("tied-input dendrogram diverged: %v\ngot:\n%swant:\n%s",
			err, Render(got), Render(want))
	}
}
