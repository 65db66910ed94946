// Package cluster implements hierarchical agglomerative clustering
// with Ward's minimum-variance linkage, as used in §5.3 to group
// countries by their hosting-strategy signatures (Fig. 5). Merges are
// found with the nearest-neighbor-chain algorithm — O(n²) over flat
// arrays instead of the O(n³) global-minimum scan over a distance map
// — and linked in the order the chain finds them, each node's children
// oriented as the global-minimum algorithm would place them, so the
// dendrogram (structure, leaf order, cuts) is unchanged. The result
// can be cut into k branches, and leaves are returned in dendrogram
// order for display.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Node is a dendrogram node: either a leaf (Left == Right == nil) or a
// merge of two sub-clusters at a given height.
type Node struct {
	Label       string // leaf label
	Left, Right *Node
	Height      float64 // merge distance (Ward criterion)
	Size        int     // number of leaves underneath
}

// Leaf reports whether the node is a leaf.
func (n *Node) Leaf() bool { return n.Left == nil && n.Right == nil }

// Leaves returns the labels under the node in dendrogram order.
func (n *Node) Leaves() []string {
	if n == nil {
		return nil
	}
	if n.Leaf() {
		return []string{n.Label}
	}
	return append(n.Left.Leaves(), n.Right.Leaves()...)
}

// merge is one recorded agglomeration: the chain-cluster ids of its
// children (leaves are 0..n-1, the m-th merge is n+m) and the Ward
// distance at which they joined.
type merge struct {
	left, right int
	height      float64
}

// Ward clusters the rows of points (observations × features) labelled
// by labels and returns the dendrogram root.
//
// The merges are discovered by the nearest-neighbor-chain algorithm:
// follow nearest-neighbor links (ties broken toward the chain
// predecessor, then the smallest index) until a reciprocal pair
// appears, merge it, and continue from the remaining chain. Ward
// linkage is reducible, so a merge never invalidates the links below
// it on the chain and the discovered merge set equals the
// global-minimum algorithm's. Distances live in one flat n×n array
// updated in place via the Lance–Williams recurrence.
func Ward(labels []string, points [][]float64) (*Node, error) {
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
	n := len(labels)
	if n == 1 {
		return &Node{Label: labels[0], Size: 1}, nil
	}

	// Squared-Euclidean distance matrix; Ward initial distances are
	// d²/2-ish but proportionality is all the dendrogram shape needs —
	// we use the standard "d² between singletons" convention.
	d := make([]float64, n*n)
	for i := range points {
		for j := i + 1; j < n; j++ {
			var v float64
			for f := 0; f < dim; f++ {
				diff := points[i][f] - points[j][f]
				v += diff * diff
			}
			d[i*n+j], d[j*n+i] = v, v
		}
	}

	alive := make([]bool, n)
	size := make([]float64, n)
	clusterOf := make([]int, n) // representative index → chain-cluster id
	for i := 0; i < n; i++ {
		alive[i], size[i], clusterOf[i] = true, 1, i
	}

	merges := make([]merge, 0, n-1)
	chain := make([]int, 0, n)
	lowest := 0 // lowest index that may still be alive, for chain restarts
	for len(merges) < n-1 {
		if len(chain) == 0 {
			for !alive[lowest] {
				lowest++
			}
			chain = append(chain, lowest)
		}
		for {
			top := chain[len(chain)-1]
			prev := -1
			if len(chain) >= 2 {
				prev = chain[len(chain)-2]
			}
			// Nearest alive neighbor of top: minimum distance, ties to
			// the smallest index, then to the chain predecessor (the
			// predecessor preference is what guarantees termination
			// under exact ties).
			row := d[top*n : top*n+n]
			nn, best := -1, math.Inf(1)
			for k := 0; k < n; k++ {
				if !alive[k] || k == top {
					continue
				}
				if row[k] < best {
					nn, best = k, row[k]
				}
			}
			if prev >= 0 && row[prev] == best {
				nn = prev
			}
			if nn != prev {
				chain = append(chain, nn)
				continue
			}
			// top and prev are reciprocal nearest neighbors: merge them.
			a, b := prev, top
			if b < a {
				a, b = b, a
			}
			sa, sb := size[a], size[b]
			h := d[a*n+b]
			// Lance–Williams update for Ward linkage, folded into the
			// surviving representative's row/column.
			for k := 0; k < n; k++ {
				if !alive[k] || k == a || k == b {
					continue
				}
				sk := size[k]
				tot := sa + sb + sk
				ai := (sa + sk) / tot
				aj := (sb + sk) / tot
				g := -sk / tot
				nd := ai*d[a*n+k] + aj*d[b*n+k] + g*h
				d[a*n+k], d[k*n+a] = nd, nd
			}
			alive[b] = false
			size[a] = sa + sb
			merges = append(merges, merge{left: clusterOf[a], right: clusterOf[b], height: h})
			clusterOf[a] = n + len(merges) - 1
			chain = chain[:len(chain)-2]
			break
		}
	}
	return buildDendrogram(labels, merges), nil
}

// buildDendrogram links the recorded merges in the order the chain
// discovered them. Each node's children are oriented the way the
// global-minimum algorithm numbers clusters, lower number on the left:
// a leaf before a merge, leaves by input index, merges by height and
// then by their smallest leaf index.
func buildDendrogram(labels []string, merges []merge) *Node {
	n := len(labels)
	nodes := make([]*Node, n+len(merges)) // chain-cluster id → node
	first := make([]int, n+len(merges))   // chain-cluster id → smallest leaf index
	for i := 0; i < n; i++ {
		nodes[i] = &Node{Label: labels[i], Size: 1}
		first[i] = i
	}
	before := func(a, b int) bool {
		na, nb := nodes[a], nodes[b]
		if na.Leaf() != nb.Leaf() {
			return na.Leaf()
		}
		if na.Height != nb.Height {
			return na.Height < nb.Height
		}
		return first[a] < first[b]
	}
	for m, mg := range merges {
		l, r := mg.left, mg.right
		if before(r, l) {
			l, r = r, l
		}
		id := n + m
		nodes[id] = &Node{Left: nodes[l], Right: nodes[r], Height: mg.height, Size: nodes[l].Size + nodes[r].Size}
		first[id] = min(first[l], first[r])
	}
	return nodes[len(nodes)-1]
}

// Cut slices the dendrogram into k clusters by repeatedly splitting
// the highest merge. Each returned cluster is its leaf-label set in
// dendrogram order.
func Cut(root *Node, k int) [][]string {
	if root == nil || k < 1 {
		return nil
	}
	nodes := []*Node{root}
	for len(nodes) < k {
		// Split the node with the greatest merge height.
		idx := -1
		best := -1.0
		for i, n := range nodes {
			if !n.Leaf() && n.Height > best {
				best, idx = n.Height, i
			}
		}
		if idx < 0 {
			break // all leaves
		}
		n := nodes[idx]
		nodes = append(nodes[:idx], nodes[idx+1:]...)
		nodes = append(nodes, n.Left, n.Right)
	}
	// Order clusters by their first leaf's dendrogram position.
	pos := map[string]int{}
	for i, l := range root.Leaves() {
		pos[l] = i
	}
	sort.Slice(nodes, func(i, j int) bool {
		return pos[nodes[i].Leaves()[0]] < pos[nodes[j].Leaves()[0]]
	})
	out := make([][]string, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, n.Leaves())
	}
	return out
}

// Render draws the dendrogram as indented ASCII, for reports.
func Render(root *Node) string {
	var b strings.Builder
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		indent := strings.Repeat("  ", depth)
		if n.Leaf() {
			fmt.Fprintf(&b, "%s- %s\n", indent, n.Label)
			return
		}
		fmt.Fprintf(&b, "%s+ h=%.4f (%d leaves)\n", indent, n.Height, n.Size)
		walk(n.Left, depth+1)
		walk(n.Right, depth+1)
	}
	walk(root, 0)
	return b.String()
}
