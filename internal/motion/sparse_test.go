package motion

import (
	"fmt"
	"math"
	"testing"

	"anomalia/internal/sets"
	"anomalia/internal/stats"
)

// sameGraph fails the test unless the two graphs agree on vertices,
// every edge, every degree, and clique membership of sampled id sets —
// the full accessor surface the rest of the module reads adjacency
// through.
func sameGraph(t *testing.T, label string, rng *stats.RNG, got, want *Graph) {
	t.Helper()
	sameAdjacency(t, label, got, want)
	for _, id := range want.Ids() {
		if g, w := got.Degree(id), want.Degree(id); g != w {
			t.Fatalf("%s: Degree(%d) = %d, want %d", label, id, g, w)
		}
	}
	if got.Degree(-1) != -1 || got.Degree(1<<30) != -1 {
		t.Fatalf("%s: Degree of non-vertex is not -1", label)
	}
	// IsClique parity on sampled sets: actual motions (cliques by
	// construction), random id sets, and sets with a non-vertex.
	ids := want.Ids()
	for trial := 0; trial < 20; trial++ {
		size := 1 + rng.Intn(5)
		sample := make([]int, size)
		for i := range sample {
			sample[i] = ids[rng.Intn(len(ids))]
		}
		if g, w := got.IsClique(sample), want.IsClique(sample); g != w {
			t.Fatalf("%s: IsClique(%v) = %v, want %v", label, sample, g, w)
		}
	}
	if got.IsClique([]int{ids[0], -7}) {
		t.Fatalf("%s: IsClique accepted a non-vertex", label)
	}
}

// MaximalMotionsContainingSets is MaximalMotionsContaining returning
// each motion also as a bitset over graph-local indices, resolved
// through Local (a map, the identity, or a binary search over the ids,
// depending on the graph's mode and population). Element i of both
// slices describes the same motion.
func (g *Graph) MaximalMotionsContainingSets(j int) ([][]int, []*sets.Bits) {
	ids := g.MaximalMotionsContaining(j)
	locals := make([]*sets.Bits, len(ids))
	for i, mo := range ids {
		locals[i] = g.toLocal(mo)
	}
	return ids, locals
}

// sameMotionFamilies fails unless every motion-enumeration entry point
// agrees between the two graphs, including the graph-local index form
// of MaximalMotionsContainingSets (which must round-trip to the same
// ids in both adjacency modes).
func sameMotionFamilies(t *testing.T, label string, got, want *Graph) {
	t.Helper()
	gm, wm := got.MaximalMotions(), want.MaximalMotions()
	if !sameFamily(gm, wm) {
		t.Fatalf("%s: MaximalMotions disagree:\n got %v\nwant %v", label, gm, wm)
	}
	gd := got.MaximalMotionsDegeneracy()
	if !sameFamily(gd, wm) {
		t.Fatalf("%s: MaximalMotionsDegeneracy disagrees:\n got %v\nwant %v", label, gd, wm)
	}
	for _, j := range want.Ids() {
		gids, gbits := got.MaximalMotionsContainingSets(j)
		wids, _ := want.MaximalMotionsContainingSets(j)
		if !sameFamily(gids, wids) {
			t.Fatalf("%s: MaximalMotionsContaining(%d) disagree:\n got %v\nwant %v", label, j, gids, wids)
		}
		for i, mo := range gids {
			back := got.toIds(gbits[i])
			if len(back) != len(mo) {
				t.Fatalf("%s: device %d motion %d: bitset has %d members, ids %d", label, j, i, len(back), len(mo))
			}
			for k := range mo {
				if back[k] != mo[k] {
					t.Fatalf("%s: device %d motion %d: bitset %v != ids %v", label, j, i, back, mo)
				}
			}
		}
	}
}

// TestSparseMatchesDense: the CSR-backed graph must agree with the
// all-pairs dense oracle on the full read API and every enumeration,
// across radii edge cases, dimensions, and the placements of the
// grid-vs-allpairs harness (uniform, clustered, boundary-snapped,
// coincident) — plus sparse id subsets and worker counts from 1 to
// beyond the cell count.
func TestSparseMatchesDense(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(20260728)
	radii := []float64{0, 1e-9, 0.001, 0.01, 0.03, 0.1, 0.2499999}
	for trial := 0; trial < 18; trial++ {
		n := 260 + rng.Intn(160)
		d := 1 + rng.Intn(3)
		r := radii[trial%len(radii)]

		var pair *Pair
		switch trial % 3 {
		case 0: // uniform over the whole hypercube
			pair = randomPair(t, rng, n, d, 1.0)
		case 1: // clustered into a tight box so cells are crowded
			pair = randomPair(t, rng, n, d, math.Max(4*r, 0.05))
		default: // boundary-snapped with motion across the window
			pair = boundaryPair(t, rng, n, d, r, 3*r+1e-6)
		}
		for j := 0; j+1 < n; j += n / 4 {
			if err := pair.Prev.Set(j+1, pair.Prev.At(j)); err != nil {
				t.Fatal(err)
			}
			if err := pair.Cur.Set(j+1, pair.Cur.At(j)); err != nil {
				t.Fatal(err)
			}
		}

		label := fmt.Sprintf("trial %d (n=%d d=%d r=%v)", trial, n, d, r)
		ids := allIds(n)
		oracle := newGraphAllPairs(pair, ids, r)
		workers := 1 + trial%5
		sparse := newGraphSparse(pair, ids, r, workers)
		if !sparse.Sparse() {
			t.Fatalf("%s: forced sparse build is not in sparse mode", label)
		}
		sameGraph(t, label, rng, sparse, oracle)
		sameMotionFamilies(t, label, sparse, oracle)

		// Sparse id subsets (the realistic abnormal-set shape) must agree
		// too, including out-of-range ids that both builds discard.
		subset := make([]int, 0, n/2)
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.5 {
				subset = append(subset, j)
			}
		}
		subset = append(subset, -3, n+17)
		sameGraph(t, label+" subset", rng,
			newGraphSparse(pair, subset, r, workers), newGraphAllPairs(pair, subset, r))
	}
}

// TestSparseMatchesDenseHighDimension: when the geometry rules the grid
// walk out, the sparse build must stripe an all-pairs scan and still
// agree with the dense oracle.
func TestSparseMatchesDenseHighDimension(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(17)
	n := 300
	pair := randomPair(t, rng, n, 9, 0.25)
	r := 0.05
	oracle := newGraphAllPairs(pair, allIds(n), r)
	for _, workers := range []int{1, 3} {
		sparse := newGraphSparse(pair, allIds(n), r, workers)
		if !sparse.Sparse() {
			t.Fatal("forced sparse build is not in sparse mode")
		}
		sameGraph(t, fmt.Sprintf("high-dim workers=%d", workers), rng, sparse, oracle)
		sameMotionFamilies(t, fmt.Sprintf("high-dim workers=%d", workers), sparse, oracle)
	}
}

// TestSparseHasDenseMotionContaining: parity of the Theorem-7 primitive
// across representations, over random allowed sets and thresholds.
func TestSparseHasDenseMotionContaining(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(4242)
	for trial := 0; trial < 12; trial++ {
		n := 260 + rng.Intn(100)
		r := []float64{0.02, 0.05, 0.1}[trial%3]
		pair := randomPair(t, rng, n, 2, math.Max(6*r, 0.2))
		ids := allIds(n)
		oracle := newGraphAllPairs(pair, ids, r)
		sparse := newGraphSparse(pair, ids, r, 1+trial%4)
		for probe := 0; probe < 30; probe++ {
			j := rng.Intn(n)
			allowed := make([]int, 0, n/3)
			for v := 0; v < n; v++ {
				if rng.Float64() < 0.3 {
					allowed = append(allowed, v)
				}
			}
			tau := 1 + rng.Intn(4)
			g := sparse.HasDenseMotionContaining(j, allowed, tau)
			w := oracle.HasDenseMotionContaining(j, allowed, tau)
			if g != w {
				t.Fatalf("trial %d: HasDenseMotionContaining(%d, |allowed|=%d, tau=%d) = %v, want %v",
					trial, j, len(allowed), tau, g, w)
			}
		}
	}
}

// TestNewGraphCrossoverBoundary pins the production dispatch at the
// dense/sparse crossover: one vertex below sparseMinVertices NewGraph
// stays dense, at it NewGraph goes sparse, and both sides agree with
// the dense grid build on the full API.
func TestNewGraphCrossoverBoundary(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("crossover graphs are thousands of vertices")
	}

	rng := stats.NewRNG(555)
	r := 0.01
	for _, n := range []int{sparseMinVertices - 1, sparseMinVertices} {
		pair := randomPair(t, rng, n, 2, 1.0)
		g := NewGraph(pair, allIds(n), r)
		wantSparse := n >= sparseMinVertices
		if g.Sparse() != wantSparse {
			t.Fatalf("n=%d: Sparse() = %v, want %v", n, g.Sparse(), wantSparse)
		}
		oracle := newGraphGrid(pair, allIds(n), r)
		label := fmt.Sprintf("crossover n=%d", n)
		sameAdjacency(t, label, g, oracle)
		for _, id := range []int{0, 1, n / 2, n - 1} {
			if gd, wd := g.Degree(id), oracle.Degree(id); gd != wd {
				t.Fatalf("%s: Degree(%d) = %d, want %d", label, id, gd, wd)
			}
			gm := g.MaximalMotionsContaining(id)
			wm := oracle.MaximalMotionsContaining(id)
			if !sameFamily(gm, wm) {
				t.Fatalf("%s: MaximalMotionsContaining(%d) disagree", label, id)
			}
		}
	}
}

// TestSparseEmptyAndTinyGraphs: the sparse machinery must tolerate the
// degenerate shapes the production dispatch never sends it.
func TestSparseEmptyAndTinyGraphs(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(3)
	pair := randomPair(t, rng, 8, 2, 0.1)
	empty := newGraphSparse(pair, nil, 0.05, 2)
	if empty.Len() != 0 {
		t.Fatalf("empty sparse graph has %d vertices", empty.Len())
	}
	if got := empty.MaximalMotionsDegeneracy(); len(got) != 0 {
		t.Fatalf("empty sparse graph enumerated %v", got)
	}
	one := newGraphSparse(pair, []int{3}, 0.05, 4)
	if got := one.MaximalMotions(); len(got) != 1 || len(got[0]) != 1 || got[0][0] != 3 {
		t.Fatalf("singleton sparse graph enumerated %v", got)
	}
	if !one.Adjacent(3, 3) || one.Adjacent(3, 4) {
		t.Fatal("singleton adjacency wrong")
	}
}
