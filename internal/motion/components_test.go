package motion

import (
	"fmt"
	"reflect"
	"testing"

	"anomalia/internal/sets"
	"anomalia/internal/space"
	"anomalia/internal/stats"
)

// TestComponentsDecomposition: the decomposition must agree with a
// union-find oracle, number components by smallest vertex, keep member
// lists sorted, and assign ranks consistent with the member lists.
func TestComponentsDecomposition(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(909)
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.Intn(60)
		pair := randomPair(t, rng, n, 2, 0.4)
		r := 0.02 + 0.06*rng.Float64()
		g := NewGraph(pair, allIds(n), r)
		cs := g.Components()

		// Union-find oracle over the adjacency.
		parent := make([]int, n)
		for i := range parent {
			parent[i] = i
		}
		var find func(int) int
		find = func(v int) int {
			if parent[v] != v {
				parent[v] = find(parent[v])
			}
			return parent[v]
		}
		for v := 0; v < n; v++ {
			g.forNeighbors(v, func(u int) bool {
				parent[find(v)] = find(u)
				return true
			})
		}
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				same := find(a) == find(b)
				if got := cs.Of(a) == cs.Of(b); got != same {
					t.Fatalf("trial %d: Of(%d)==Of(%d) = %v, oracle %v", trial, a, b, got, same)
				}
			}
		}

		// Numbering by smallest member, ascending; sorted members; ranks.
		prevMin := -1
		seen := 0
		for c := 0; c < cs.Count(); c++ {
			verts := cs.Verts(c)
			if len(verts) != cs.Size(c) || len(verts) == 0 {
				t.Fatalf("trial %d: component %d size mismatch", trial, c)
			}
			if int(verts[0]) <= prevMin {
				t.Fatalf("trial %d: components not numbered by smallest vertex", trial)
			}
			prevMin = int(verts[0])
			for i, v := range verts {
				if i > 0 && verts[i-1] >= v {
					t.Fatalf("trial %d: component %d members not sorted", trial, c)
				}
				if cs.Of(int(v)) != c || cs.Rank(int(v)) != i {
					t.Fatalf("trial %d: vertex %d misfiled", trial, v)
				}
			}
			seen += len(verts)
		}
		if seen != n || len(cs.AllVerts()) != n {
			t.Fatalf("trial %d: decomposition covers %d of %d vertices", trial, seen, n)
		}
		for c := 0; c < cs.Count(); c++ {
			if int(cs.AllVerts()[cs.Offset(c)]) != int(cs.Verts(c)[0]) {
				t.Fatalf("trial %d: Offset(%d) misaligned", trial, c)
			}
		}
	}
}

// TestWholeGraphComponent: the identity decomposition must be a single
// component with identity ranks — the reference-oracle contract.
func TestWholeGraphComponent(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(11)
	pair := randomPair(t, rng, 25, 2, 0.4)
	g := NewGraph(pair, allIds(25), 0.05)
	cs := g.WholeGraphComponent()
	if cs.Count() != 1 || cs.Size(0) != 25 {
		t.Fatalf("Count/Size = %d/%d", cs.Count(), cs.Size(0))
	}
	for v := 0; v < 25; v++ {
		if cs.Of(v) != 0 || cs.Rank(v) != v || int(cs.Verts(0)[v]) != v {
			t.Fatalf("vertex %d not identity-mapped", v)
		}
	}

	empty := NewGraph(pair, nil, 0.05)
	if got := empty.WholeGraphComponent().Count(); got != 0 {
		t.Fatalf("empty graph Count = %d", got)
	}
}

// MaximalMotionsContainingIn is the per-device reference for the
// component enumeration: MaximalMotionsContaining(j) with every motion
// also projected into the component-rank space of j's component under
// cs. Every member of a motion containing j shares j's component, so
// the projection loses nothing.
func (g *Graph) MaximalMotionsContainingIn(j int, cs *Components) ([][]int, []sets.Sorted) {
	ids := g.MaximalMotionsContaining(j)
	ranks := make([]sets.Sorted, len(ids))
	for i, mo := range ids {
		for _, id := range mo {
			li, _ := g.Local(id)
			ranks[i] = append(ranks[i], cs.rank[li])
		}
	}
	return ids, ranks
}

// AppendIds appends the device ids of the component-rank list ranks of
// component c to dst, in increasing id order, and returns the extended
// slice.
func (cs *Components) AppendIds(ranks sets.Sorted, c int, dst []int) []int {
	verts := cs.Verts(c)
	for _, r := range ranks {
		dst = append(dst, cs.g.ids[verts[r]])
	}
	return dst // ranks follow sorted vertex order, so ids come out sorted
}

// checkRankLists fails unless every rank list of component c is sorted,
// inside the component's rank space, and names exactly the devices of
// the id list reported beside it.
func checkRankLists(t *testing.T, label string, cs *Components, c int, moIds [][]int, moRanks []sets.Sorted) {
	t.Helper()
	if len(moIds) != len(moRanks) {
		t.Fatalf("%s: %d id lists but %d rank lists", label, len(moIds), len(moRanks))
	}
	for mi, ranks := range moRanks {
		for k, r := range ranks {
			if r < 0 || int(r) >= cs.Size(c) || (k > 0 && ranks[k-1] >= r) {
				t.Fatalf("%s: motion %d rank list %v malformed for a %d-member component", label, mi, ranks, cs.Size(c))
			}
		}
		if back := cs.AppendIds(ranks, c, nil); !reflect.DeepEqual(back, moIds[mi]) {
			t.Fatalf("%s: motion %d rank list names %v, id list %v", label, mi, back, moIds[mi])
		}
	}
}

// familyOf filters a component family down to the motions whose rank
// lists contain rank.
func familyOf(moIds [][]int, moRanks []sets.Sorted, rank int) ([][]int, []sets.Sorted) {
	var ids [][]int
	var ranks []sets.Sorted
	for mi := range moIds {
		if moRanks[mi].Has(int32(rank)) {
			ids = append(ids, moIds[mi])
			ranks = append(ranks, moRanks[mi])
		}
	}
	return ids, ranks
}

// TestMaximalMotionsOfComponentMatchesPerDevice: the one-shot component
// enumeration must serve every member exactly the family the per-device
// enumeration reports — same id sets, same order, same rank lists.
func TestMaximalMotionsOfComponentMatchesPerDevice(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(2024)
	for trial := 0; trial < 25; trial++ {
		n := 8 + rng.Intn(50)
		pair := randomPair(t, rng, n, 2, 0.4)
		r := 0.03 + 0.05*rng.Float64()
		g := NewGraph(pair, allIds(n), r)
		cs := g.Components()
		for c := 0; c < cs.Count(); c++ {
			moIds, moRanks := g.MaximalMotionsOfComponent(c, cs)
			for _, mo := range moIds {
				if !g.IsClique(mo) {
					t.Fatalf("trial %d: reported non-clique %v", trial, mo)
				}
			}
			checkRankLists(t, fmt.Sprintf("trial %d component %d", trial, c), cs, c, moIds, moRanks)
			for i, v := range cs.Verts(c) {
				id := g.IDOf(int(v))
				wantIds, wantRanks := g.MaximalMotionsContainingIn(id, cs)
				gotIds, gotRanks := familyOf(moIds, moRanks, i)
				if !reflect.DeepEqual(gotIds, wantIds) {
					t.Fatalf("trial %d device %d: component family %v != per-device %v",
						trial, id, gotIds, wantIds)
				}
				if !reflect.DeepEqual(gotRanks, wantRanks) {
					t.Fatalf("trial %d device %d: component rank lists %v != per-device %v",
						trial, id, gotRanks, wantRanks)
				}
			}
		}
	}
}

// TestMaximalMotionsOfComponentDenseOversized drives the oversized-
// component path of a dense-mode graph — the shape the density-adaptive
// build produces for edge-dense mass events (m above sparseMinVertices
// with a denseWorthwhile edge count) and that the CSR-only anchored
// fallback used to panic on. Devices are coincident at prev and sit in
// three group spots at cur, consecutive spots within 2r and the outer
// pair beyond it, so the single component of 3·group vertices carries
// exactly two maximal motions: groups 0∪1 and 1∪2.
func TestMaximalMotionsOfComponentDenseOversized(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("oversized dense component needs thousands of vertices")
	}

	const group = 1500
	n := 3 * group // > componentDenseMax
	r := 0.002
	prev, err := space.NewState(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := space.NewState(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := prev.Set(i, space.Point{0.2, 0.5}); err != nil {
			t.Fatal(err)
		}
		// Spot spacing 1.5r: adjacent spots within 2r, outer pair at 3r.
		x := 0.2 + float64(i/group)*1.5*r
		if err := cur.Set(i, space.Point{x, 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	pair, err := NewPair(prev, cur)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGraph(pair, allIds(n), r)
	if g.Sparse() {
		t.Fatal("edge-dense fixture expected a dense-mode graph")
	}
	cs := g.Components()
	if cs.Count() != 1 || cs.Size(0) != n {
		t.Fatalf("fixture split into %d components", cs.Count())
	}
	moIds, moRanks := g.MaximalMotionsOfComponent(0, cs)
	if len(moIds) != 2 {
		t.Fatalf("%d maximal motions, want the 2 overlapping group pairs", len(moIds))
	}
	checkRankLists(t, "dense oversized", cs, 0, moIds, moRanks)
	for mi, lo := range []int{0, group} {
		mo := moIds[mi]
		if len(mo) != 2*group || mo[0] != lo || mo[len(mo)-1] != lo+2*group-1 {
			t.Fatalf("motion %d spans [%d..%d] (%d devices), want [%d..%d]",
				mi, mo[0], mo[len(mo)-1], len(mo), lo, lo+2*group-1)
		}
		if !g.IsClique(mo) {
			t.Fatalf("motion %d is not a clique", mi)
		}
		rk := moRanks[mi]
		if len(rk) != 2*group || rk[0] != int32(lo) || rk[len(rk)-1] != int32(lo+2*group-1) {
			t.Fatalf("motion %d rank list malformed", mi)
		}
	}
	// The component family must serve each member exactly its per-device
	// family: a group-0 device (first motion only), a shared group-1
	// device (both), and a group-2 device (second only).
	for _, id := range []int{0, n / 2, n - 1} {
		wantIds, wantRanks := g.MaximalMotionsContainingIn(id, cs)
		li, _ := g.Local(id)
		gotIds, gotRanks := familyOf(moIds, moRanks, cs.Rank(li))
		if !reflect.DeepEqual(gotIds, wantIds) {
			t.Fatalf("device %d: component family differs from per-device family", id)
		}
		if !reflect.DeepEqual(gotRanks, wantRanks) {
			t.Fatalf("device %d: component rank lists differ from per-device rank lists", id)
		}
	}
}

// TestMaximalMotionsOfComponentAnchored drives the oversized-component
// path (anchored per-vertex enumeration): a chain of devices spaced so
// that only consecutive devices are adjacent forms one component larger
// than componentDenseMax whose maximal cliques are exactly the
// consecutive pairs.
func TestMaximalMotionsOfComponentAnchored(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("chain component needs thousands of vertices")
	}

	n := componentDenseMax + 150
	r := 0.00002
	step := 1.5 * r // within 2r of neighbours, beyond 2r of anyone else
	prev, err := space.NewState(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := space.NewState(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		p := space.Point{0.1 + float64(i)*step, 0.5}
		if err := prev.Set(i, p); err != nil {
			t.Fatal(err)
		}
		if err := cur.Set(i, p); err != nil {
			t.Fatal(err)
		}
	}
	pair, err := NewPair(prev, cur)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGraph(pair, allIds(n), r)
	if !g.Sparse() {
		t.Fatal("chain fixture expected a sparse-mode graph")
	}
	cs := g.Components()
	if cs.Count() != 1 || cs.Size(0) != n {
		t.Fatalf("chain split into %d components", cs.Count())
	}
	moIds, moRanks := g.MaximalMotionsOfComponent(0, cs)
	if len(moIds) != n-1 {
		t.Fatalf("%d maximal motions, want %d consecutive pairs", len(moIds), n-1)
	}
	checkRankLists(t, "anchored chain", cs, 0, moIds, moRanks)
	for i, mo := range moIds {
		if len(mo) != 2 || mo[0] != i || mo[1] != i+1 {
			t.Fatalf("motion %d = %v, want [%d %d]", i, mo, i, i+1)
		}
		if rk := moRanks[i]; len(rk) != 2 || rk[0] != int32(i) || rk[1] != int32(i+1) {
			t.Fatalf("motion %d rank list %v malformed", i, rk)
		}
	}
}
