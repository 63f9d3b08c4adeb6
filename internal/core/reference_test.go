package core

import (
	"fmt"
	"reflect"
	"testing"

	"anomalia/internal/motion"
	"anomalia/internal/sets"
	"anomalia/internal/space"
	"anomalia/internal/stats"
)

// referenceVerdict is everything the naive reference derives for one
// device: the verdict, W̄_k(j), D_k(j) with its J_k(j)/L_k(j) split, and
// the cost counters of the cheap mode.
type referenceVerdict struct {
	Class   Class
	Rule    Rule
	Dense   [][]int
	D, J, L []int
	Cost    Cost
}

// referenceClassify is a deliberately naive, cache-free re-implementation
// of Algorithm 3 (Theorems 5 and 6 only), used for differential testing
// of the optimized Characterizer. It re-enumerates motions from scratch
// at every step and follows the paper's text literally: J_k(j) is built
// by scanning every maximal motion of every ℓ ∈ D_k(j), with no counting
// shortcut, so it pins the J/L contents independently of the
// characterizer's counting pass.
func referenceClassify(g *motion.Graph, j, tau int) referenceVerdict {
	var v referenceVerdict

	// W̄_k(j): maximal τ-dense motions containing j.
	family := g.MaximalMotionsContaining(j)
	v.Cost.MaximalMotions = len(family)
	for _, m := range family {
		if len(m) > tau {
			v.Dense = append(v.Dense, m)
		}
	}
	v.Cost.DenseMotions = len(v.Dense)
	if len(v.Dense) == 0 {
		v.Class, v.Rule = ClassIsolated, RuleTheorem5
		return v
	}

	// D_k(j), then J_k(j) by the literal definition: ℓ ∈ J iff every
	// maximal dense motion of ℓ contains j; L_k(j) is the rest of D_k(j).
	for _, m := range v.Dense {
		v.D = sets.UnionInts(v.D, m)
	}
	v.Cost.NeighborsScanned = len(v.D) - 1
	for _, l := range v.D {
		inJ := true
		for _, m := range g.MaximalMotionsContaining(l) {
			if len(m) > tau && !sets.ContainsInt(m, j) {
				inJ = false
				break
			}
		}
		if inJ {
			v.J = append(v.J, l)
		} else {
			v.L = append(v.L, l)
		}
	}

	// Theorem 6 literal form: ∃B ∈ W_k(j) (any dense motion containing j)
	// with B ⊆ J_k(j). Equivalent to a dense motion containing j inside
	// J_k(j).
	if g.HasDenseMotionContaining(j, v.J, tau) {
		v.Class, v.Rule = ClassMassive, RuleTheorem6
	} else {
		v.Class, v.Rule = ClassUnresolved, RuleNone
	}
	return v
}

// checkAgainstReference fails unless the characterizer's cheap-mode
// result for j matches the naive reference in verdict, rule, W̄_k(j),
// the J_k/L_k split and the cost counters. Empty and nil sets compare
// equal. It returns the reference verdict.
func checkAgainstReference(t *testing.T, label string, c *Characterizer, g *motion.Graph, j, tau int) referenceVerdict {
	t.Helper()
	got, err := c.Characterize(j)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceClassify(g, j, tau)
	if got.Class != want.Class || got.Rule != want.Rule {
		t.Fatalf("%s device %d: optimized (%v,%v) != reference (%v,%v)",
			label, j, got.Class, got.Rule, want.Class, want.Rule)
	}
	if !reflect.DeepEqual(got.Dense, want.Dense) {
		t.Fatalf("%s device %d: Dense %v != reference %v", label, j, got.Dense, want.Dense)
	}
	if !sameIntSet(got.J, want.J) || !sameIntSet(got.L, want.L) {
		t.Fatalf("%s device %d: J/L %v / %v != reference %v / %v (D_k %v)",
			label, j, got.J, got.L, want.J, want.L, want.D)
	}
	if got.Cost != want.Cost {
		t.Fatalf("%s device %d: cost %+v != reference %+v", label, j, got.Cost, want.Cost)
	}
	return want
}

// sameIntSet compares two sorted id lists, treating nil and empty alike.
func sameIntSet(a, b []int) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// TestDifferentialAgainstReference compares the optimized cheap-mode
// characterizer with the naive reference on random windows: verdicts,
// W̄_k(j), the J_k/L_k split and the cost counters.
func TestDifferentialAgainstReference(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(31337)
	split := 0
	for trial := 0; trial < 50; trial++ {
		n := 8 + rng.Intn(25)
		pair := randomPair(t, rng, n, 1+rng.Intn(2), 0.2+0.3*rng.Float64())
		tau := 1 + rng.Intn(3)
		const r = 0.05

		c, err := New(pair, allIds(n), Config{R: r, Tau: tau})
		if err != nil {
			t.Fatal(err)
		}
		g := motion.NewGraph(pair, allIds(n), r)
		for _, j := range allIds(n) {
			if v := checkAgainstReference(t, fmt.Sprintf("trial %d", trial), c, g, j, tau); len(v.L) > 0 {
				split++
			}
		}
	}
	if split == 0 {
		t.Fatal("no device had a non-empty L_k; the windows do not exercise the J/L split")
	}
}

// chainPair places n devices along a jittered horizontal chain: each
// sits within 2r of its next few chain neighbours at both times and far
// beyond 2r of everyone else, so the motion graph is one connected,
// edge-sparse component of n vertices whose maximal motions are short,
// overlapping runs of consecutive devices — a geometry in which many
// devices have dense motions that their neighbours' motions bypass.
func chainPair(t testing.TB, rng *stats.RNG, n int, step float64) *motion.Pair {
	t.Helper()
	prev, err := space.NewState(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := space.NewState(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	jitter := func(f float64) float64 { return (rng.Float64() - 0.5) * f * step }
	for i := 0; i < n; i++ {
		x, y := 0.05+float64(i)*step+jitter(0.8), 0.5+jitter(1)
		if err := prev.Set(i, space.Point{x, y}); err != nil {
			t.Fatal(err)
		}
		if err := cur.Set(i, space.Point{x + jitter(0.6), y + jitter(0.6)}); err != nil {
			t.Fatal(err)
		}
	}
	pair, err := motion.NewPair(prev, cur)
	if err != nil {
		t.Fatal(err)
	}
	return pair
}

// TestDifferentialSparseAnchored runs the J/L oracle in the
// representation used at scale: a CSR-mode window whose single
// component is larger than motion's component-densify threshold (4096),
// so the characterizer reads its motions from the anchored per-vertex
// enumeration. A sample of devices is checked against the naive
// reference.
func TestDifferentialSparseAnchored(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("anchored-enumeration window is thousands of devices")
	}

	const n = 4500 // > motion's component-densify threshold (4096)
	const step = 0.0002
	const r = 1.6 * step // consecutive devices always adjacent, chain neighbours ~3 deep
	const tau = 2
	rng := stats.NewRNG(5150)
	pair := chainPair(t, rng, n, step)
	g := motion.NewGraph(pair, allIds(n), r)
	if !g.Sparse() {
		t.Fatal("chain fixture expected a sparse-mode graph")
	}
	if cs := g.Components(); cs.Count() != 1 {
		t.Fatalf("chain fixture split into %d components", cs.Count())
	}
	c := newCharacterizer(pair, allIds(n), Config{R: r, Tau: tau}, g)
	split, massive := 0, 0
	for k := 0; k < 60; k++ {
		v := checkAgainstReference(t, "sparse anchored", c, g, rng.Intn(n), tau)
		if len(v.L) > 0 {
			split++
		}
		if v.Class == ClassMassive {
			massive++
		}
	}
	if split == 0 || massive == 0 {
		t.Fatalf("sample had %d devices with non-empty L_k and %d massive; the fixture does not exercise the J/L split", split, massive)
	}
}

// TestDifferentialTheorem6Equivalence: the |M ∩ J| > τ implementation of
// Theorem 6 agrees with the subset form B ⊆ J searched directly.
func TestDifferentialTheorem6Equivalence(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(2718)
	for trial := 0; trial < 40; trial++ {
		n := 8 + rng.Intn(15)
		pair := randomPair(t, rng, n, 2, 0.15)
		const r, tau = 0.05, 2
		c, err := New(pair, allIds(n), Config{R: r, Tau: tau})
		if err != nil {
			t.Fatal(err)
		}
		g := motion.NewGraph(pair, allIds(n), r)
		for _, j := range allIds(n) {
			res, err := c.Characterize(j)
			if err != nil {
				t.Fatal(err)
			}
			if res.Rule == RuleTheorem5 {
				continue
			}
			// Direct subset search within J.
			direct := g.HasDenseMotionContaining(j, res.J, tau)
			viaIntersection := res.Rule == RuleTheorem6
			if direct != viaIntersection {
				t.Fatalf("trial %d device %d: subset form %v, intersection form %v (J=%v dense=%v)",
					trial, j, direct, viaIntersection, res.J, res.Dense)
			}
		}
	}
}
