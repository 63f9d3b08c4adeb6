package core

import (
	"fmt"
	"slices"

	"anomalia/internal/sets"
)

// Characterize classifies device j, running the paper's Algorithm 3 and,
// when Config.Exact is set and Theorem 6 is inconclusive, Algorithm 4/5.
func (c *Characterizer) Characterize(j int) (Result, error) {
	if !sets.ContainsInt(c.abnormal, j) {
		return Result{}, fmt.Errorf("device %d: %w", j, ErrNotAbnormal)
	}
	res := Result{Device: j}

	// Line 2-3 of Algorithm 3: maximal motions of j, then W̄_k(j).
	lj, _ := c.graph.Local(j)
	comp := c.comps.Of(lj)
	entries := c.componentEntries(comp)
	ent := entries[c.comps.Rank(lj)]
	res.Cost.MaximalMotions = ent.total
	res.Cost.DenseMotions = len(ent.ids)
	res.Dense = ent.ids

	// Theorem 5: no dense motion -> isolated.
	if len(ent.ids) == 0 {
		res.Class = ClassIsolated
		res.Rule = RuleTheorem5
		return res, nil
	}

	// One counting pass over j's own dense motions yields D_k(j) and,
	// per ℓ ∈ D_k(j), cnt[ℓ] = #{M ∈ W̄_k(j) : ℓ ∈ M}. Every maximal
	// dense motion containing both ℓ and j is one of j's own, so ℓ ∈
	// J_k(j) — all of W̄_k(ℓ) contains j — exactly when cnt[ℓ] =
	// |W̄_k(ℓ)|. The work is Σ|M| over W̄_k(j), whatever the width of
	// j's component. Component ranks follow sorted device ids, so the
	// sorted rank list of D_k(j) materializes J and L in id order.
	sc := countPool.Get().(*countScratch)
	defer countPool.Put(sc)
	sc.reset(len(entries))
	for _, mo := range ent.ranks {
		for _, r := range mo {
			if sc.bump(r) {
				sc.dk = append(sc.dk, r)
			}
		}
	}
	slices.Sort(sc.dk)
	res.Cost.NeighborsScanned = len(sc.dk) - 1 // D_k(j) \ {j}
	nJ := 0
	for _, r := range sc.dk {
		if s := &sc.slots[r]; int(s.cnt) == len(entries[r].ranks) {
			s.cnt = inJ
			nJ++
		}
	}
	verts := c.comps.Verts(comp)
	split := make([]int, len(sc.dk))
	res.J, res.L = split[:0:nJ], split[nJ:nJ]
	for _, r := range sc.dk {
		id := c.graph.IDOf(int(verts[r]))
		if sc.slots[r].cnt == inJ {
			res.J = append(res.J, id)
		} else {
			res.L = append(res.L, id)
		}
	}

	// Theorem 6 (lines 17-18 of Algorithm 3): a dense motion of j inside
	// J_k(j) proves massive. |M ∩ J| > τ suffices because M ∩ J is itself
	// a motion (subset of the clique M) containing j.
	for _, mo := range ent.ranks {
		in := 0
		for _, r := range mo {
			if sc.slots[r].cnt == inJ {
				in++
			}
		}
		if in > c.cfg.Tau {
			res.Class = ClassMassive
			res.Rule = RuleTheorem6
			return res, nil
		}
	}

	if !c.cfg.Exact {
		res.Class = ClassUnresolved
		res.Rule = RuleNone
		return res, nil
	}

	// Algorithms 4/5: exhaustive collection search deciding between
	// Theorem 7 (massive) and Corollary 8 (unresolved). The search works
	// on sorted id slices; D_k is materialized into pooled scratch (the
	// search reads it only for the duration of the call).
	for _, r := range sc.dk {
		sc.dkIds = append(sc.dkIds, c.graph.IDOf(int(verts[r])))
	}
	violating, tested, err := c.searchViolating(j, sc.dkIds, res.L)
	res.Cost.CollectionsTested = tested
	if err != nil {
		return res, err
	}
	if violating {
		res.Class = ClassUnresolved
		res.Rule = RuleCorollary8
	} else {
		res.Class = ClassMassive
		res.Rule = RuleTheorem7
	}
	return res, nil
}

// inJ replaces the (positive) count of a D_k(j) member found in J_k(j).
const inJ = -1

// CharacterizeAll classifies every abnormal device, in id order.
func (c *Characterizer) CharacterizeAll() ([]Result, error) {
	out := make([]Result, 0, len(c.abnormal))
	for _, j := range c.abnormal {
		res, err := c.Characterize(j)
		if err != nil {
			return nil, fmt.Errorf("characterizing device %d: %w", j, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// Sets groups results into the M_k / I_k / U_k decomposition.
type Sets struct {
	Massive    []int
	Isolated   []int
	Unresolved []int
}

// Decompose runs CharacterizeAll and folds the verdicts into sets.
func (c *Characterizer) Decompose() (Sets, error) {
	results, err := c.CharacterizeAll()
	if err != nil {
		return Sets{}, err
	}
	var s Sets
	for _, r := range results {
		switch r.Class {
		case ClassMassive:
			s.Massive = append(s.Massive, r.Device)
		case ClassIsolated:
			s.Isolated = append(s.Isolated, r.Device)
		default:
			s.Unresolved = append(s.Unresolved, r.Device)
		}
	}
	return s, nil
}
