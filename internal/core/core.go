// Package core implements the paper's primary contribution (Section V):
// local decision procedures that let every abnormal device classify the
// anomaly that hit it as isolated, massive, or unresolved, with exactly
// the accuracy of an omniscient observer.
//
//   - Theorem 5 (NSC for I_k): j is isolated iff no τ-dense motion
//     contains it.
//   - Theorem 6 (sufficient for M_k): j is massive if one of its maximal
//     dense motions lies inside J_k(j), the neighbours whose every maximal
//     dense motion also contains j.
//   - Theorem 7 (NSC for M_k) / Corollary 8 (NSC for U_k): j is massive
//     iff no collection of pairwise-disjoint dense motions anchored at
//     L_k(j) can simultaneously starve all of j's dense motions
//     (relation 4) while never being extensible by j (relation 5).
//
// The procedures are the paper's Algorithms 3 (characterize) and 4/5
// (fullcharacterize). Everything a device needs lives within distance 4r
// of its own trajectory; TestLocality4r verifies that claim.
package core

import (
	"errors"
	"fmt"
	"sync"

	"anomalia/internal/motion"
	"anomalia/internal/sets"
)

// Class is the verdict a device reaches about the anomaly that hit it.
type Class int

// Possible verdicts. ClassUnknown is the zero value and never returned by
// a successful characterization.
const (
	ClassUnknown Class = iota
	// ClassIsolated: the error affected at most τ devices in every
	// admissible scenario (j ∈ I_k).
	ClassIsolated
	// ClassMassive: the error affected more than τ devices in every
	// admissible scenario (j ∈ M_k).
	ClassMassive
	// ClassUnresolved: admissible scenarios disagree (j ∈ U_k).
	ClassUnresolved
)

// String renders the class for logs and tables.
func (c Class) String() string {
	switch c {
	case ClassIsolated:
		return "isolated"
	case ClassMassive:
		return "massive"
	case ClassUnresolved:
		return "unresolved"
	default:
		return "unknown"
	}
}

// Rule identifies which result of the paper produced a verdict.
type Rule int

// Decision rules, in the order Algorithm 3 applies them.
const (
	RuleNone Rule = iota
	// RuleTheorem5 decided via W̄_k(j) = ∅ (isolated).
	RuleTheorem5
	// RuleTheorem6 decided via a dense motion inside J_k(j) (massive).
	RuleTheorem6
	// RuleCorollary8 found a violating collection (unresolved).
	RuleCorollary8
	// RuleTheorem7 exhausted all collections (massive).
	RuleTheorem7
)

// String names the rule as in the paper.
func (r Rule) String() string {
	switch r {
	case RuleTheorem5:
		return "theorem5"
	case RuleTheorem6:
		return "theorem6"
	case RuleCorollary8:
		return "corollary8"
	case RuleTheorem7:
		return "theorem7"
	default:
		return "none"
	}
}

var (
	// ErrNotAbnormal is returned when characterizing a device outside A_k.
	ErrNotAbnormal = errors.New("core: device is not abnormal")
	// ErrBudget is returned when the Theorem 7 collection search exceeds
	// its node budget.
	ErrBudget = errors.New("core: exact search exceeded its budget")
	// ErrConfig is returned for invalid configurations.
	ErrConfig = errors.New("core: invalid configuration")
)

// Config parameterizes a characterizer.
type Config struct {
	// R is the consistency impact radius, in [0, 1/4).
	R float64
	// Tau is the density threshold separating isolated from massive
	// anomalies (Definition 4), in [1, n-1].
	Tau int
	// Exact enables the full NSC (Theorem 7 / Corollary 8, Algorithms 4
	// and 5) when Theorem 6 is inconclusive. When false, inconclusive
	// devices are reported unresolved by RuleNone — the cheap mode whose
	// miss rate Table II bounds at ~0.4%.
	Exact bool
	// Budget caps the number of collection-search nodes per device in
	// exact mode; 0 means DefaultBudget.
	Budget int
}

// DefaultBudget bounds the exact-search effort per device.
const DefaultBudget = 10_000_000

// Cost records the work a device spent deciding, mirroring the counters
// of Table III.
type Cost struct {
	// MaximalMotions is |M(j)|, the maximal motions enumerated for j.
	MaximalMotions int
	// DenseMotions is |W̄_k(j)|.
	DenseMotions int
	// NeighborsScanned counts devices ℓ whose own maximal dense motions
	// were computed to build J_k(j)/L_k(j).
	NeighborsScanned int
	// CollectionsTested counts the candidate collections examined by the
	// Theorem 7 / Corollary 8 search (0 when the search never ran).
	CollectionsTested int
}

// Result is the outcome of characterizing one device.
type Result struct {
	// Device is the device id.
	Device int
	// Class is the verdict.
	Class Class
	// Rule is the paper result that produced the verdict.
	Rule Rule
	// Dense is W̄_k(j), the maximal τ-dense motions containing the device.
	Dense [][]int
	// J and L are the neighbourhood split of Section V-B.
	J, L []int
	// Cost is the decision cost.
	Cost Cost
}

// Characterizer runs the local decision procedures over one observation
// window. It memoizes the maximal-motion enumeration per connected
// component so that a fleet-wide pass costs each neighbourhood once.
type Characterizer struct {
	pair     *motion.Pair
	abnormal []int
	cfg      Config
	graph    *motion.Graph
	// comps is the connected-component decomposition of the motion graph.
	// Every set a decision for device j consults lives inside j's
	// component, so the memo and the decision scratch are indexed by
	// component rank instead of by device id.
	comps *motion.Components
	// byComp[c] memoizes component c's entries, indexed by rank; nil
	// until the component is enumerated.
	byComp [][]denseEntry
}

// denseEntry is the memoized enumeration for one device ℓ: the maximal
// τ-dense motions W̄_k(ℓ) as sorted device-id sets (shared with
// Result.Dense) and as sorted component-rank lists (element i of both
// slices is the same motion; the decision counts over the rank lists
// with no id translation), plus |M(ℓ)| before density filtering for
// cost reporting. Motions are shared read-only across the entries of
// every member they contain.
type denseEntry struct {
	ids   [][]int
	ranks []sets.Sorted
	total int
}

// countSlot is one component rank's count in the current decision,
// valid only while stamp equals the scratch epoch.
type countSlot struct {
	stamp uint32
	cnt   int32
}

// countScratch is the reusable working set of one Characterize call: an
// epoch-stamped count per component rank, plus D_k(j) as ranks and as
// ids. Bumping the epoch invalidates every slot at once, so a lease
// never clears the array, and a mass-event-sized array left in the pool
// cannot leak its counts into a later small component.
type countScratch struct {
	slots []countSlot
	epoch uint32
	dk    sets.Sorted
	dkIds []int
}

// countPool recycles decision scratch across decisions, characterizers
// and windows; pooling keeps the parallel pass safe.
var countPool = sync.Pool{New: func() any { return new(countScratch) }}

// reset starts a new decision over ranks [0, n): a fresh epoch turns
// every slot stale without touching the array.
func (sc *countScratch) reset(n int) {
	if len(sc.slots) < n {
		sc.slots = make([]countSlot, n)
	}
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stale stamps could match again
		clear(sc.slots)
		sc.epoch = 1
	}
	sc.dk, sc.dkIds = sc.dk[:0], sc.dkIds[:0]
}

// bump counts one more occurrence of rank r and reports whether it is
// the first in this decision.
func (sc *countScratch) bump(r int32) bool {
	s := &sc.slots[r]
	if s.stamp != sc.epoch {
		s.stamp, s.cnt = sc.epoch, 1
		return true
	}
	s.cnt++
	return false
}

// New builds a characterizer for the window described by pair, the
// abnormal set A_k, and the configuration.
func New(pair *motion.Pair, abnormal []int, cfg Config) (*Characterizer, error) {
	if pair == nil {
		return nil, fmt.Errorf("nil pair: %w", ErrConfig)
	}
	if err := motion.ValidateRadius(cfg.R); err != nil {
		return nil, err
	}
	if cfg.Tau < 1 {
		return nil, fmt.Errorf("tau = %d must be >= 1: %w", cfg.Tau, ErrConfig)
	}
	ids := sets.Canon(sets.CloneInts(abnormal))
	for _, id := range ids {
		if id < 0 || id >= pair.N() {
			return nil, fmt.Errorf("abnormal device %d outside population of %d: %w", id, pair.N(), ErrConfig)
		}
	}
	return newCharacterizer(pair, ids, cfg, motion.NewGraph(pair, ids, cfg.R)), nil
}

// newCharacterizer wires a characterizer over an already-built motion
// graph of the abnormal set (benchmarks reuse one read-only graph across
// fresh characterizers; New builds it fresh).
func newCharacterizer(pair *motion.Pair, ids []int, cfg Config, g *motion.Graph) *Characterizer {
	return newCharacterizerComps(pair, ids, cfg, g, g.Components())
}

// newCharacterizerComps additionally injects the component decomposition.
// Production always passes g.Components(); the parity suite passes
// g.WholeGraphComponent() to run the identical code path over one
// graph-wide component, whose ranks are the graph-local indices.
func newCharacterizerComps(pair *motion.Pair, ids []int, cfg Config, g *motion.Graph, cs *motion.Components) *Characterizer {
	return &Characterizer{
		pair:     pair,
		abnormal: ids,
		cfg:      cfg,
		graph:    g,
		comps:    cs,
		byComp:   make([][]denseEntry, cs.Count()),
	}
}

// Abnormal returns the sorted abnormal set the characterizer covers.
// Ownership rule (shared with motion.Graph.Ids and dist.Directory.
// Abnormal): the slice aliases the characterizer's internal state —
// callers must treat it as read-only and copy before modifying.
func (c *Characterizer) Abnormal() []int { return c.abnormal }

// enumerateComponent enumerates component comp's maximal motions once
// and folds them into a denseEntry per member: entry i (component rank
// i) holds W̄_k of the i-th member — the dense motions that include it,
// in lexicographic order because the component family is sorted and a
// member's family is a subsequence of it — plus its |M(ℓ)| count. One
// Bron–Kerbosch run serves every device of the component. A counting
// pass sizes each member's family, so the entries carve their motion
// lists from one slab per representation.
func (c *Characterizer) enumerateComponent(comp int) []denseEntry {
	moIds, moRanks := c.graph.MaximalMotionsOfComponent(comp, c.comps)
	entries := make([]denseEntry, c.comps.Size(comp))
	// Pass 1: count each member's dense motions (in total, for now).
	slab := 0
	for _, mo := range moRanks {
		if motion.Dense(len(mo), c.cfg.Tau) {
			for _, r := range mo {
				entries[r].total++
			}
			slab += len(mo)
		}
	}
	if slab > 0 {
		idSlab := make([][]int, slab)
		rankSlab := make([]sets.Sorted, slab)
		off := 0
		for i := range entries {
			e := &entries[i]
			if n := e.total; n > 0 {
				e.ids = idSlab[off : off : off+n]
				e.ranks = rankSlab[off : off : off+n]
				off += n
			}
			e.total = 0
		}
	}
	// Pass 2: fill the families in family order and count |M(ℓ)|.
	for mi, mo := range moRanks {
		dense := motion.Dense(len(mo), c.cfg.Tau)
		for _, r := range mo {
			e := &entries[r]
			e.total++
			if dense {
				e.ids = append(e.ids, moIds[mi])
				e.ranks = append(e.ranks, mo)
			}
		}
	}
	return entries
}

// componentEntries returns component comp's memoized entries,
// enumerating the component on a miss.
func (c *Characterizer) componentEntries(comp int) []denseEntry {
	if c.byComp[comp] == nil {
		c.byComp[comp] = c.enumerateComponent(comp)
	}
	return c.byComp[comp]
}

// denseMotionsOf returns the memoized W̄_k(ℓ) of abnormal device ℓ.
func (c *Characterizer) denseMotionsOf(l int) denseEntry {
	ll, _ := c.graph.Local(l)
	return c.componentEntries(c.comps.Of(ll))[c.comps.Rank(ll)]
}
