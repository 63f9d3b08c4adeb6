package motion

import (
	"slices"
	"sort"
	"sync"

	"anomalia/internal/grid"
	"anomalia/internal/sets"
)

// Graph is the motion graph restricted to a subset of devices (typically
// the abnormal set A_k): vertices are devices, edges join devices within
// 2r at both times. Cliques of this graph are exactly the r-consistent
// motions among the subset.
//
// Vertices are stored under local indices 0..m-1; the public API speaks
// device ids.
//
// Adjacency is hybrid. Below sparseMinVertices every vertex owns a dense
// bitset row, so clique enumeration — the characterization hot path — is
// pure word operations. At or above it the rows become sorted neighbour
// lists in one shared CSR arena (off/nbr), built by a parallel cell-pair
// walk: memory drops from O(m²/64) to O(m + edges), which is what makes
// million-device windows constructible at all. Both representations are
// read-only after construction, and every enumeration result is
// identical across them (TestSparseMatchesDense*).
type Graph struct {
	ids []int // local index -> device id, sorted
	// contiguous marks the common full-population case ids[i] == i, where
	// Local is the identity. Non-contiguous dense-mode graphs keep a
	// per-id map (local): the characterization hot path resolves ids in
	// every Theorem-7 probe and the map is tiny at dense scales. Sparse-
	// mode graphs resolve by binary search over ids instead — at
	// million-device scale the map alone would cost tens of MB and a
	// rebuild per window for a lookup the sorted slice answers in
	// O(log m).
	contiguous bool
	local      map[int]int
	r          float64
	pair       *Pair

	// adj is the dense representation: one bitset row per vertex. nil in
	// sparse mode.
	adj []*sets.Bits

	// off/nbr are the sparse representation: row v is the sorted
	// neighbour list nbr[off[v]:off[v+1]]. The two slices are the whole
	// adjacency — 2 allocations regardless of m. nil in dense mode.
	off []int64
	nbr []int32

	// bkPool recycles enumeration scratch across the many per-device
	// clique enumerations of a fleet pass; sync.Pool keeps concurrent
	// enumerations (parallel characterization) safe.
	bkPool sync.Pool
}

// gridBuildMinVertices is the vertex count at which NewGraph switches
// from the all-pairs build to the grid-indexed build. Below it the
// quadratic scan — a tight loop of uniform-norm comparisons — is
// cheaper than building the cell index (measured crossover is a few
// hundred vertices; see BenchmarkNewGraph). Both builds produce
// identical adjacency (TestNewGraphGridMatchesAllPairs).
const gridBuildMinVertices = 256

// sparseMinVertices is the vertex count at which NewGraph stops building
// dense bitset rows unconditionally and instead collects the edge set
// first, picking the representation from the measured edge count
// (density-adaptive; see buildCollected). The threshold trades the dense
// rows' word-parallel set algebra against their O(m²/64) footprint: at
// 4096 vertices the dense adjacency is 2 MB — around the point where
// allocating and zeroing it starts to rival the whole sparse build —
// while every paper-scale characterization window (tens to hundreds of
// abnormal devices) stays comfortably dense.
const sparseMinVertices = 4096

// gridBuildReach is the Chebyshev cell distance the grid build pairs
// cells across. With cell side exactly 2r an edge's endpoints share a
// cell or sit in axis-adjacent cells in exact arithmetic; reach 2 keeps
// that guarantee under floating point, where a quotient within an ulp
// of a cell boundary can shift either endpoint's computed cell by one.
const gridBuildReach = 2

// gridBuildMaxRes caps the grid resolution the floating-point safety
// argument for gridBuildReach covers (quotient errors stay far below
// one cell while res*2^-52 is negligible). Radii tiny enough to exceed
// it fall back to the all-pairs build.
const gridBuildMaxRes = 1 << 25

// NewGraph builds the motion graph over the given device ids (deduplicated
// and sorted). The caller is responsible for r being valid; ids outside
// the pair's device range are ignored.
//
// Construction is O(m * neighbours): vertices are bucketed into a grid of
// cells with side 2r over the k-1 positions and only pairs from nearby
// cells are distance-tested, instead of all m^2 pairs. Small or
// degenerate inputs use the plain all-pairs scan. From sparseMinVertices
// vertices the cell-pair walk is sharded across GOMAXPROCS workers into
// per-worker edge buffers, and the representation — CSR neighbour lists
// or dense bitset rows — is picked from the measured edge count after
// collection, not the vertex count before it. The adjacency relation is
// identical on every path.
func NewGraph(p *Pair, ids []int, r float64) *Graph {
	g := newGraphVertices(p, ids, r)
	m := len(g.ids)
	prm := grid.ForRadius(r)
	gridOK := prm.Res <= gridBuildMaxRes && gridBuildWorthwhile(p.Dim(), m)
	switch {
	case m >= sparseMinVertices:
		g.buildCollected(prm, gridOK, 0, false)
	case m >= gridBuildMinVertices && gridOK:
		g.allocDense()
		g.buildGrid(prm)
	default:
		g.allocDense()
		g.buildAllPairs()
	}
	return g
}

// gridBuildWorthwhile reports whether the cell-pair walk can beat the
// all-pairs scan: the (2*reach+1)^d neighbour-offset fan-out grows
// exponentially with the dimension, so once it exceeds the vertex count
// the walk itself dominates (and at space.MaxDim it would be the whole
// build's undoing).
func gridBuildWorthwhile(dim, m int) bool {
	return grid.NeighborCells(dim, gridBuildReach, m) <= m
}

// newGraphVertices sets up the vertex bookkeeping shared by all builds.
func newGraphVertices(p *Pair, ids []int, r float64) *Graph {
	clean := make([]int, 0, len(ids))
	for _, id := range ids {
		if id >= 0 && id < p.N() {
			clean = append(clean, id)
		}
	}
	clean = sets.Canon(clean)
	g := &Graph{
		ids:  clean,
		r:    r,
		pair: p,
	}
	// clean is sorted, duplicate-free and non-negative, so its last
	// element equals m-1 exactly when it is 0..m-1.
	m := len(clean)
	g.contiguous = m == 0 || clean[m-1] == m-1
	if !g.contiguous && m < sparseMinVertices {
		g.local = make(map[int]int, m)
		for li, id := range clean {
			g.local[id] = li
		}
	}
	g.bkPool.New = func() any { return &bkScratch{} }
	return g
}

// allocDense sizes the dense bitset rows (dense mode only): one shared
// words arena behind every row, 3 allocations however many vertices.
func (g *Graph) allocDense() {
	g.adj = sets.NewBitsRows(len(g.ids), len(g.ids))
}

// Sparse reports whether the graph stores its adjacency as CSR neighbour
// lists rather than dense bitset rows.
func (g *Graph) Sparse() bool { return g.adj == nil }

// row returns sparse vertex v's sorted neighbour list (aliases the
// arena; read-only).
func (g *Graph) row(v int) sets.Sorted {
	return sets.Sorted(g.nbr[g.off[v]:g.off[v+1]])
}

// degreeLocal returns the neighbour count of local vertex v.
func (g *Graph) degreeLocal(v int) int {
	if g.adj != nil {
		return g.adj[v].Len()
	}
	return int(g.off[v+1] - g.off[v])
}

// adjacentLocal reports the edge between distinct local vertices a and b.
func (g *Graph) adjacentLocal(a, b int) bool {
	if g.adj != nil {
		return g.adj[a].Has(b)
	}
	return g.row(a).Has(int32(b))
}

// forNeighbors calls fn for every neighbour of local vertex v in
// increasing local order, stopping early if fn returns false.
func (g *Graph) forNeighbors(v int, fn func(u int) bool) {
	if g.adj != nil {
		g.adj[v].ForEach(fn)
		return
	}
	for _, u := range g.row(v) {
		if !fn(int(u)) {
			return
		}
	}
}

// getScratch leases enumeration scratch; return it with putScratch.
func (g *Graph) getScratch() *bkScratch   { return g.bkPool.Get().(*bkScratch) }
func (g *Graph) putScratch(sc *bkScratch) { g.bkPool.Put(sc) }

// buildAllPairs fills the dense adjacency by testing every vertex pair —
// the reference O(m^2) build, kept for small graphs and as the oracle
// the grid and sparse builds are property-tested against.
func (g *Graph) buildAllPairs() {
	m := len(g.ids)
	for a := 0; a < m; a++ {
		for b := a + 1; b < m; b++ {
			g.testEdge(a, b)
		}
	}
}

// buildGrid fills the dense adjacency via the shared spatial index:
// vertices are bucketed by their k-1 cell and only pairs within
// gridBuildReach cells are distance-tested. The shared PairWalk visits
// each unordered cell pair once, so every candidate pair is tested
// exactly once; the exact Adjacent test makes the result identical to
// the all-pairs build.
func (g *Graph) buildGrid(prm grid.Params) {
	idx := grid.New(g.pair.Prev, g.ids, prm)
	walk := idx.NewPairWalk(gridBuildReach)
	locals := g.resolveCellLocals(walk.Cells())
	walk.Shard(0, 1, func(a, b int) {
		la := locals.row(a)
		if a == b {
			for i := 0; i < len(la); i++ {
				for j := i + 1; j < len(la); j++ {
					g.testEdge(int(la[i]), int(la[j]))
				}
			}
			return
		}
		for _, va := range la {
			for _, vb := range locals.row(b) {
				g.testEdge(int(va), int(vb))
			}
		}
	})
}

// cellLocals holds the local-index lists of a walk's cells in one arena,
// aligned with PairWalk.Cells.
type cellLocals struct {
	off []int32
	loc []int32
}

func (c *cellLocals) row(i int) []int32 { return c.loc[c.off[i]:c.off[i+1]:c.off[i+1]] }

// resolveCellLocals converts each cell's device ids to local indices
// once, so the pair walks never re-derive them.
func (g *Graph) resolveCellLocals(cells []grid.Cell) *cellLocals {
	total := 0
	for i := range cells {
		total += len(cells[i].Ids)
	}
	out := &cellLocals{
		off: make([]int32, len(cells)+1),
		loc: make([]int32, 0, total),
	}
	for i := range cells {
		for _, id := range cells[i].Ids {
			li, _ := g.Local(id) // indexed ids are always vertices
			out.loc = append(out.loc, int32(li))
		}
		out.off[i+1] = int32(len(out.loc))
	}
	return out
}

// testEdge adds the edge between local vertices a and b when their
// devices move consistently (dense mode).
func (g *Graph) testEdge(a, b int) {
	if g.pair.Adjacent(g.ids[a], g.ids[b], g.r) {
		g.adj[a].Add(b)
		g.adj[b].Add(a)
	}
}

// Ids returns the sorted device ids the graph covers. Ownership rule
// (shared with Characterizer.Abnormal and Directory.Abnormal in their
// packages): the slice aliases the graph's internal state — callers must
// treat it as read-only and copy before modifying.
func (g *Graph) Ids() []int { return g.ids }

// Len returns the number of vertices.
func (g *Graph) Len() int { return len(g.ids) }

// Has reports whether device id is a vertex of the graph.
func (g *Graph) Has(id int) bool {
	_, ok := g.Local(id)
	return ok
}

// Local returns the local index of device id and whether it is a vertex.
// Local indices follow sorted device-id order, so increasing local index
// means increasing id. When the graph covers a full population the
// mapping is the identity; dense-mode subsets answer from a small map
// and sparse-mode subsets by binary search over the sorted ids (no
// per-vertex map at million-device scale).
func (g *Graph) Local(id int) (int, bool) {
	if g.contiguous {
		if id >= 0 && id < len(g.ids) {
			return id, true
		}
		return 0, false
	}
	if g.local != nil {
		li, ok := g.local[id]
		return li, ok
	}
	if li, ok := slices.BinarySearch(g.ids, id); ok {
		return li, true
	}
	return 0, false
}

// IDOf returns the device id at local index li.
func (g *Graph) IDOf(li int) int { return g.ids[li] }

// AddLocals adds the local indices of the given device ids to b. Ids
// that are not vertices are ignored.
func (g *Graph) AddLocals(b *sets.Bits, ids []int) {
	for _, id := range ids {
		if li, ok := g.Local(id); ok {
			b.Add(li)
		}
	}
}

// AppendIds appends the device ids of the local-index set b to dst, in
// increasing id order, and returns the extended slice.
func (g *Graph) AppendIds(b *sets.Bits, dst []int) []int {
	b.ForEach(func(li int) bool {
		dst = append(dst, g.ids[li])
		return true
	})
	return dst // ids are sorted because local indices follow sorted ids
}

// Adjacent reports whether devices a and b (device ids) are joined by an
// edge. A device is considered adjacent to itself when present.
func (g *Graph) Adjacent(a, b int) bool {
	la, ok := g.Local(a)
	if !ok {
		return false
	}
	lb, ok := g.Local(b)
	if !ok {
		return false
	}
	if la == lb {
		return true
	}
	return g.adjacentLocal(la, lb)
}

// Degree returns the number of neighbours of device id (excluding
// itself), or -1 when the device is not a vertex.
func (g *Graph) Degree(id int) int {
	li, ok := g.Local(id)
	if !ok {
		return -1
	}
	return g.degreeLocal(li)
}

// toIds converts a local-index bitset into sorted device ids.
func (g *Graph) toIds(b *sets.Bits) []int {
	return g.AppendIds(b, make([]int, 0, b.Len()))
}

// toLocal converts device ids (present in the graph) to a local bitset.
func (g *Graph) toLocal(ids []int) *sets.Bits {
	b := sets.NewBits(len(g.ids))
	g.AddLocals(b, ids)
	return b
}

// IsClique reports whether the given device ids are pairwise adjacent,
// i.e. form an r-consistent motion within the graph.
func (g *Graph) IsClique(ids []int) bool {
	locals := make([]int, len(ids))
	for i, id := range ids {
		li, ok := g.Local(id)
		if !ok {
			return false
		}
		locals[i] = li
	}
	for i := 0; i < len(locals); i++ {
		for j := i + 1; j < len(locals); j++ {
			if locals[i] != locals[j] && !g.adjacentLocal(locals[i], locals[j]) {
				return false
			}
		}
	}
	return true
}

// MaximalMotions enumerates all maximal r-consistent motions among the
// graph's devices (the maximal cliques), as sorted device-id sets in
// deterministic order.
func (g *Graph) MaximalMotions() [][]int {
	if g.Sparse() {
		return g.maximalMotionsSparse()
	}
	var out [][]int
	g.bronKerbosch(func(clique *sets.Bits) {
		out = append(out, g.toIds(clique))
	})
	sets.SortSets(out)
	return out
}

// MaximalMotionsContaining enumerates the maximal r-consistent motions
// that include device j — the family M(j) built by the paper's
// Algorithm 2. A motion containing j only involves devices within 2r of j
// at both times, so maximality within the graph restricted to j's closed
// neighbourhood coincides with maximality in the full graph. Returns nil
// when j is not a vertex.
func (g *Graph) MaximalMotionsContaining(j int) [][]int {
	lj, ok := g.Local(j)
	if !ok {
		return nil
	}
	var out motionFamily
	sc := g.getScratch()
	if g.Sparse() {
		// Enumerate inside j's densified closed neighbourhood: sub-index
		// i is verts[i] graph-locally, so ids come out ascending.
		verts := g.row(lj).InsertInto(int32(lj), sc.verts[:0])
		sub := g.densify(sc, verts)
		pos := searchSorted(verts, int32(lj))
		s := len(verts)
		r := sc.lease(s)
		r.Add(pos)
		p := sc.lease(s)
		p.CopyFrom(sub[pos])
		x := sc.lease(s)
		bkOver(sub, r, p, x, sc, func(clique *sets.Bits) {
			ids := make([]int, 0, clique.Len())
			clique.ForEach(func(i int) bool {
				ids = append(ids, g.ids[verts[i]])
				return true
			})
			out.ids = append(out.ids, ids)
		})
		sc.put(x)
		sc.put(p)
		sc.put(r)
		sc.verts = verts[:0]
	} else {
		m := len(g.ids)
		r := sc.lease(m)
		r.Add(lj)
		p := sc.get(g.adj[lj])
		x := sc.lease(m)
		bkOver(g.adj, r, p, x, sc, func(clique *sets.Bits) {
			out.ids = append(out.ids, g.toIds(clique))
		})
		sc.put(x)
		sc.put(p)
		sc.put(r)
	}
	g.putScratch(sc)
	sortMotionFamily(&out)
	return out.ids
}

// sortMotionFamily sorts a motion family in the id sets' lexicographic
// order (the deterministic order SortSets establishes), carrying the
// rank lists along when present. Families are typically a handful of
// motions; insertion sort keeps the common case allocation-free
// (sort.Sort would heap-allocate the interface).
func sortMotionFamily(out *motionFamily) {
	if len(out.ids) > 32 {
		sort.Sort(out)
		return
	}
	for i := 1; i < len(out.ids); i++ {
		for j := i; j > 0 && out.Less(j, j-1); j-- {
			out.Swap(j, j-1)
		}
	}
}

// searchSorted returns the index of v in the sorted slice s (which must
// contain it).
func searchSorted(s sets.Sorted, v int32) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// motionFamily sorts motions as sorted device-id sets, by their
// lexicographic order (shorter first on ties of the common prefix — the
// comparator of sets.SortSets), with the matching component-rank lists
// (nil when the caller wants ids only) swapped in lockstep.
type motionFamily struct {
	ids   [][]int
	ranks []sets.Sorted
}

func (f *motionFamily) Len() int { return len(f.ids) }

func (f *motionFamily) Less(i, j int) bool {
	a, b := f.ids[i], f.ids[j]
	for k := 0; k < len(a) && k < len(b); k++ {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return len(a) < len(b)
}

func (f *motionFamily) Swap(i, j int) {
	f.ids[i], f.ids[j] = f.ids[j], f.ids[i]
	if f.ranks != nil {
		f.ranks[i], f.ranks[j] = f.ranks[j], f.ranks[i]
	}
}

// HasDenseMotionContaining reports whether some τ-dense motion containing
// j lies entirely within the allowed device set (relation (4) of
// Theorem 7 asks this with allowed = D_k(j) minus the union of a candidate
// collection). allowed need not contain j; j is added implicitly.
func (g *Graph) HasDenseMotionContaining(j int, allowed []int, tau int) bool {
	lj, ok := g.Local(j)
	if !ok {
		return false
	}
	sc := g.getScratch()
	defer g.putScratch(sc)
	if g.Sparse() {
		// Densify N(j) ∩ allowed; a clique of size tau+1 through j is a
		// clique of size tau inside that subgraph.
		locs := sc.locs[:0]
		for _, id := range allowed {
			if li, ok := g.Local(id); ok && li != lj {
				locs = append(locs, int32(li))
			}
		}
		sortInt32s(locs)
		verts := g.row(lj).IntersectInto(locs, sc.verts[:0])
		sc.locs = locs[:0]
		defer func() { sc.verts = verts[:0] }()
		if len(verts) < tau {
			return tau <= 0
		}
		sub := g.densify(sc, verts)
		p := sc.lease(len(verts))
		for i := range verts {
			p.Add(i)
		}
		ok := extendCliqueOver(sub, p, 1, tau+1, sc)
		sc.put(p)
		return ok
	}
	p := g.toLocal(allowed)
	p.And(g.adj[lj])
	p.Remove(lj)
	// Need a clique of size tau+1 total, i.e. tau more vertices from p.
	return extendCliqueOver(g.adj, p, 1, tau+1, sc)
}

// extendCliqueOver performs a branch-and-bound search for a clique of
// size at least want that contains the current clique (implicitly
// represented by the candidate set p already restricted to common
// neighbours) in the graph described by adj.
func extendCliqueOver(adj []*sets.Bits, p *sets.Bits, have, want int, sc *bkScratch) bool {
	if have >= want {
		return true
	}
	if have+p.Len() < want {
		return false
	}
	// Iterate candidates; standard inclusion/exclusion search.
	members := p.Members(sc.getInts())
	for _, v := range members {
		p2 := sc.get(p)
		p2.And(adj[v])
		ok := extendCliqueOver(adj, p2, have+1, want, sc)
		sc.put(p2)
		if ok {
			sc.putInts(members)
			return true
		}
		p.Remove(v) // exclude v from further consideration on this branch
		if have+p.Len() < want {
			break
		}
	}
	sc.putInts(members)
	return false
}

// bronKerbosch runs maximal-clique enumeration over the whole dense
// graph.
func (g *Graph) bronKerbosch(report func(*sets.Bits)) {
	m := len(g.ids)
	r := sets.NewBits(m)
	p := sets.NewBits(m)
	for i := 0; i < m; i++ {
		p.Add(i)
	}
	x := sets.NewBits(m)
	sc := g.getScratch()
	bkOver(g.adj, r, p, x, sc, report)
	g.putScratch(sc)
}

// bkScratch recycles the candidate/excluded bitsets and the member
// buffers of one enumeration's recursion — the dominant garbage of the
// characterization hot path before pooling. Each top-level enumeration
// owns its scratch, so concurrent enumerations over a shared graph
// (CharacterizeAllParallel phase 1) never share state. Only copies of
// the reported cliques escape the enumeration. The free-listed bitsets
// are resized on lease, so one scratch serves the full graph universe
// and the per-vertex sub-universes of the sparse enumeration alike.
type bkScratch struct {
	free []*sets.Bits
	ints [][]int
	// verts/locs buffer the sub-universe vertex lists of the sparse
	// enumeration; sub holds its densified bitset rows.
	verts sets.Sorted
	locs  sets.Sorted
	sub   []*sets.Bits
	// pos maps a graph-local vertex to 1 + its sub-index while densify
	// builds a subgraph over it, and to 0 otherwise (sparse mode only).
	pos []int32
	// idBuf/rankBuf/ends stage a component family's motions back to back
	// (motion i ends at ends[i]) until MaximalMotionsOfComponent copies
	// them into exact-size slabs.
	idBuf   []int
	rankBuf sets.Sorted
	ends    []int
}

func (s *bkScratch) get(src *sets.Bits) *sets.Bits {
	if len(s.free) == 0 {
		return src.Clone()
	}
	b := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	if b.Universe() != src.Universe() {
		b.Resize(src.Universe())
	}
	b.CopyFrom(src)
	return b
}

// lease returns a cleared bitset over [0, n) from the free list.
func (s *bkScratch) lease(n int) *sets.Bits {
	if len(s.free) == 0 {
		return sets.NewBits(n)
	}
	b := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	b.Resize(n)
	return b
}

func (s *bkScratch) put(b *sets.Bits) { s.free = append(s.free, b) }

func (s *bkScratch) getInts() []int {
	if len(s.ints) == 0 {
		return nil
	}
	buf := s.ints[len(s.ints)-1]
	s.ints = s.ints[:len(s.ints)-1]
	return buf[:0]
}

func (s *bkScratch) putInts(buf []int) { s.ints = append(s.ints, buf) }

// bkOver is Bron–Kerbosch with pivoting over the adjacency rows adj.
// r, p, x are the usual current clique / candidates / excluded sets over
// row indices. p and x are consumed by the call. Dense graphs pass their
// full adjacency; the sparse enumeration passes a densified
// neighbourhood subgraph, so the recursion is word operations in both
// modes. report receives the live clique r: it must copy out what it
// keeps and must not retain or modify the set.
func bkOver(adj []*sets.Bits, r, p, x *sets.Bits, sc *bkScratch, report func(*sets.Bits)) {
	if p.Empty() && x.Empty() {
		report(r)
		return
	}
	// Choose the pivot u in p ∪ x maximizing |p ∩ N(u)|. No pivot beats
	// an x vertex adjacent to all of p (no branch) or a vertex adjacent
	// to all of p but itself (one branch), so the scan stops at the
	// first such vertex: on a large clique the per-level search costs
	// one intersection instead of |p|.
	pivot, best := -1, -1
	pLen := p.Len()
	consider := func(u int) bool {
		if c := p.IntersectionLen(adj[u]); c > best {
			best, pivot = c, u
		}
		return best < pLen-1
	}
	x.ForEach(func(u int) bool {
		consider(u)
		return best < pLen
	})
	if best < pLen-1 {
		p.ForEach(consider)
	}

	cand := sc.get(p)
	if pivot >= 0 {
		cand.AndNot(adj[pivot])
	}
	members := cand.Members(sc.getInts())
	sc.put(cand)
	for _, v := range members {
		r.Add(v)
		p2 := sc.get(p)
		p2.And(adj[v])
		x2 := sc.get(x)
		x2.And(adj[v])
		bkOver(adj, r, p2, x2, sc, report)
		sc.put(p2)
		sc.put(x2)
		r.Remove(v)
		p.Remove(v)
		x.Add(v)
	}
	sc.putInts(members)
}

// newGraphAllPairs builds the graph with the reference all-pairs scan
// regardless of size — the oracle used by property tests and the
// recorded baseline BenchmarkNewGraph compares the grid build against.
func newGraphAllPairs(p *Pair, ids []int, r float64) *Graph {
	g := newGraphVertices(p, ids, r)
	g.allocDense()
	g.buildAllPairs()
	return g
}

// newGraphGrid builds the graph with the dense grid-indexed scan
// regardless of size (testing/benchmark hook).
func newGraphGrid(p *Pair, ids []int, r float64) *Graph {
	g := newGraphVertices(p, ids, r)
	g.allocDense()
	g.buildGrid(grid.ForRadius(r))
	return g
}

// newGraphSparse builds the CSR-backed graph regardless of size or
// measured density (testing/benchmark hook); workers <= 0 selects
// GOMAXPROCS.
func newGraphSparse(p *Pair, ids []int, r float64, workers int) *Graph {
	g := newGraphVertices(p, ids, r)
	prm := grid.ForRadius(r)
	gridOK := prm.Res <= gridBuildMaxRes && gridBuildWorthwhile(p.Dim(), len(g.ids))
	g.buildCollected(prm, gridOK, workers, true)
	return g
}
