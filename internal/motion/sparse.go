package motion

import (
	"runtime"
	"slices"
	"sync"

	"anomalia/internal/grid"
	"anomalia/internal/sets"
)

// This file is the collected half of the hybrid adjacency: the parallel
// edge collection and CSR construction (NewGraph at >=
// sparseMinVertices) and the neighbourhood-densified clique enumeration
// that keeps Bron–Kerbosch word-parallel without ever materializing
// O(m²/64) bits.
//
// Construction pipeline:
//
//  1. Flatten the two states' coordinates into per-vertex arrays, so the
//     inner adjacency test is a branch-cheap scan over contiguous memory
//     with per-axis early exit.
//  2. Shard the grid's cell-pair walk across workers; each worker
//     distance-tests its candidate pairs and appends surviving edges to
//     a private buffer (no shared state, no locks).
//  3. Pick the representation from the measured edge count: windows so
//     edge-dense that the CSR arena would be no smaller than the dense
//     bitset rows fill the rows straight from the buffers (word-parallel
//     enumeration, no per-row merge+sort); everything else merges the
//     buffers into one CSR arena — offsets plus neighbours, 2
//     allocations regardless of m — via a count / prefix-sum / fill
//     pass, then sorts each row. Sorted rows make the arena a pure
//     function of the edge set: the same adjacency comes out for every
//     worker count and shard interleaving.

// sparseBuilder carries the flattened window the workers test against.
type sparseBuilder struct {
	g     *Graph
	dim   int
	lim   float64 // the 2r adjacency threshold
	prevF []float64
	curF  []float64
}

// buildCollected constructs the adjacency for graphs at or above
// sparseMinVertices: collect the edge set into per-worker buffers, then
// pick the representation from the measured edge count (density-
// adaptive) — unless forceCSR pins the CSR arena (testing hook, and the
// guarantee newGraphSparse gives the parity suites). gridOK selects the
// sharded cell-pair walk; when the geometry rules the grid out
// (exponential high-dimension fan-out, degenerate resolution) the
// workers stripe an all-pairs scan instead. workers <= 0 selects
// GOMAXPROCS.
func (g *Graph) buildCollected(prm grid.Params, gridOK bool, workers int, forceCSR bool) {
	m := len(g.ids)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > m {
		workers = m
	}
	if workers < 1 {
		workers = 1
	}
	d := g.pair.Dim()
	b := &sparseBuilder{
		g:     g,
		dim:   d,
		lim:   2 * g.r,
		prevF: make([]float64, m*d),
		curF:  make([]float64, m*d),
	}
	for li, id := range g.ids {
		copy(b.prevF[li*d:(li+1)*d], g.pair.Prev.At(id))
		copy(b.curF[li*d:(li+1)*d], g.pair.Cur.At(id))
	}
	var bufs [][]uint64
	if gridOK {
		bufs = b.collectGrid(prm, workers)
	} else {
		bufs = b.collectAllPairs(workers)
	}
	if !forceCSR && denseWorthwhile(m, countEdges(bufs)) {
		g.denseFromEdges(bufs)
		return
	}
	g.mergeCSR(bufs, workers)
}

// countEdges totals the collected edge buffers.
func countEdges(bufs [][]uint64) int {
	total := 0
	for _, buf := range bufs {
		total += len(buf)
	}
	return total
}

// denseWorthwhile picks the adjacency representation from the measured
// edge count: dense words are m·ceil(m/64), the CSR arena holds 2 int32
// entries (one 64-bit word) per edge — when the dense rows are no
// bigger, sparsity buys no memory and the word-parallel dense
// enumeration plus a fill-from-buffers build (no per-row merge+sort) is
// strictly better. Edge-dense clustered windows near the old vertex
// crossover land here; uniform fleets at scale never do, so the ratio
// needs no separate memory cap.
func denseWorthwhile(m, edges int) bool {
	return m*((m+63)/64) <= edges
}

// denseFromEdges fills slab-backed dense bitset rows straight from the
// per-worker edge buffers.
func (g *Graph) denseFromEdges(bufs [][]uint64) {
	g.allocDense()
	for _, buf := range bufs {
		for _, e := range buf {
			a, c := unpack(e)
			g.adj[a].Add(int(c))
			g.adj[c].Add(int(a))
		}
	}
}

// adjacent is the inlined edge test over the flattened coordinates:
// uniform-norm distance <= 2r at both times, with per-axis early exit.
// Semantics match Pair.Adjacent exactly (an axis never rejects on NaN in
// either formulation).
func (b *sparseBuilder) adjacent(a, c int32) bool {
	d := b.dim
	pa, pc := int(a)*d, int(c)*d
	for k := 0; k < d; k++ {
		delta := b.prevF[pa+k] - b.prevF[pc+k]
		if delta < 0 {
			delta = -delta
		}
		if delta > b.lim {
			return false
		}
	}
	for k := 0; k < d; k++ {
		delta := b.curF[pa+k] - b.curF[pc+k]
		if delta < 0 {
			delta = -delta
		}
		if delta > b.lim {
			return false
		}
	}
	return true
}

// pack encodes an edge as one word for the per-worker buffers.
func pack(a, c int32) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(c)) }

func unpack(e uint64) (int32, int32) { return int32(e >> 32), int32(uint32(e)) }

// edgeChunkLen is the capacity of one edge-buffer chunk (256 KB).
const edgeChunkLen = 1 << 15

// edgeSink accumulates packed edges in fixed-size chunks. Chunking keeps
// the collection phase's total allocation at the edge count itself —
// a single growing slice would reallocate-and-copy its way to ~5x that
// (Go grows large slices by 1.25x) — and edge-dense clustered windows
// put tens of millions of edges through here.
type edgeSink struct {
	cur    []uint64
	chunks [][]uint64
}

func (s *edgeSink) add(e uint64) {
	if len(s.cur) == cap(s.cur) {
		if s.cur != nil {
			s.chunks = append(s.chunks, s.cur)
		}
		s.cur = make([]uint64, 0, edgeChunkLen)
	}
	s.cur = append(s.cur, e)
}

// done flushes the open chunk and returns every chunk collected.
func (s *edgeSink) done() [][]uint64 {
	if len(s.cur) > 0 {
		s.chunks = append(s.chunks, s.cur)
	}
	return s.chunks
}

// collectGrid runs the sharded cell-pair walk: every unordered candidate
// pair is tested by exactly one worker (the one owning the
// lexicographically smaller cell), so the union of the buffers holds
// every edge exactly once.
func (b *sparseBuilder) collectGrid(prm grid.Params, workers int) [][]uint64 {
	idx := grid.New(b.g.pair.Prev, b.g.ids, prm)
	walk := idx.NewPairWalk(gridBuildReach)
	locals := b.g.resolveCellLocals(walk.Cells())
	if workers > len(walk.Cells()) {
		workers = len(walk.Cells())
	}
	if workers < 1 {
		workers = 1
	}
	bufs := make([][][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var sink edgeSink
			walk.Shard(w, workers, func(a, c int) {
				la := locals.row(a)
				if a == c {
					for i := 0; i < len(la); i++ {
						va := la[i]
						for j := i + 1; j < len(la); j++ {
							if b.adjacent(va, la[j]) {
								sink.add(pack(va, la[j]))
							}
						}
					}
					return
				}
				lc := locals.row(c)
				for _, va := range la {
					for _, vc := range lc {
						if b.adjacent(va, vc) {
							sink.add(pack(va, vc))
						}
					}
				}
			})
			bufs[w] = sink.done()
		}(w)
	}
	wg.Wait()
	return flattenChunks(bufs)
}

// flattenChunks concatenates the workers' chunk lists (chunk order is
// irrelevant: the merge sorts every row).
func flattenChunks(bufs [][][]uint64) [][]uint64 {
	var out [][]uint64
	for _, chunks := range bufs {
		out = append(out, chunks...)
	}
	return out
}

// collectAllPairs stripes the quadratic scan across workers (vertex a of
// every pair (a, c), a < c, belongs to exactly one stripe).
func (b *sparseBuilder) collectAllPairs(workers int) [][]uint64 {
	m := len(b.g.ids)
	bufs := make([][][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var sink edgeSink
			for a := w; a < m; a += workers {
				for c := a + 1; c < m; c++ {
					if b.adjacent(int32(a), int32(c)) {
						sink.add(pack(int32(a), int32(c)))
					}
				}
			}
			bufs[w] = sink.done()
		}(w)
	}
	wg.Wait()
	return flattenChunks(bufs)
}

// mergeCSR folds the per-worker edge buffers into the shared CSR arena:
// count degrees, prefix-sum into offsets, fill, then sort each row.
// The arena is exactly 2 allocations (offsets + neighbours); the count
// and cursor arrays are transient. Sorted rows make membership a binary
// search, densification a linear merge, and the arena content a pure
// function of the edge set — independent of worker count and of the
// order shards emitted edges (TestSparseBuildDeterministic).
func (g *Graph) mergeCSR(bufs [][]uint64, workers int) {
	m := len(g.ids)
	off := make([]int64, m+1)
	for _, buf := range bufs {
		for _, e := range buf {
			a, c := unpack(e)
			off[a+1]++
			off[c+1]++
		}
	}
	for v := 0; v < m; v++ {
		off[v+1] += off[v]
	}
	nbr := make([]int32, off[m])
	cur := make([]int64, m)
	copy(cur, off[:m])
	for _, buf := range bufs {
		for _, e := range buf {
			a, c := unpack(e)
			nbr[cur[a]] = c
			cur[a]++
			nbr[cur[c]] = a
			cur[c]++
		}
	}
	if workers > m {
		workers = m
	}
	if workers <= 1 {
		for v := 0; v < m; v++ {
			slices.Sort(nbr[off[v]:off[v+1]])
		}
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for v := w; v < m; v += workers {
					slices.Sort(nbr[off[v]:off[v+1]])
				}
			}(w)
		}
		wg.Wait()
	}
	g.off, g.nbr = off, nbr
}

// sortInt32s sorts a neighbour-list buffer in place.
func sortInt32s(s sets.Sorted) { slices.Sort(s) }

// densify materializes the subgraph induced on verts (sorted local
// indices) as dense bitset rows over sub-indices 0..len(verts)-1,
// reusing the scratch's row bitsets. This is the sparse-BK trick: a
// vertex's clique search only ever looks inside its neighbourhood, so
// the word-parallel recursion runs over a Δ-sized universe instead of
// the m-sized one — O(Δ²/64) scratch bits, not O(m²/64). Each member's
// sub-index is stamped into the scratch's vertex-indexed position array
// first, so every row is filled by one lookup per neighbour — O(Σ deg)
// for the whole subgraph rather than a row-against-verts merge per
// member — and the stamps are wiped again before returning.
func (g *Graph) densify(sc *bkScratch, verts sets.Sorted) []*sets.Bits {
	s := len(verts)
	for len(sc.sub) < s {
		sc.sub = append(sc.sub, sets.NewBits(0))
	}
	sub := sc.sub[:s]
	for i := range sub {
		sub[i].Resize(s)
	}
	if len(sc.pos) < len(g.ids) {
		sc.pos = make([]int32, len(g.ids))
	}
	for i, v := range verts {
		sc.pos[v] = int32(i) + 1
	}
	for i, v := range verts {
		bi := sub[i]
		for _, u := range g.row(int(v)) {
			if p := sc.pos[u]; p != 0 {
				bi.Add(int(p - 1))
			}
		}
	}
	for _, v := range verts {
		sc.pos[v] = 0
	}
	return sub
}

// maximalMotionsSparse enumerates all maximal cliques of a sparse-mode
// graph with the degeneracy-ordered Bron–Kerbosch of Eppstein, Löffler
// and Strash: the outer loop walks vertices in degeneracy order and
// enumerates, inside each vertex's densified neighbourhood subgraph,
// the maximal cliques whose earliest vertex (in that order) it is —
// candidates restricted to later neighbours, exclusions to earlier
// ones. Every maximal clique of the graph is reported exactly once.
func (g *Graph) maximalMotionsSparse() [][]int {
	m := len(g.ids)
	if m == 0 {
		return nil
	}
	order := g.degeneracyOrder()
	pos := make([]int, m)
	for i, v := range order {
		pos[v] = i
	}
	var out [][]int
	sc := g.getScratch()
	defer g.putScratch(sc)
	for _, v := range order {
		verts := g.row(v).InsertInto(int32(v), sc.verts[:0])
		sub := g.densify(sc, verts)
		s := len(verts)
		r := sc.lease(s)
		p := sc.lease(s)
		x := sc.lease(s)
		r.Add(searchSorted(verts, int32(v)))
		for i, u := range verts {
			if int(u) == v {
				continue
			}
			if pos[int(u)] > pos[v] {
				p.Add(i)
			} else {
				x.Add(i)
			}
		}
		bkOver(sub, r, p, x, sc, func(clique *sets.Bits) {
			ids := make([]int, 0, clique.Len())
			clique.ForEach(func(i int) bool {
				ids = append(ids, g.ids[verts[i]])
				return true
			})
			out = append(out, ids)
		})
		sc.put(x)
		sc.put(p)
		sc.put(r)
		sc.verts = verts[:0]
	}
	sets.SortSets(out)
	return out
}
