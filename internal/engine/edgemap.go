// edgemap.go is the engine's shared execution kernel: a Ligra-style
// generic EdgeMap (Shun & Blelloch) over VertexSubset frontiers with
// push/pull direction switching (Beamer et al.), running each superstep's
// vertex work on the cluster's bounded worker pool.
//
// Determinism is the kernel's contract, enforced structurally rather than
// by luck of scheduling:
//
//   - Work is decomposed into shards whose boundaries are a pure function
//     of the work-list length — never of the worker count. Each shard
//     accumulates into shard-private counters, combined in fixed
//     (machine, shard) order after the phase barrier.
//   - A vertex's proposal is the minimum key over its frontier neighbours.
//     A dense superstep gathers it in the one shard owning the vertex and
//     stores it with a plain write; a sparse one pushes it through
//     compare-and-swap *minimum*, a commutative and idempotent combine
//     whose fixed point is the same whatever order workers fire in.
//   - Floating-point sums never cross shard boundaries unordered: each
//     destination vertex is summed by exactly one chunk in adjacency
//     order, and per-chunk partials are reduced in chunk index order.
//
// Together these make ranks, labels, distances and every IterationStats
// counter bit-identical at any Workers setting — the property the
// worker-grid tests pin.
package engine

import (
	"sync/atomic"

	"bpart/internal/cluster"
	"bpart/internal/graph"
)

// shardTarget is the nominal vertices-per-shard granule. Shard boundaries
// depend only on the list length, so the decomposition — and therefore
// every combine order — is identical at any worker count.
const shardTarget = 1024

// unsetKey is the proposal buffer's "no proposal" sentinel; every real
// proposal compares below it.
const unsetKey = ^uint64(0)

// shardCount returns the fixed shard count for a work list of length n.
func shardCount(n int) int {
	if n <= shardTarget {
		return 1
	}
	return (n + shardTarget - 1) / shardTarget
}

// machineShard is one task of a scatter phase: the [lo, hi) slice of
// machine m's work list.
type machineShard struct {
	m      int
	lo, hi int
}

// shardLists flattens the fixed shard decomposition of every machine's
// work list into tasks, machine-major. Empty lists still yield one empty
// shard so per-machine counters are always written.
func shardLists(lists [][]graph.VertexID) []machineShard {
	var tasks []machineShard
	for m, list := range lists {
		n := len(list)
		s := shardCount(n)
		if n == 0 {
			s = 1
		}
		for i := 0; i < s; i++ {
			tasks = append(tasks, machineShard{m: m, lo: i * n / s, hi: (i + 1) * n / s})
		}
	}
	return tasks
}

// taskCounters is one shard's private slice of the superstep counters.
type taskCounters struct {
	edges, msgs, verts int64
	prow               []int64 // per-destination messages, nil unless matrix capture
}

// newTaskCounters allocates one private counter set per task, with matrix
// rows exactly when the superstep captures them.
func newTaskCounters(ntasks, k int, pairs bool) []taskCounters {
	ts := make([]taskCounters, ntasks)
	if pairs {
		flat := make([]int64, ntasks*k)
		for i := range ts {
			ts[i].prow = flat[i*k : (i+1)*k : (i+1)*k]
		}
	}
	return ts
}

// combineCounters folds shard-private counters into the superstep's
// per-machine slots in fixed (machine, shard) order. Integer sums are
// commutative, but the fixed order costs nothing and keeps the discipline
// uniform.
func combineCounters(w *cluster.Counters, tasks []machineShard, ts []taskCounters) {
	for i, t := range tasks {
		w.Edges[t.m] += ts[i].edges
		w.Messages[t.m] += ts[i].msgs
		w.Vertices[t.m] += ts[i].verts
		if w.Pairs != nil && ts[i].prow != nil {
			row := w.Pairs[t.m]
			for o, x := range ts[i].prow {
				row[o] += x
			}
		}
	}
}

// atomicMinU64 lowers *p to v if v is smaller — the kernel's commutative,
// idempotent proposal combine.
func atomicMinU64(p *uint64, v uint64) {
	for {
		old := atomic.LoadUint64(p)
		if v >= old {
			return
		}
		if atomic.CompareAndSwapUint64(p, old, v) {
			return
		}
	}
}

// Beamer's direction-switching thresholds, as used by the pre-kernel
// direction-optimizing BFS: go bottom-up when the frontier's out-edge
// volume exceeds |E|/alpha, back to top-down when the frontier shrinks
// below |V|/beta.
const (
	dirAlpha = 14
	dirBeta  = 24
)

// edgeMapSpec is one algorithm's relaxation, expressed against uint64
// proposal keys (order-preserving encodings of the algorithm's value:
// label, distance, depth). Smaller is better; unsetKey means "no value".
type edgeMapSpec struct {
	// key is the proposal frontier vertex src sends along every arc. It
	// depends only on src, so a gather superstep evaluates it once per
	// frontier vertex into the kernel's key array.
	key func(src graph.VertexID) uint64
	// weight, if set, is added to src's key along arc (src, dst) (SSSP).
	weight func(src, dst graph.VertexID) uint64
	// cur is v's current key; proposals not strictly below it are ignored.
	cur func(v graph.VertexID) uint64
	// apply commits an improved key during the merge phase. It is called
	// exactly once per improved vertex, from the single chunk owning it.
	apply func(v graph.VertexID, key uint64)
	// undirected also relaxes the reverse adjacency, computing over the
	// undirected closure (Connected Components).
	undirected bool
	// auto enables Beamer direction switching (BFS only, so it comes with
	// stopEarly); otherwise every superstep is charged as a push. Pull
	// supersteps charge edges and messages to the scanning
	// (destination-owning) machine, exactly as the hand-written DOBFS did.
	auto bool
	// stopEarly marks BFS semantics: every proposal of a superstep is the
	// same key, and it cannot improve a vertex that already has one. A
	// gather then skips settled vertices and stops scanning at the first
	// frontier neighbour (any parent will do).
	stopEarly bool
}

// kernelState is the per-run scratch of the edge-map kernel.
type kernelState struct {
	// prop holds each vertex's best proposal of the superstep: CAS-min
	// from a sparse push, a plain write by the vertex's one gathering
	// shard otherwise. The merge phase resets it to unsetKey.
	prop []uint64
	// skey is a gather superstep's per-source key: key(u) for frontier
	// members, unsetKey elsewhere (and everywhere between supersteps).
	skey    []uint64
	byOwner [][]graph.VertexID // sparse-frontier split scratch
}

func (e *Engine) newKernelState() *kernelState {
	n := e.g.NumVertices()
	st := &kernelState{
		prop:    make([]uint64, n),
		skey:    make([]uint64, n),
		byOwner: make([][]graph.VertexID, e.cl.NumMachines()),
	}
	for i := range st.prop {
		st.prop[i], st.skey[i] = unsetKey, unsetKey
	}
	return st
}

// edgeMapOut is one superstep's outcome: the next frontier, its out-edge
// volume (the auto heuristic's input), and the direction taken.
type edgeMapOut struct {
	frontier      *VertexSubset
	frontierEdges int64
	bottomUp      bool
}

// edgeMap advances one superstep: relax the frontier's proposals into the
// proposal buffer, then merge improvements into the algorithm state and
// build the next frontier. Charge and compute direction are separate: a
// superstep is charged as a push (from the accounting tables) unless auto
// picks a bottom-up pull (charged per arc read), and it is computed as a
// gather from the key array when it pulls or the frontier is dense, as a
// CAS-min scatter otherwise. Both commit the same minimum per vertex.
func (e *Engine) edgeMap(s *edgeMapSpec, st *kernelState, frontier *VertexSubset, frontierEdges int64, w *cluster.Counters) edgeMapOut {
	n := e.g.NumVertices()
	k := e.cl.NumMachines()
	bottomUp := false
	if s.auto {
		m := e.g.NumEdges()
		bottomUp = frontierEdges > int64(m/dirAlpha) && frontier.Len() > n/dirBeta
	}

	// Relax phase: shard every machine's work list and run the shards on
	// the worker pool.
	var tasks []machineShard
	var run func(t machineShard, tc *taskCounters)
	a := e.accounts()
	if bottomUp || frontier.IsDense() {
		// Gather: every owned vertex takes the minimum key over its
		// in-neighbours (and out-neighbours, for undirected closures).
		// Owned lists partition the vertices, so prop[v] has one writer.
		frontier.ForEach(func(u graph.VertexID) { st.skey[u] = s.key(u) })
		tasks = shardLists(e.owned)
		// plain: no weight, no early exit and no per-arc charge, so a scan
		// is a branch-free minimum (CC).
		skey, plain := st.skey, !bottomUp && s.weight == nil && !s.stopEarly
		run = func(t machineShard, tc *taskCounters) {
			// scan folds the keys along ns into best. A pull charges every
			// arc it reads: its early exit makes that count depend on the
			// frontier, so it cannot come from the accounting tables.
			scan := func(v graph.VertexID, ns []graph.VertexID, best uint64) (uint64, bool) {
				if plain {
					for _, u := range ns {
						best = min(best, skey[u])
					}
					return best, false
				}
				for _, u := range ns {
					if bottomUp {
						tc.edges++
						if o := e.cl.Owner(u); o != t.m {
							tc.msgs++
							if tc.prow != nil {
								tc.prow[o]++
							}
						}
					}
					key := skey[u]
					if key == unsetKey {
						continue
					}
					if s.weight != nil {
						key += s.weight(u, v)
					}
					best = min(best, key)
					if s.stopEarly {
						return best, true
					}
				}
				return best, false
			}
			for _, v := range e.owned[t.m][t.lo:t.hi] {
				cur := s.cur(v)
				if !bottomUp && skey[v] != unsetKey {
					// Charged as the push this superstep stands for.
					tc.verts++
					a.out.charge(tc, v)
					if s.undirected {
						a.in.charge(tc, v)
					}
				}
				if s.stopEarly && cur != unsetKey {
					continue
				}
				if bottomUp {
					tc.verts++ // a pull charges every vertex it scans
				}
				best, hit := scan(v, a.in.adj.Neighbors(v), unsetKey)
				if s.undirected && !hit {
					best, _ = scan(v, e.g.Neighbors(v), best)
				}
				if best < cur {
					st.prop[v] = best
				}
			}
		}
	} else {
		// Sparse push: frontier members, split by owner in ascending
		// order, scatter their key along out-edges (and, for undirected
		// closures, in-edges) with CAS-min.
		for m := range st.byOwner {
			st.byOwner[m] = st.byOwner[m][:0]
		}
		for _, v := range frontier.Vertices() {
			m := e.cl.Owner(v)
			st.byOwner[m] = append(st.byOwner[m], v)
		}
		tasks = shardLists(st.byOwner)
		run = func(t machineShard, tc *taskCounters) {
			scatter := func(v graph.VertexID, key uint64, sd *side) {
				sd.charge(tc, v)
				for _, u := range sd.adj.Neighbors(v) {
					ku := key
					if s.weight != nil {
						ku += s.weight(v, u)
					}
					if ku < s.cur(u) {
						atomicMinU64(&st.prop[u], ku)
					}
				}
			}
			for _, v := range st.byOwner[t.m][t.lo:t.hi] {
				tc.verts++
				key := s.key(v)
				scatter(v, key, &a.out)
				if s.undirected {
					scatter(v, key, &a.in)
				}
			}
		}
	}
	tcs := newTaskCounters(len(tasks), k, w.Pairs != nil)
	e.cl.RunTasks(len(tasks), func(t int) { run(tasks[t], &tcs[t]) })
	combineCounters(w, tasks, tcs)

	// Merge phase: fixed chunks over the vertex space, each chunk applying
	// its own vertices' improvements and resetting the proposal buffer and
	// the key array. Chunk outputs are concatenated in chunk order, so the
	// next frontier is sorted ascending however the chunks were scheduled.
	chunks := shardCount(n)
	outs := make([][]graph.VertexID, chunks)
	fedges := make([]int64, chunks)
	e.cl.RunTasks(chunks, func(c int) {
		lo, hi := c*n/chunks, (c+1)*n/chunks
		var members []graph.VertexID
		var fe int64
		for v := lo; v < hi; v++ {
			st.skey[v] = unsetKey
			key := st.prop[v]
			if key == unsetKey {
				continue
			}
			st.prop[v] = unsetKey
			id := graph.VertexID(v)
			if key < s.cur(id) {
				s.apply(id, key)
				members = append(members, id)
				fe += int64(e.g.OutDegree(id))
			}
		}
		outs[c] = members
		fedges[c] = fe
	})
	total := 0
	for _, o := range outs {
		total += len(o)
	}
	members := make([]graph.VertexID, 0, total)
	var fe int64
	for c := range outs {
		members = append(members, outs[c]...)
		fe += fedges[c]
	}
	return edgeMapOut{
		frontier:      SubsetFromVertices(n, members),
		frontierEdges: fe,
		bottomUp:      bottomUp,
	}
}

// chunkMap runs fn over fixed chunks of [0, n) on the worker pool —
// the merge-side primitive. Chunk boundaries depend only on n; callers
// combine per-chunk results in chunk index order.
func (e *Engine) chunkMap(n int, fn func(chunk, lo, hi int)) {
	chunks := shardCount(n)
	e.cl.RunTasks(chunks, func(c int) {
		fn(c, c*n/chunks, (c+1)*n/chunks)
	})
}
