package engine

import (
	"bpart/internal/cluster"
	"bpart/internal/graph"
)

// accounting holds the superstep charges that depend only on the
// placement, derived once per assignment so that no superstep looks up the
// owner of every edge it scans. Built on first use, dropped by reassign.
type accounting struct {
	out, in side // out-edges over g, in-edges over the transpose
	// push and pull are the dense supersteps' per-machine charges, one
	// entry per machine (matrix rows always filled): every owned vertex's
	// out-edges and cut out-edges (push), or every owned vertex's in-edges
	// and each distinct remote in-neighbor — a Gemini mirror, fetched once
	// per machine and superstep (pull; matrix row = the fetching machine).
	push, pull []taskCounters
	machines   []machineShard // one task per machine, to combine push/pull
}

// side is one adjacency direction's per-vertex charge: v scans
// adj.Neighbors(v), remote[v] of them end on another machine, and
// rows[off[v]:off[v+1]] counts those per machine (comm matrix only).
type side struct {
	adj    *graph.Graph
	remote []uint32
	off    []int
	rows   []partCount
}

type partCount struct{ part, count int32 }

// accounts returns the tables for the current assignment, building them
// under the transpose's lock on first use, or again when the comm matrix
// was switched on after a build without rows.
func (e *Engine) accounts() *accounting {
	e.trMu.Lock()
	defer e.trMu.Unlock()
	rows := e.cl.CommMatrixEnabled()
	if e.acct != nil && (e.acct.out.off != nil || !rows) {
		return e.acct
	}
	if e.tr == nil {
		e.tr = e.g.Transpose()
	}
	n, k := e.g.NumVertices(), e.cl.NumMachines()
	a := &accounting{
		out:      side{adj: e.g, remote: make([]uint32, n)},
		in:       side{adj: e.tr, remote: make([]uint32, n)},
		push:     newTaskCounters(k, k, true),
		pull:     newTaskCounters(k, k, true),
		machines: shardLists(make([][]graph.VertexID, k)),
	}
	mirrored := make([]int, k) // mirrored[m] == u+1: machine m mirrors u
	for u := 0; u < n; u++ {
		mu := e.cl.Owner(uint32(u))
		a.push[mu].verts++
		a.pull[mu].verts++
		a.push[mu].edges += int64(e.g.OutDegree(graph.VertexID(u)))
		for _, v := range e.g.Neighbors(graph.VertexID(u)) {
			mv := e.cl.Owner(v)
			a.pull[mv].edges++
			if mv == mu {
				continue
			}
			a.out.remote[u]++
			a.in.remote[v]++
			a.push[mu].msgs++
			a.push[mu].prow[mv]++
			if mirrored[mv] != u+1 {
				mirrored[mv] = u + 1
				a.pull[mv].msgs++
				a.pull[mv].prow[mu]++
			}
		}
	}
	if rows {
		a.out.buildRows(e.cl, k)
		a.in.buildRows(e.cl, k)
	}
	e.acct = a
	return a
}

// buildRows counts every vertex's remote arcs per destination machine.
func (s *side) buildRows(cl *cluster.Cluster, k int) {
	n := s.adj.NumVertices()
	cnt := make([]int32, k)
	s.off = make([]int, n+1)
	for v := 0; v < n; v++ {
		mv := cl.Owner(uint32(v))
		ns := s.adj.Neighbors(graph.VertexID(v))
		for _, u := range ns {
			if o := cl.Owner(u); o != mv {
				cnt[o]++
			}
		}
		for _, u := range ns {
			if o := cl.Owner(u); cnt[o] > 0 {
				s.rows = append(s.rows, partCount{int32(o), cnt[o]})
				cnt[o] = 0
			}
		}
		s.off[v+1] = len(s.rows)
	}
}

// charge bills one scan of v's arcs to tc, the counters of v's owner: each
// arc is an edge, each remote arc a message to the arc's machine.
func (s *side) charge(tc *taskCounters, v graph.VertexID) {
	tc.edges += int64(s.adj.OutDegree(v))
	tc.msgs += int64(s.remote[v])
	if tc.prow != nil {
		for _, r := range s.rows[s.off[v]:s.off[v+1]] {
			tc.prow[r.part] += int64(r.count)
		}
	}
}
