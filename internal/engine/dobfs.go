package engine

import (
	"fmt"

	"bpart/internal/graph"
)

// BFSDirectionOptimizing runs Beamer-style direction-optimizing BFS: the
// classic top-down frontier expansion switches to bottom-up (every
// unvisited vertex scans its in-neighbors for a frontier parent) when the
// frontier's out-edge volume crosses |E|/alpha, and back when the frontier
// shrinks below |V|/beta. On small-world graphs the bottom-up phase skips
// the bulk of the edge work in the two or three "fat" middle levels —
// the same optimization Gemini's dense mode implements.
//
// It is the kernel's auto mode: one edge-map per level with direction
// switching and early-exit pull scans enabled.
//
// Distances are identical to BFS; only the work (and therefore the
// simulated time) differs.
func (e *Engine) BFSDirectionOptimizing(source graph.VertexID) (*BFSResult, error) {
	n := e.g.NumVertices()
	if int(source) >= n {
		return nil, fmt.Errorf("engine: BFS source %d out of range", source)
	}
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[source] = 0
	frontier := SubsetFromVertices(n, []graph.VertexID{source})
	frontierEdges := int64(e.g.OutDegree(source))
	st := e.newKernelState()
	depth := int32(0)
	spec := &edgeMapSpec{
		key: func(graph.VertexID) uint64 { return uint64(depth) },
		cur: func(v graph.VertexID) uint64 {
			if dist[v] < 0 {
				return unsetKey
			}
			return uint64(dist[v])
		},
		apply:     func(v graph.VertexID, key uint64) { dist[v] = int32(key) },
		auto:      true,
		stopEarly: true,
	}

	res := &BFSResult{}
	for depth = 1; frontier.Len() > 0; depth++ {
		w := e.cl.NewCounters()
		out := e.edgeMap(spec, st, frontier, frontierEdges, w)
		frontier, frontierEdges = out.frontier, out.frontierEdges
		res.Stats.Add(e.cl.FinishIteration(w))
	}
	res.Dist = dist
	for _, d := range dist {
		if d >= 0 {
			res.Reached++
		}
	}
	return res, nil
}
