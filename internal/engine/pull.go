package engine

import (
	"fmt"

	"bpart/internal/fault"
	"bpart/internal/graph"
)

// PageRankPull runs PageRank in Gemini's pull mode: every machine computes
// its owned vertices' next ranks by pulling contributions along in-edges
// from the transpose. Communication is mirror-based, as in Gemini: a
// remote in-neighbor's value is fetched once per (machine, vertex) pair
// and cached for the iteration, so the message count is the number of
// mirrors touched rather than the number of cut edges — the reason pull
// mode wins on dense iterations over high-cut partitions. Every superstep
// touches every mirror, so it is charged the accounting tables' constant
// per-machine mirror counts.
//
// Each vertex's float sum is produced by exactly one chunk in transpose
// adjacency order, so ranks are bit-identical at any worker count. They
// equal the push-mode PageRank's up to float association order.
func (e *Engine) PageRankPull(iters int, damping float64) (*PRResult, error) {
	if iters <= 0 {
		return nil, fmt.Errorf("engine: PageRankPull iters = %d", iters)
	}
	if damping < 0 || damping >= 1 {
		return nil, fmt.Errorf("engine: damping = %v, want [0,1)", damping)
	}
	n := e.g.NumVertices()
	tr := e.transpose()
	ranks := make([]float64, n)
	for v := range ranks {
		ranks[v] = 1 / float64(n)
	}
	contrib := make([]float64, n)
	next := make([]float64, n)

	res := &PRResult{}
	it := -1
	if e.flt != nil {
		err := e.flt.BeginRun(fault.Hooks{
			Save: func() any {
				return &prSnap{ranks: append([]float64(nil), ranks...), it: it}
			},
			Restore: func(s any) {
				sn := s.(*prSnap)
				copy(ranks, sn.ranks)
				it = sn.it
			},
			Reassign: func(dead int, assignment []int) { e.reassign(assignment) },
		})
		if err != nil {
			return nil, err
		}
	}
	for it = 0; it < iters; it++ {
		base := e.contributions(ranks, contrib, damping)
		w := e.cl.NewCounters()
		a := e.accounts()
		combineCounters(w, a.machines, a.pull)
		e.chunkMap(n, func(_, lo, hi int) {
			for v := lo; v < hi; v++ {
				var sum float64
				for _, u := range tr.Neighbors(graph.VertexID(v)) {
					sum += contrib[u]
				}
				next[v] = base + damping*sum
			}
		})
		ranks, next = next, ranks
		res.Stats.Add(e.cl.FinishIteration(w))
		if e.flt != nil && e.flt.EndSuperstep(&res.Stats) == fault.Restored {
			continue
		}
	}
	if e.flt != nil {
		rec := e.flt.Finish(&res.Stats)
		res.Recovery = &rec
	}
	res.Ranks = ranks
	return res, nil
}
