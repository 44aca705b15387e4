package main

import (
	"fmt"
	"io"
	"math"
	"sort"

	"bpart/internal/graph"
)

// The oracles below are deliberately naive sequential references that
// share no code with the engine, walk or servestats kernels they check.

// checker counts ops and failures and names every failure's workload,
// seed and op index.
type checker struct {
	workload          string
	seed              uint64
	log               io.Writer
	attempted, failed int
}

// op records one attempted op; any non-nil error marks it failed.
func (c *checker) op(i int, errs ...error) {
	c.attempted++
	var bad []error
	for _, err := range errs {
		if err != nil {
			bad = append(bad, err)
		}
	}
	if len(bad) > 0 {
		c.failed++
		fmt.Fprintf(c.log, "perfbench: MISMATCH workload=%s seed=%d op=%d: %v\n", c.workload, c.seed, i, bad)
	}
}

// naivePageRank is power iteration with the engine's documented
// semantics: uniform start, damping d, dangling mass spread uniformly.
func naivePageRank(g *graph.Graph, iters int, d float64) []float64 {
	n := g.NumVertices()
	ranks := make([]float64, n)
	for v := range ranks {
		ranks[v] = 1 / float64(n)
	}
	next := make([]float64, n)
	for it := 0; it < iters; it++ {
		var dangling float64
		for v := range next {
			next[v] = 0
		}
		for v := 0; v < n; v++ {
			ns := g.Neighbors(graph.VertexID(v))
			if len(ns) == 0 {
				dangling += ranks[v]
				continue
			}
			share := ranks[v] / float64(len(ns))
			for _, u := range ns {
				next[u] += share
			}
		}
		base := (1-d)/float64(n) + d*dangling/float64(n)
		for v := range next {
			ranks[v] = base + d*next[v]
		}
	}
	return ranks
}

// checkRanks compares ranks with the reference by L1 distance.
func checkRanks(got, want []float64, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("pagerank: %d ranks, want %d", len(got), len(want))
	}
	var l1 float64
	for v := range got {
		l1 += math.Abs(got[v] - want[v])
	}
	if !(l1 <= tol) {
		return fmt.Errorf("pagerank: L1 distance %g to the reference exceeds %g", l1, tol)
	}
	return nil
}

// naiveCC labels every vertex with the smallest vertex ID of its weak
// component, by union-find over the arcs.
func naiveCC(g *graph.Graph) []uint32 {
	n := g.NumVertices()
	parent := make([]uint32, n)
	for v := range parent {
		parent[v] = uint32(v)
	}
	var find func(x uint32) uint32
	find = func(x uint32) uint32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(graph.VertexID(v)) {
			a, b := find(uint32(v)), find(u)
			// Union by smaller root, so each root is its component's
			// minimum vertex.
			if a < b {
				parent[b] = a
			} else if b < a {
				parent[a] = b
			}
		}
	}
	labels := make([]uint32, n)
	for v := range labels {
		labels[v] = find(uint32(v))
	}
	return labels
}

func checkLabels(got, want []uint32) error {
	if len(got) != len(want) {
		return fmt.Errorf("cc: %d labels, want %d", len(got), len(want))
	}
	for v := range got {
		if got[v] != want[v] {
			return fmt.Errorf("cc: vertex %d label %d, want %d", v, got[v], want[v])
		}
	}
	return nil
}

// naiveBFS is a queue BFS over out-edges; -1 marks unreachable vertices.
func naiveBFS(g *graph.Graph, src graph.VertexID) []int32 {
	dist := make([]int32, g.NumVertices())
	for v := range dist {
		dist[v] = -1
	}
	dist[src] = 0
	queue := []graph.VertexID{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(v) {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

func checkDist(got, want []int32) error {
	if len(got) != len(want) {
		return fmt.Errorf("bfs: %d distances, want %d", len(got), len(want))
	}
	for v := range got {
		if got[v] != want[v] {
			return fmt.Errorf("bfs: vertex %d at distance %d, want %d", v, got[v], want[v])
		}
	}
	return nil
}

// khopCounter counts the vertices within h hops of a source (source
// excluded), reusing one epoch-stamped visited array.
type khopCounter struct {
	g     *graph.Graph
	stamp []uint32
	epoch uint32
}

func newKHopCounter(g *graph.Graph) *khopCounter {
	return &khopCounter{g: g, stamp: make([]uint32, g.NumVertices())}
}

func (k *khopCounter) count(src graph.VertexID, hops int) int {
	k.epoch++
	k.stamp[src] = k.epoch
	frontier := []graph.VertexID{src}
	count := 0
	for d := 0; d < hops; d++ {
		var next []graph.VertexID
		for _, v := range frontier {
			for _, u := range k.g.Neighbors(v) {
				if k.stamp[u] != k.epoch {
					k.stamp[u] = k.epoch
					next = append(next, u)
				}
			}
		}
		count += len(next)
		frontier = next
	}
	return count
}

// checkCorpus verifies a walk corpus edge by edge: one path per start
// vertex, every consecutive pair an arc, and every path steps+1 vertices
// long unless it stopped early at a vertex with no out-edges.
func checkCorpus(g *graph.Graph, paths [][]graph.VertexID, steps int) error {
	n := g.NumVertices()
	if len(paths) != n {
		return fmt.Errorf("walk: %d paths, want one per vertex (%d)", len(paths), n)
	}
	starts := make([]bool, n)
	for i, p := range paths {
		if len(p) == 0 || len(p) > steps+1 {
			return fmt.Errorf("walk: path %d has %d vertices, want 1..%d", i, len(p), steps+1)
		}
		if starts[p[0]] {
			return fmt.Errorf("walk: two paths start at vertex %d", p[0])
		}
		starts[p[0]] = true
		for j := 1; j < len(p); j++ {
			if !hasArc(g, p[j-1], p[j]) {
				return fmt.Errorf("walk: path %d step %d: %d→%d is not an arc", i, j, p[j-1], p[j])
			}
		}
		if last := p[len(p)-1]; len(p) < steps+1 && g.OutDegree(last) > 0 {
			return fmt.Errorf("walk: path %d stopped after %d of %d steps at vertex %d with out-edges", i, len(p)-1, steps, last)
		}
	}
	return nil
}

// hasArc binary-searches src's adjacency, which the CSR keeps sorted.
func hasArc(g *graph.Graph, src, dst graph.VertexID) bool {
	ns := g.Neighbors(src)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= dst })
	return i < len(ns) && ns[i] == dst
}
