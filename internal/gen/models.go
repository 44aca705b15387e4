package gen

import (
	"fmt"
	"sort"

	"bpart/internal/graph"
	"bpart/internal/xrand"
)

// RMATConfig parameterizes the recursive-matrix (R-MAT) generator of
// Chakrabarti et al., the standard scale-free generator in the Graph500
// benchmark. Quadrant probabilities (A,B,C,D) must sum to 1; the classic
// skewed setting is (0.57, 0.19, 0.19, 0.05).
type RMATConfig struct {
	// Scale: the graph has 2^Scale vertices.
	Scale int
	// EdgeFactor: arcs per vertex; total arcs = EdgeFactor·2^Scale.
	EdgeFactor int
	A, B, C    float64 // D = 1 − A − B − C
	Seed       uint64
}

// RMAT generates an R-MAT graph.
func RMAT(cfg RMATConfig) (*graph.Graph, error) {
	if cfg.Scale <= 0 || cfg.Scale > 28 {
		return nil, fmt.Errorf("gen: RMAT scale %d out of range (0,28]", cfg.Scale)
	}
	if cfg.EdgeFactor <= 0 {
		return nil, fmt.Errorf("gen: RMAT edge factor %d, want > 0", cfg.EdgeFactor)
	}
	d := 1 - cfg.A - cfg.B - cfg.C
	if cfg.A < 0 || cfg.B < 0 || cfg.C < 0 || d < -1e-9 {
		return nil, fmt.Errorf("gen: RMAT probabilities (%v,%v,%v) invalid", cfg.A, cfg.B, cfg.C)
	}
	n := 1 << cfg.Scale
	m := n * cfg.EdgeFactor
	rng := xrand.New(cfg.Seed)
	b := graph.NewBuilder(n)
	b.Reserve(m)
	for i := 0; i < m; i++ {
		src, dst := 0, 0
		for bit := 0; bit < cfg.Scale; bit++ {
			u := rng.Float64()
			switch {
			case u < cfg.A:
				// top-left: no bits set
			case u < cfg.A+cfg.B:
				dst |= 1 << bit
			case u < cfg.A+cfg.B+cfg.C:
				src |= 1 << bit
			default:
				src |= 1 << bit
				dst |= 1 << bit
			}
		}
		b.AddEdge(graph.VertexID(src), graph.VertexID(dst))
	}
	return b.Build(), nil
}

// BarabasiAlbert generates an undirected preferential-attachment graph with
// attach arcs per new vertex (stored as both directed arcs). Vertex 0..attach
// form an initial clique-free seed chain. Older vertices accumulate degree,
// so IDs and degree are naturally correlated — the same property the ranked
// Chung–Lu model builds in explicitly.
func BarabasiAlbert(n, attach int, seed uint64) (*graph.Graph, error) {
	if n <= 0 || attach <= 0 {
		return nil, fmt.Errorf("gen: BA with n=%d attach=%d", n, attach)
	}
	if attach >= n {
		return nil, fmt.Errorf("gen: BA attach %d must be < n %d", attach, n)
	}
	rng := xrand.New(seed)
	b := graph.NewBuilder(n)
	// endpoints holds one entry per arc endpoint; sampling uniformly from
	// it implements preferential attachment.
	endpoints := make([]graph.VertexID, 0, 2*n*attach)
	// Seed chain 0-1-2-...-attach.
	for v := 1; v <= attach; v++ {
		b.AddUndirected(graph.VertexID(v-1), graph.VertexID(v))
		endpoints = append(endpoints, graph.VertexID(v-1), graph.VertexID(v))
	}
	for v := attach + 1; v < n; v++ {
		chosen := make(map[graph.VertexID]bool, attach)
		for len(chosen) < attach {
			t := endpoints[rng.Intn(len(endpoints))]
			if int(t) != v {
				chosen[t] = true
			}
		}
		// Attach in sorted target order: chosen is a map, and letting its
		// iteration order pick the arc insertion order (and the endpoints
		// slice the next rounds sample from) made every run grow a
		// different graph from the same seed.
		targets := make([]graph.VertexID, 0, len(chosen))
		for t := range chosen {
			targets = append(targets, t)
		}
		sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
		for _, t := range targets {
			b.AddUndirected(graph.VertexID(v), t)
			endpoints = append(endpoints, graph.VertexID(v), t)
		}
	}
	return b.Build(), nil
}

// ErdosRenyi generates a directed G(n, m) graph with m = n·avgDegree
// uniformly random arcs (self-loops excluded). It has no skew and serves as
// the control case: on it, Chunk-V and Chunk-E are both balanced and BPart
// has nothing to fix.
func ErdosRenyi(n int, avgDegree float64, seed uint64) (*graph.Graph, error) {
	if n <= 1 || avgDegree < 0 {
		return nil, fmt.Errorf("gen: ER with n=%d avgDegree=%v", n, avgDegree)
	}
	m := int(float64(n) * avgDegree)
	rng := xrand.New(seed)
	b := graph.NewBuilder(n)
	b.Reserve(m)
	for i := 0; i < m; i++ {
		src := rng.Intn(n)
		dst := rng.Intn(n - 1)
		if dst >= src {
			dst++
		}
		b.AddEdge(graph.VertexID(src), graph.VertexID(dst))
	}
	return b.Build(), nil
}

// Ring generates a directed cycle 0→1→…→n−1→0. Used by tests that need a
// fully deterministic, perfectly regular graph.
func Ring(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.AddEdge(graph.VertexID(v), graph.VertexID((v+1)%n))
	}
	return b.Build()
}
