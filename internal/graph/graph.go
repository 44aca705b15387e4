// Package graph provides an immutable, compressed-sparse-row (CSR) directed
// graph representation used by every other package in this repository: the
// streaming partitioners, the BPart combiner, the Gemini-like BSP engine and
// the KnightKing-like random-walk engine.
//
// Vertices are dense uint32 identifiers in [0, NumVertices()). Edges are
// directed; an undirected graph is represented by storing both arcs. The
// edge count NumEdges() counts directed arcs, matching how the paper's
// systems (Gemini, KnightKing) account subgraph size: the number of edges of
// a partition is the sum of out-degrees of its vertices.
package graph

import (
	"fmt"
	"slices"
)

// VertexID identifies a vertex. Dense, zero-based.
type VertexID = uint32

// Edge is a directed arc from Src to Dst.
type Edge struct {
	Src VertexID
	Dst VertexID
}

// Graph is an immutable directed graph in CSR form.
//
// The zero value is an empty graph with no vertices. Construct non-empty
// graphs with a Builder or FromEdges. Every adjacency list is sorted by
// target in non-decreasing order (parallel arcs sit next to each other);
// every constructor guarantees it, Validate checks it and HasEdge relies on
// it. All methods are safe for concurrent use because the structure is never
// mutated after construction.
type Graph struct {
	offsets []uint64 // len = numVertices+1
	targets []VertexID
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// NumEdges returns the number of directed arcs.
func (g *Graph) NumEdges() int { return len(g.targets) }

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v VertexID) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the out-neighbors of v as a shared slice.
// Callers must not modify the returned slice.
func (g *Graph) Neighbors(v VertexID) []VertexID {
	return g.targets[g.offsets[v]:g.offsets[v+1]]
}

// AvgDegree returns the average out-degree, the d̄ of the paper's weighted
// balance indicator W_i = c·|V_i| + (1−c)·|E_i|/d̄.
func (g *Graph) AvgDegree() float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	return float64(g.NumEdges()) / float64(n)
}

// HasEdge reports whether the arc (src, dst) exists, by binary search over
// the sorted adjacency of src.
func (g *Graph) HasEdge(src, dst VertexID) bool {
	_, ok := slices.BinarySearch(g.Neighbors(src), dst)
	return ok
}

// Edges calls fn for every arc in vertex order. It stops early if fn
// returns false.
func (g *Graph) Edges(fn func(e Edge) bool) {
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(VertexID(v)) {
			if !fn(Edge{Src: VertexID(v), Dst: u}) {
				return
			}
		}
	}
}

// EdgeList materializes all arcs. Intended for tests and small graphs.
func (g *Graph) EdgeList() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	g.Edges(func(e Edge) bool {
		out = append(out, e)
		return true
	})
	return out
}

// Transpose returns the graph with every arc reversed. Used by pull-style
// computations and by tests that need in-neighbor access.
//
// It builds the CSR straight from g's in O(|V|+|E|): count in-degrees,
// prefix-sum them into offsets, then fill each in-list by visiting sources
// in ascending order, so every list comes out sorted with parallel arcs
// kept, exactly as Builder.Build would lay it out, without the sort.
func (g *Graph) Transpose() *Graph {
	n := g.NumVertices()
	offsets := make([]uint64, n+1)
	for _, u := range g.targets {
		offsets[u+1]++
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	// Fill through offsets[u] as u's write cursor; afterwards offsets[u]
	// holds u's end, which is offsets[u+1]'s final value, so shifting the
	// array up one slot restores the starts.
	targets := make([]VertexID, len(g.targets))
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(VertexID(v)) {
			targets[offsets[u]] = VertexID(v)
			offsets[u]++
		}
	}
	copy(offsets[1:], offsets[:n])
	offsets[0] = 0
	return &Graph{offsets: offsets, targets: targets}
}

// Degrees returns a freshly allocated slice of out-degrees.
func (g *Graph) Degrees() []int {
	d := make([]int, g.NumVertices())
	for v := range d {
		d[v] = g.OutDegree(VertexID(v))
	}
	return d
}

// Validate checks structural invariants: monotone offsets, in-range targets
// and sorted adjacency lists. It returns nil for a well-formed graph.
func (g *Graph) Validate() error {
	n := g.NumVertices()
	if n == 0 {
		if len(g.targets) != 0 {
			return fmt.Errorf("graph: %d targets but no vertices", len(g.targets))
		}
		return nil
	}
	if g.offsets[0] != 0 {
		return fmt.Errorf("graph: offsets[0] = %d, want 0", g.offsets[0])
	}
	if g.offsets[n] != uint64(len(g.targets)) {
		return fmt.Errorf("graph: offsets[n] = %d, want %d", g.offsets[n], len(g.targets))
	}
	for v := 0; v < n; v++ {
		if g.offsets[v] > g.offsets[v+1] {
			return fmt.Errorf("graph: offsets not monotone at vertex %d", v)
		}
	}
	for i, t := range g.targets {
		if int(t) >= n {
			return fmt.Errorf("graph: target %d of arc %d out of range [0,%d)", t, i, n)
		}
	}
	for v := 0; v < n; v++ {
		if !slices.IsSorted(g.Neighbors(VertexID(v))) {
			return fmt.Errorf("graph: adjacency of vertex %d not sorted", v)
		}
	}
	return nil
}

// String returns a short summary such as "graph(|V|=5, |E|=7)".
func (g *Graph) String() string {
	return fmt.Sprintf("graph(|V|=%d, |E|=%d)", g.NumVertices(), g.NumEdges())
}
