package graph

import (
	"fmt"
	"slices"
)

// Builder accumulates edges and produces an immutable CSR Graph.
//
// AddEdge appends each arc to two staging slices, which grow by doubling
// unless Reserve sized them up front; that growth, not the CSR layout, is
// most of what building allocates. Build then lays the arcs out with a
// two-pass counting sort in O(|V|+|E|) and sorts each adjacency list, which
// costs O(d log d) for a vertex of degree d. A Builder may be reused after
// Build; the built graph does not alias the builder's buffers.
type Builder struct {
	numVertices int
	srcs        []VertexID
	dsts        []VertexID
}

// NewBuilder returns a Builder for a graph with n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	return &Builder{numVertices: n}
}

// NumVertices returns the declared vertex count.
func (b *Builder) NumVertices() int { return b.numVertices }

// NumEdges returns the number of arcs added so far.
func (b *Builder) NumEdges() int { return len(b.srcs) }

// Grow raises the vertex count to at least n.
func (b *Builder) Grow(n int) {
	if n > b.numVertices {
		b.numVertices = n
	}
}

// Reserve makes room for arcs more AddEdge calls without reallocating. It
// is only a capacity hint: adding more arcs than reserved still works.
// Call it only with a count the program itself computed, never with a size
// read from untrusted input, because the memory is committed at once.
func (b *Builder) Reserve(arcs int) {
	b.srcs = slices.Grow(b.srcs, arcs)
	b.dsts = slices.Grow(b.dsts, arcs)
}

// AddEdge records the directed arc (src, dst). Both endpoints must be below
// the declared vertex count.
func (b *Builder) AddEdge(src, dst VertexID) {
	if int(src) >= b.numVertices || int(dst) >= b.numVertices {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", src, dst, b.numVertices))
	}
	b.srcs = append(b.srcs, src)
	b.dsts = append(b.dsts, dst)
}

// AddUndirected records both arcs (src,dst) and (dst,src).
func (b *Builder) AddUndirected(src, dst VertexID) {
	b.AddEdge(src, dst)
	b.AddEdge(dst, src)
}

// Build produces the immutable graph. Adjacency lists are sorted by target;
// parallel arcs are kept (multigraphs are legal inputs for the partitioners,
// which only ever count arcs).
func (b *Builder) Build() *Graph {
	n := b.numVertices
	offsets := make([]uint64, n+1)
	for _, s := range b.srcs {
		offsets[s+1]++
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	targets := make([]VertexID, len(b.srcs))
	cursor := make([]uint64, n)
	copy(cursor, offsets[:n])
	for i, s := range b.srcs {
		targets[cursor[s]] = b.dsts[i]
		cursor[s]++
	}
	for v := 0; v < n; v++ {
		slices.Sort(targets[offsets[v]:offsets[v+1]])
	}
	return &Graph{offsets: offsets, targets: targets}
}

// FromEdges builds a graph with n vertices from an edge list.
func FromEdges(n int, edges []Edge) *Graph {
	b := NewBuilder(n)
	b.Reserve(len(edges))
	for _, e := range edges {
		b.AddEdge(e.Src, e.Dst)
	}
	return b.Build()
}

// FromAdjacency builds a graph from an adjacency-list description; adj[v]
// holds the out-neighbors of v. Handy for table-driven tests.
func FromAdjacency(adj [][]VertexID) *Graph {
	b := NewBuilder(len(adj))
	arcs := 0
	for _, ns := range adj {
		arcs += len(ns)
	}
	b.Reserve(arcs)
	for v, ns := range adj {
		for _, u := range ns {
			b.AddEdge(VertexID(v), u)
		}
	}
	return b.Build()
}
