package engine

import "bpart/internal/graph"

// VertexSubset is a Ligra-style frontier: a set of vertices over a
// universe [0, n) held either sparsely (a sorted slice of members) or
// densely (a membership bitmap), with automatic switching between the two
// as the set grows or shrinks. The representation is an execution detail,
// never an output: both forms iterate members in ascending vertex order,
// so the kernel's counters and results are identical whichever one a
// frontier happens to be in.
type VertexSubset struct {
	n     int
	count int
	// Exactly one of the two is the active representation.
	dense  []bool           // non-nil in dense mode
	sparse []graph.VertexID // sorted ascending in sparse mode
}

// denseRatio is the switch threshold: a subset goes dense when it holds
// more than n/denseRatio members, sparse again below. Ligra uses |V|/20
// for its edge-map threshold; here a dense frontier is also what turns an
// edge-map superstep from a scatter into a gather (edgemap.go).
const denseRatio = 10

// NewVertexSubset returns the empty subset over [0, n).
func NewVertexSubset(n int) *VertexSubset {
	return &VertexSubset{n: n}
}

// FullVertexSubset returns the subset holding every vertex of [0, n).
func FullVertexSubset(n int) *VertexSubset {
	d := make([]bool, n)
	for i := range d {
		d[i] = true
	}
	return &VertexSubset{n: n, count: n, dense: d}
}

// SubsetFromVertices builds a subset from members, which must be sorted
// ascending and duplicate-free (the kernel's merge produces exactly that).
// The representation is chosen by the usual threshold.
func SubsetFromVertices(n int, members []graph.VertexID) *VertexSubset {
	//bpartlint:ignore aliasret the subset takes ownership of members; the kernel hands it freshly built slices
	s := &VertexSubset{n: n, count: len(members), sparse: members}
	s.settle()
	return s
}

// settle moves the subset to the representation its size calls for.
func (s *VertexSubset) settle() {
	if s.count*denseRatio > s.n {
		s.toDense()
	} else {
		s.toSparse()
	}
}

func (s *VertexSubset) toDense() {
	if s.dense != nil {
		return
	}
	d := make([]bool, s.n)
	for _, v := range s.sparse {
		d[v] = true
	}
	s.dense = d
	s.sparse = nil
}

func (s *VertexSubset) toSparse() {
	if s.dense == nil {
		return
	}
	sp := make([]graph.VertexID, 0, s.count)
	for v, in := range s.dense {
		if in {
			sp = append(sp, graph.VertexID(v))
		}
	}
	s.sparse = sp
	s.dense = nil
}

// N returns the universe size.
func (s *VertexSubset) N() int { return s.n }

// Len returns the member count.
func (s *VertexSubset) Len() int { return s.count }

// IsDense reports whether the bitmap representation is active.
func (s *VertexSubset) IsDense() bool { return s.dense != nil }

// Vertices returns the members in ascending order, converting if needed.
// The returned slice is the subset's own storage — read-only for callers.
func (s *VertexSubset) Vertices() []graph.VertexID {
	s.toSparse()
	return s.sparse
}

// subsetMembers returns a fresh copy of s's members in ascending order,
// without disturbing the active representation (checkpoint Save hooks use
// it so snapshotting never perturbs the run).
func subsetMembers(s *VertexSubset) []graph.VertexID {
	out := make([]graph.VertexID, 0, s.Len())
	s.ForEach(func(v graph.VertexID) { out = append(out, v) })
	return out
}

// ForEach calls fn for every member in ascending vertex order, whichever
// representation is active.
func (s *VertexSubset) ForEach(fn func(v graph.VertexID)) {
	if s.dense != nil {
		for v, in := range s.dense {
			if in {
				fn(graph.VertexID(v))
			}
		}
		return
	}
	for _, v := range s.sparse {
		fn(v)
	}
}
