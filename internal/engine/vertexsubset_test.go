package engine

import (
	"sort"
	"testing"

	"bpart/internal/graph"
)

// members builds a sorted, duplicate-free member slice from ints.
func members(vs ...int) []graph.VertexID {
	out := make([]graph.VertexID, len(vs))
	for i, v := range vs {
		out[i] = graph.VertexID(v)
	}
	return out
}

// contains reports membership of v through ForEach, which walks
// whichever representation is active.
func contains(s *VertexSubset, v graph.VertexID) bool {
	found := false
	s.ForEach(func(u graph.VertexID) { found = found || u == v })
	return found
}

func TestVertexSubsetEmptyAndFull(t *testing.T) {
	const n = 50
	empty := NewVertexSubset(n)
	if empty.Len() != 0 || empty.N() != n || empty.IsDense() {
		t.Fatalf("empty subset: len=%d n=%d dense=%t", empty.Len(), empty.N(), empty.IsDense())
	}
	if contains(empty, 0) || contains(empty, n-1) {
		t.Fatal("empty subset contains a vertex")
	}
	empty.ForEach(func(v graph.VertexID) { t.Fatalf("ForEach visited %d on empty subset", v) })

	full := FullVertexSubset(n)
	if full.Len() != n || !full.IsDense() {
		t.Fatalf("full subset: len=%d dense=%t", full.Len(), full.IsDense())
	}
	var seen int
	prev := graph.VertexID(0)
	full.ForEach(func(v graph.VertexID) {
		if seen > 0 && v <= prev {
			t.Fatalf("ForEach out of order: %d after %d", v, prev)
		}
		prev = v
		seen++
	})
	if seen != n {
		t.Fatalf("ForEach visited %d of %d", seen, n)
	}
	for v := 0; v < n; v++ {
		if !contains(full, graph.VertexID(v)) {
			t.Fatalf("full subset missing %d", v)
		}
	}
}

func TestVertexSubsetThresholdSwitching(t *testing.T) {
	const n = 100 // dense when count*denseRatio > n, i.e. count >= 11
	small := SubsetFromVertices(n, members(3, 17, 42))
	if small.IsDense() {
		t.Fatalf("3/%d members settled dense", n)
	}
	atEdge := SubsetFromVertices(n, members(0, 1, 2, 3, 4, 5, 6, 7, 8, 9))
	if atEdge.IsDense() {
		t.Fatalf("%d/%d members settled dense, threshold is count*%d > n", atEdge.Len(), n, denseRatio)
	}
	big := SubsetFromVertices(n, members(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10))
	if !big.IsDense() {
		t.Fatalf("%d/%d members stayed sparse past the threshold", big.Len(), n)
	}
	// Conversions are views of the same set: membership survives both ways.
	small.toDense()
	bm := small.dense
	if !small.IsDense() {
		t.Fatal("toDense did not convert to dense")
	}
	if !bm[17] || bm[18] {
		t.Fatal("bitmap view wrong")
	}
	vs := small.Vertices()
	if small.IsDense() {
		t.Fatal("Vertices did not convert to sparse")
	}
	if len(vs) != 3 || vs[0] != 3 || vs[1] != 17 || vs[2] != 42 {
		t.Fatalf("sparse view %v", vs)
	}
}

func TestSubsetMembersDoesNotConvert(t *testing.T) {
	const n = 100
	s := FullVertexSubset(n)
	got := subsetMembers(s)
	if !s.IsDense() {
		t.Fatal("subsetMembers converted the representation")
	}
	if len(got) != n {
		t.Fatalf("got %d members", len(got))
	}
	// The copy is fresh storage: mutating it must not touch the subset.
	got[0] = graph.VertexID(n + 1)
	if !contains(s, 0) {
		t.Fatal("subsetMembers aliased subset storage")
	}
}

// FuzzVertexSubsetRoundTrip drives random membership sets through both
// representations and checks that membership, order and count survive
// every conversion.
func FuzzVertexSubsetRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint8(16))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, uint8(8))
	f.Add([]byte{250, 251, 252, 1, 1, 1}, uint8(255))
	f.Fuzz(func(t *testing.T, raw []byte, nRaw uint8) {
		n := int(nRaw)
		if n == 0 {
			n = 1
		}
		want := map[int]bool{}
		for _, b := range raw {
			want[int(b)%n] = true
		}
		var ms []graph.VertexID
		for v := range want {
			ms = append(ms, graph.VertexID(v))
		}
		sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })

		s := SubsetFromVertices(n, ms)
		check := func(stage string) {
			t.Helper()
			if s.Len() != len(want) || s.N() != n {
				t.Fatalf("%s: len=%d n=%d, want %d/%d", stage, s.Len(), s.N(), len(want), n)
			}
			for v := 0; v < n; v++ {
				if contains(s, graph.VertexID(v)) != want[v] {
					t.Fatalf("%s: contains(%d) = %t", stage, v, !want[v])
				}
			}
			var visited []graph.VertexID
			s.ForEach(func(v graph.VertexID) { visited = append(visited, v) })
			if len(visited) != len(want) {
				t.Fatalf("%s: ForEach visited %d of %d", stage, len(visited), len(want))
			}
			for i := 1; i < len(visited); i++ {
				if visited[i] <= visited[i-1] {
					t.Fatalf("%s: ForEach out of order at %d: %v", stage, i, visited)
				}
			}
		}
		check("settled")
		s.toDense() // force dense
		check("dense")
		s.Vertices() // force sparse
		check("sparse")
		s.toDense() // and back again
		check("dense-again")
	})
}
