package graph

import (
	"bpart/internal/xrand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func diamond() *Graph {
	// 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3, 3 -> 0
	return FromEdges(4, []Edge{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 0}})
}

func TestEmptyGraph(t *testing.T) {
	var g Graph
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("zero graph not empty: %v", g.String())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("zero graph invalid: %v", err)
	}
	if g.AvgDegree() != 0 {
		t.Fatalf("AvgDegree of empty graph = %v, want 0", g.AvgDegree())
	}
}

func TestBuilderBasic(t *testing.T) {
	g := diamond()
	if g.NumVertices() != 4 {
		t.Fatalf("NumVertices = %d, want 4", g.NumVertices())
	}
	if g.NumEdges() != 5 {
		t.Fatalf("NumEdges = %d, want 5", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	wantDeg := []int{2, 1, 1, 1}
	if got := g.Degrees(); !reflect.DeepEqual(got, wantDeg) {
		t.Fatalf("Degrees = %v, want %v", got, wantDeg)
	}
	if got := g.Neighbors(0); !reflect.DeepEqual(got, []VertexID{1, 2}) {
		t.Fatalf("Neighbors(0) = %v", got)
	}
}

func TestAdjacencySorted(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 2)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	g := b.Build()
	ns := g.Neighbors(0)
	if !sort.SliceIsSorted(ns, func(i, j int) bool { return ns[i] < ns[j] }) {
		t.Fatalf("adjacency not sorted: %v", ns)
	}
	if len(ns) != 3 {
		t.Fatalf("parallel arcs must be preserved, got %v", ns)
	}
}

func TestHasEdge(t *testing.T) {
	g := diamond()
	cases := []struct {
		s, d VertexID
		want bool
	}{
		{0, 1, true}, {0, 2, true}, {0, 3, false},
		{1, 3, true}, {3, 0, true}, {1, 0, false}, {2, 2, false},
	}
	for _, c := range cases {
		if got := g.HasEdge(c.s, c.d); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", c.s, c.d, got, c.want)
		}
	}
}

// TestValidateRejectsUnsorted pins the invariant HasEdge's binary search
// relies on: an adjacency list out of order is malformed.
func TestValidateRejectsUnsorted(t *testing.T) {
	g := &Graph{offsets: []uint64{0, 1, 4}, targets: []VertexID{1, 1, 0, 1}}
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted vertex 1's unsorted adjacency [1 0 1]")
	}
	g.targets[1] = 0 // [0 0 1]: sorted, with a parallel arc
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate rejected sorted adjacency: %v", err)
	}
}

func TestAddUndirected(t *testing.T) {
	b := NewBuilder(2)
	b.AddUndirected(0, 1)
	g := b.Build()
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatalf("undirected arc missing: %v", g.EdgeList())
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
}

func TestBuilderGrow(t *testing.T) {
	b := NewBuilder(1)
	b.Grow(5)
	b.AddEdge(4, 0)
	g := b.Build()
	if g.NumVertices() != 5 {
		t.Fatalf("NumVertices = %d, want 5", g.NumVertices())
	}
	b.Grow(2) // shrinking is a no-op
	if b.NumVertices() != 5 {
		t.Fatalf("Grow shrank the builder to %d", b.NumVertices())
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge out of range did not panic")
		}
	}()
	NewBuilder(2).AddEdge(0, 2)
}

func TestNewBuilderNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBuilder(-1) did not panic")
		}
	}()
	NewBuilder(-1)
}

func TestTranspose(t *testing.T) {
	g := diamond()
	tr := g.Transpose()
	if tr.NumEdges() != g.NumEdges() {
		t.Fatalf("transpose edge count %d != %d", tr.NumEdges(), g.NumEdges())
	}
	g.Edges(func(e Edge) bool {
		if !tr.HasEdge(e.Dst, e.Src) {
			t.Errorf("transpose missing reversed arc of %v", e)
		}
		return true
	})
	// Double transpose must be the original edge multiset.
	back := tr.Transpose()
	a, b := g.EdgeList(), back.EdgeList()
	sortEdges(a)
	sortEdges(b)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("double transpose changed edges")
	}
}

func sortEdges(es []Edge) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].Src != es[j].Src {
			return es[i].Src < es[j].Src
		}
		return es[i].Dst < es[j].Dst
	})
}

func TestEdgesEarlyStop(t *testing.T) {
	g := diamond()
	count := 0
	g.Edges(func(e Edge) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("early stop visited %d edges, want 2", count)
	}
}

func TestFromAdjacency(t *testing.T) {
	g := FromAdjacency([][]VertexID{{1, 2}, {2}, {}})
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("unexpected shape %v", g)
	}
	if !g.HasEdge(0, 2) || !g.HasEdge(1, 2) {
		t.Fatalf("edges missing")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := diamond()
	sub, back := InducedSubgraph(g, []VertexID{0, 1, 3})
	if sub.NumVertices() != 3 {
		t.Fatalf("NumVertices = %d", sub.NumVertices())
	}
	// Kept arcs: 0->1, 1->3, 3->0 (0->2 and 2->3 dropped).
	if sub.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3: %v", sub.NumEdges(), sub.EdgeList())
	}
	if !reflect.DeepEqual(back, []VertexID{0, 1, 3}) {
		t.Fatalf("back map = %v", back)
	}
	if !sub.HasEdge(0, 1) || !sub.HasEdge(1, 2) || !sub.HasEdge(2, 0) {
		t.Fatalf("renumbered arcs wrong: %v", sub.EdgeList())
	}
}

func TestCountCrossEdges(t *testing.T) {
	g := diamond()
	all := CountCrossEdges(g, []int{0, 1, 1, 0})
	// cross arcs: 0->1, 0->2, 2->3 ... check by hand:
	// 0(p0)->1(p1) cross, 0->2(p1) cross, 1(p1)->3(p0) cross, 2(p1)->3(p0) cross, 3(p0)->0(p0) internal
	if all != 4 {
		t.Fatalf("cross = %d, want 4", all)
	}
	if c := CountCrossEdges(g, []int{0, 0, 0, 0}); c != 0 {
		t.Fatalf("single part cross = %d, want 0", c)
	}
}

func TestPartSizes(t *testing.T) {
	g := diamond()
	vs, es := PartSizes(g, []int{0, 1, 1, 0}, 2)
	if !reflect.DeepEqual(vs, []int{2, 2}) {
		t.Fatalf("vertex sizes = %v", vs)
	}
	// part0 owns v0(deg2)+v3(deg1)=3, part1 owns v1+v2 = 2
	if !reflect.DeepEqual(es, []int{3, 2}) {
		t.Fatalf("edge sizes = %v", es)
	}
}

func TestPairConnectivity(t *testing.T) {
	g := diamond()
	m := PairConnectivity(g, []int{0, 1, 1, 0}, 2)
	if m[0][1] != 2 { // 0->1, 0->2
		t.Fatalf("m[0][1] = %d, want 2", m[0][1])
	}
	if m[1][0] != 2 { // 1->3, 2->3
		t.Fatalf("m[1][0] = %d, want 2", m[1][0])
	}
	if m[0][0] != 1 { // 3->0
		t.Fatalf("m[0][0] = %d, want 1", m[0][0])
	}
	total := m[0][0] + m[0][1] + m[1][0] + m[1][1]
	if total != g.NumEdges() {
		t.Fatalf("connectivity total %d != |E| %d", total, g.NumEdges())
	}
}

func TestStatsSmall(t *testing.T) {
	g := diamond()
	s := ComputeStats(g)
	if s.NumVertices != 4 || s.NumEdges != 5 {
		t.Fatalf("stats shape wrong: %+v", s)
	}
	if s.MaxDegree != 2 {
		t.Fatalf("MaxDegree = %d, want 2", s.MaxDegree)
	}
	if s.AvgDegree != 1.25 {
		t.Fatalf("AvgDegree = %v, want 1.25", s.AvgDegree)
	}
	if s.ZeroDegree != 0 {
		t.Fatalf("ZeroDegree = %d", s.ZeroDegree)
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestStatsEmpty(t *testing.T) {
	s := ComputeStats(&Graph{})
	if s.NumVertices != 0 || s.GiniDegree != 0 {
		t.Fatalf("empty stats: %+v", s)
	}
}

func TestGini(t *testing.T) {
	if g := giniSorted([]int{5, 5, 5, 5}); g != 0 {
		t.Fatalf("uniform gini = %v, want 0", g)
	}
	// One vertex holds everything: gini = (n-1)/n = 0.75 for n=4.
	if g := giniSorted([]int{0, 0, 0, 100}); g != 0.75 {
		t.Fatalf("concentrated gini = %v, want 0.75", g)
	}
	if g := giniSorted(nil); g != 0 {
		t.Fatalf("nil gini = %v", g)
	}
	if g := giniSorted([]int{0, 0}); g != 0 {
		t.Fatalf("all-zero gini = %v", g)
	}
}

func TestDegreeHistogram(t *testing.T) {
	// degrees: 2,1,1,1 -> bucket0 ([1,2)) = 3, bucket1 ([2,4)) = 1
	h := DegreeHistogram(diamond())
	if len(h) != 2 || h[0] != 3 || h[1] != 1 {
		t.Fatalf("histogram = %v", h)
	}
}

func TestPercentileIndex(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want int
	}{
		{10, 0.5, 4}, {10, 0.99, 9}, {10, 0.0, 0}, {1, 0.9, 0}, {100, 1.0, 99},
	}
	for _, c := range cases {
		if got := percentileIndex(c.n, c.p); got != c.want {
			t.Errorf("percentileIndex(%d,%v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

// Property: for any random edge set, Build produces a validating graph whose
// edge multiset equals the input.
func TestQuickBuildRoundTrip(t *testing.T) {
	f := func(seed int64, rawN uint8, rawM uint16) bool {
		n := int(rawN)%64 + 1
		m := int(rawM) % 512
		rng := xrand.New(uint64(seed))
		in := make([]Edge, m)
		for i := range in {
			in[i] = Edge{VertexID(rng.Intn(n)), VertexID(rng.Intn(n))}
		}
		g := FromEdges(n, in)
		if err := g.Validate(); err != nil {
			t.Logf("invalid graph: %v", err)
			return false
		}
		if g.NumEdges() != m || g.NumVertices() != n {
			return false
		}
		out := g.EdgeList()
		sortEdges(in)
		sortEdges(out)
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: sum of out-degrees equals the edge count; per-part sizes always
// sum to the totals.
func TestQuickDegreeSums(t *testing.T) {
	f := func(seed int64) bool {
		rng := xrand.New(uint64(seed))
		n := rng.Intn(100) + 2
		m := rng.Intn(500)
		b := NewBuilder(n)
		for i := 0; i < m; i++ {
			b.AddEdge(VertexID(rng.Intn(n)), VertexID(rng.Intn(n)))
		}
		g := b.Build()
		sum := 0
		for _, d := range g.Degrees() {
			sum += d
		}
		if sum != g.NumEdges() {
			return false
		}
		k := rng.Intn(8) + 1
		assign := make([]int, n)
		for i := range assign {
			assign[i] = rng.Intn(k)
		}
		vs, es := PartSizes(g, assign, k)
		var tv, te int
		for i := 0; i < k; i++ {
			tv += vs[i]
			te += es[i]
		}
		return tv == n && te == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: cross edges + internal edges = all edges, and the pair
// connectivity matrix is consistent with CountCrossEdges.
func TestQuickCutConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := xrand.New(uint64(seed))
		n := rng.Intn(80) + 2
		m := rng.Intn(400)
		b := NewBuilder(n)
		for i := 0; i < m; i++ {
			b.AddEdge(VertexID(rng.Intn(n)), VertexID(rng.Intn(n)))
		}
		g := b.Build()
		k := rng.Intn(6) + 2
		assign := make([]int, n)
		for i := range assign {
			assign[i] = rng.Intn(k)
		}
		cut := CountCrossEdges(g, assign)
		mat := PairConnectivity(g, assign, k)
		var off, diag int
		for a := 0; a < k; a++ {
			for c := 0; c < k; c++ {
				if a == c {
					diag += mat[a][c]
				} else {
					off += mat[a][c]
				}
			}
		}
		return off == cut && off+diag == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuild100k(b *testing.B) {
	rng := xrand.New(1)
	const n, m = 10000, 100000
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{VertexID(rng.Intn(n)), VertexID(rng.Intn(n))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = FromEdges(n, edges)
	}
}
