package graph_test

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"bpart/internal/gen"
	"bpart/internal/graph"
	"bpart/internal/xrand"
)

// The tests in this file check every CSR constructor against a naive
// reference that shares no code with it: the sorted list of (src,dst) pairs.
// A graph matches the reference when it has the right vertex count, passes
// Validate, and walking it in vertex order yields exactly those pairs, which
// pins the offsets, the sortedness of every list and the kept parallel arcs.

// oracleCase is one input graph, named after its model and seed.
type oracleCase struct {
	name string
	g    *graph.Graph
}

// oracleCases returns every gen model under two seeds plus the hand cases:
// n=0, isolated vertices, self-loops and parallel arcs.
func oracleCases(t *testing.T) []oracleCase {
	t.Helper()
	var cs []oracleCase
	add := func(name string, g *graph.Graph, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cs = append(cs, oracleCase{name, g})
	}
	for _, seed := range []uint64{1, 2} {
		for _, d := range gen.Datasets() {
			cfg, err := gen.PresetConfig(d, 0.005)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Seed = seed
			g, err := gen.ChungLu(cfg)
			add(fmt.Sprintf("chunglu-%s/seed=%d", d, seed), g, err)
		}
		g, err := gen.ChungLu(gen.Config{NumVertices: 500, AvgDegree: 6, Skew: 0.7, Locality: 0.3, Shuffle: true, Seed: seed})
		add(fmt.Sprintf("chunglu-shuffle/seed=%d", seed), g, err)
		g, err = gen.RMAT(gen.RMATConfig{Scale: 9, EdgeFactor: 8, A: 0.57, B: 0.19, C: 0.19, Seed: seed})
		add(fmt.Sprintf("rmat/seed=%d", seed), g, err)
		g, err = gen.BarabasiAlbert(400, 3, seed)
		add(fmt.Sprintf("barabasi-albert/seed=%d", seed), g, err)
		g, err = gen.ErdosRenyi(400, 5, seed)
		add(fmt.Sprintf("erdos-renyi/seed=%d", seed), g, err)
	}
	add("ring", gen.Ring(50), nil)
	add("empty", graph.NewBuilder(0).Build(), nil)
	add("zero-value", &graph.Graph{}, nil)
	add("isolated", graph.FromEdges(6, []graph.Edge{{Src: 4, Dst: 1}}), nil)
	add("self-loops", graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 0}, {Src: 2, Dst: 2}, {Src: 2, Dst: 0}, {Src: 1, Dst: 1}}), nil)
	add("parallel", graph.FromEdges(3, []graph.Edge{{Src: 1, Dst: 2}, {Src: 0, Dst: 2}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}}), nil)
	return cs
}

// referencePairs returns the arcs sorted by (src,dst), duplicates kept.
func referencePairs(arcs []graph.Edge) []graph.Edge {
	out := slices.Clone(arcs)
	slices.SortFunc(out, func(a, b graph.Edge) int {
		if c := cmp.Compare(a.Src, b.Src); c != 0 {
			return c
		}
		return cmp.Compare(a.Dst, b.Dst)
	})
	return out
}

// checkAgainstReference fails unless g has n vertices and exactly the arcs
// of want (already in reference order), laid out in that order.
func checkAgainstReference(t *testing.T, what string, g *graph.Graph, n int, want []graph.Edge) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatalf("%s: Validate: %v", what, err)
	}
	if g.NumVertices() != n || g.NumEdges() != len(want) {
		t.Fatalf("%s: |V|=%d |E|=%d, want |V|=%d |E|=%d", what, g.NumVertices(), g.NumEdges(), n, len(want))
	}
	got := g.EdgeList()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: arc %d is %v, reference has %v", what, i, got[i], want[i])
		}
	}
}

func TestTransposeMatchesReference(t *testing.T) {
	for _, c := range oracleCases(t) {
		t.Run(c.name, func(t *testing.T) {
			arcs := c.g.EdgeList()
			rev := make([]graph.Edge, len(arcs))
			for i, e := range arcs {
				rev[i] = graph.Edge{Src: e.Dst, Dst: e.Src}
			}
			tr := c.g.Transpose()
			checkAgainstReference(t, c.name+": transpose", tr, c.g.NumVertices(), referencePairs(rev))
			checkAgainstReference(t, c.name+": double transpose", tr.Transpose(), c.g.NumVertices(), referencePairs(arcs))
		})
	}
}

func TestBuildMatchesReference(t *testing.T) {
	for _, c := range oracleCases(t) {
		t.Run(c.name, func(t *testing.T) {
			n := c.g.NumVertices()
			arcs := c.g.EdgeList()
			// Feed the arcs in shuffled order so Build has to do the sorting.
			shuffled := slices.Clone(arcs)
			rng := xrand.New(uint64(len(arcs)))
			for i := len(shuffled) - 1; i > 0; i-- {
				j := rng.Intn(i + 1)
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			}
			want := referencePairs(arcs)
			for _, reserve := range []int{-1, 0, len(arcs) / 2, len(arcs), 2*len(arcs) + 1} {
				b := graph.NewBuilder(n)
				if reserve >= 0 {
					b.Reserve(reserve)
				}
				for _, e := range shuffled {
					b.AddEdge(e.Src, e.Dst)
				}
				what := fmt.Sprintf("%s: build without Reserve", c.name)
				if reserve >= 0 {
					what = fmt.Sprintf("%s: build with Reserve(%d)", c.name, reserve)
				}
				checkAgainstReference(t, what, b.Build(), n, want)
				// The builder stays usable and the built graph owns its arrays.
				checkAgainstReference(t, what+", rebuilt", b.Build(), n, want)
			}
		})
	}
}

func TestRelabelMatchesReference(t *testing.T) {
	for _, c := range oracleCases(t) {
		t.Run(c.name, func(t *testing.T) {
			n := c.g.NumVertices()
			perm := xrand.New(uint64(n) + 7).Perm(n)
			var mapped []graph.Edge
			for _, e := range c.g.EdgeList() {
				mapped = append(mapped, graph.Edge{Src: graph.VertexID(perm[e.Src]), Dst: graph.VertexID(perm[e.Dst])})
			}
			checkAgainstReference(t, c.name+": relabel", gen.Relabel(c.g, perm), n, referencePairs(mapped))
		})
	}
}

func TestHasEdgeMatchesLinearScan(t *testing.T) {
	linear := func(g *graph.Graph, src, dst graph.VertexID) bool {
		return slices.Contains(g.Neighbors(src), dst)
	}
	for _, c := range oracleCases(t) {
		t.Run(c.name, func(t *testing.T) {
			g, n := c.g, c.g.NumVertices()
			for _, e := range g.EdgeList() {
				if !g.HasEdge(e.Src, e.Dst) {
					t.Fatalf("%s: HasEdge%v = false for an arc", c.name, e)
				}
			}
			if n == 0 {
				return
			}
			rng := xrand.New(uint64(n))
			for i := 0; i < 4*n; i++ {
				src, dst := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
				if got, want := g.HasEdge(src, dst), linear(g, src, dst); got != want {
					t.Fatalf("%s: HasEdge(%d,%d) = %v, linear scan says %v", c.name, src, dst, got, want)
				}
			}
		})
	}
}

// TestTransposeAllocsConstant pins Transpose to a fixed allocation budget
// whatever the graph's size: the offsets, the targets and the Graph, with
// nothing that grows per vertex or per arc.
func TestTransposeAllocsConstant(t *testing.T) {
	const budget = 3
	for _, c := range oracleCases(t) {
		if got := testing.AllocsPerRun(5, func() { _ = c.g.Transpose() }); got > budget {
			t.Errorf("%s (|V|=%d, |E|=%d): Transpose made %v allocations, budget %d",
				c.name, c.g.NumVertices(), c.g.NumEdges(), got, budget)
		}
	}
}
