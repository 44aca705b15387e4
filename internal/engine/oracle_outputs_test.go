package engine

import (
	"fmt"
	"reflect"
	"testing"

	"bpart/internal/cluster"
	"bpart/internal/graph"
	"bpart/internal/partition"
)

// The output oracle: deliberately naive sequential references for what
// each frontier kernel computes, sharing nothing with the edge-map kernel.
// The counter oracle (oracle_test.go) cannot see a wrong relaxation, since
// counters come from the accounting tables whatever the kernel computes;
// these references can.

// refComponents labels every vertex with the smallest vertex ID of its
// weak component, found by a stack walk over out- and in-arcs.
func refComponents(g *graph.Graph, in [][]graph.VertexID) ([]uint32, int) {
	n := g.NumVertices()
	labels := make([]uint32, n)
	done := make([]bool, n)
	comps := 0
	for root := 0; root < n; root++ {
		if done[root] {
			continue
		}
		comps++
		done[root] = true
		stack := []graph.VertexID{graph.VertexID(root)}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			labels[v] = uint32(root)
			for _, ns := range [][]graph.VertexID{g.Neighbors(v), in[v]} {
				for _, u := range ns {
					if !done[u] {
						done[u] = true
						stack = append(stack, u)
					}
				}
			}
		}
	}
	return labels, comps
}

// refBFS is a FIFO breadth-first search over out-arcs (-1 = unreachable).
func refBFS(g *graph.Graph, src graph.VertexID) []int32 {
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

// refDijkstra is textbook O(n²) Dijkstra over out-arcs weighted by
// EdgeWeight (-1 = unreachable).
func refDijkstra(g *graph.Graph, src graph.VertexID) []int64 {
	n := g.NumVertices()
	dist := make([]int64, n)
	for v := range dist {
		dist[v] = -1
	}
	dist[src] = 0
	final := make([]bool, n)
	for {
		v := -1
		for u := range dist {
			if !final[u] && dist[u] >= 0 && (v < 0 || dist[u] < dist[v]) {
				v = u
			}
		}
		if v < 0 {
			return dist
		}
		final[v] = true
		for _, u := range g.Neighbors(graph.VertexID(v)) {
			if d := dist[v] + EdgeWeight(graph.VertexID(v), u); dist[u] < 0 || d < dist[u] {
				dist[u] = d
			}
		}
	}
}

// refKCore peels one vertex at a time from a work queue: a vertex dies
// once its live undirected degree (out- plus in-arcs, with multiplicity)
// drops below kc. The k-core is unique, so the peel order is irrelevant.
func refKCore(g *graph.Graph, in [][]graph.VertexID, kc int) []bool {
	n := g.NumVertices()
	alive := make([]bool, n)
	degree := make([]int, n)
	var queue []graph.VertexID
	for v := range alive {
		alive[v] = true
		degree[v] = g.OutDegree(graph.VertexID(v)) + len(in[v])
		if degree[v] < kc {
			alive[v] = false
			queue = append(queue, graph.VertexID(v))
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, ns := range [][]graph.VertexID{g.Neighbors(v), in[v]} {
			for _, u := range ns {
				degree[u]--
				if alive[u] && degree[u] < kc {
					alive[u] = false
					queue = append(queue, u)
				}
			}
		}
	}
	return alive
}

// pushFrontiers returns the frontier size of every superstep of a
// push-charged edge-map run: each frontier vertex is charged exactly once.
func pushFrontiers(st cluster.RunStats) []int {
	var out []int
	for _, it := range st.Iterations {
		var verts int64
		for _, x := range it.Work.Vertices {
			verts += x
		}
		out = append(out, int(verts))
	}
	return out
}

// pathsSeen records which edge-map compute paths a grid exercised: per
// kernel, a dense-frontier gather and a sparse-frontier push; and whether
// DOBFS went bottom-up from a frontier still in sparse form.
type pathsSeen struct {
	dense, sparse  map[string]bool
	sparseBottomUp bool
}

func (p *pathsSeen) note(kernel string, n int, frontiers []int) {
	for _, f := range frontiers {
		if f*denseRatio > n {
			p.dense[kernel] = true
		} else if f > 0 {
			p.sparse[kernel] = true
		}
	}
}

// dobfsLevels returns the frontier size of every direction-optimizing
// BFS level given the reference distances, and whether some level goes
// bottom-up from a frontier still in sparse form (between |V|/dirBeta
// and |V|/denseRatio members).
func dobfsLevels(g *graph.Graph, dist []int32) ([]int, bool) {
	n, m := g.NumVertices(), g.NumEdges()
	var size []int
	var vol []int64
	for v, d := range dist {
		for d >= int32(len(size)) {
			size, vol = append(size, 0), append(vol, 0)
		}
		if d >= 0 {
			size[d]++
			vol[d] += int64(g.OutDegree(graph.VertexID(v)))
		}
	}
	for d, f := range size {
		if vol[d] > int64(m/dirAlpha) && f > n/dirBeta && f*denseRatio <= n {
			return size, true
		}
	}
	return size, false
}

// checkOutputs runs every frontier kernel plus k-core on e and compares
// each output with its reference, returning the first mismatch ("" when
// all agree) and noting the compute paths taken.
func checkOutputs(e *Engine, src graph.VertexID, seen *pathsSeen) string {
	const kc = 3
	g := e.Graph()
	n := g.NumVertices()
	in := newOracle(g, nil, 0, false).in

	cc, err := e.ConnectedComponents(0)
	if err != nil {
		return fmt.Sprintf("CC: %v", err)
	}
	labels, comps := refComponents(g, in)
	if !reflect.DeepEqual(cc.Labels, labels) {
		return fmt.Sprintf("CC labels differ from the reference at %s", firstDiff(cc.Labels, labels))
	}
	if cc.Components != comps {
		return fmt.Sprintf("CC components %d, reference %d", cc.Components, comps)
	}
	seen.note("CC", n, pushFrontiers(cc.Stats))
	// Stopped after one superstep, the labels are not yet components; the
	// count must still be the number of distinct labels.
	cut, err := e.ConnectedComponents(1)
	if err != nil {
		return fmt.Sprintf("CC(1): %v", err)
	}
	distinct := map[uint32]bool{}
	for _, l := range cut.Labels {
		distinct[l] = true
	}
	if cut.Components != len(distinct) {
		return fmt.Sprintf("CC(1) components %d, distinct labels %d", cut.Components, len(distinct))
	}

	wantBFS := refBFS(g, src)
	bfs, err := e.BFS(src)
	if err != nil {
		return fmt.Sprintf("BFS: %v", err)
	}
	if !reflect.DeepEqual(bfs.Dist, wantBFS) {
		return fmt.Sprintf("BFS distances differ from the reference at %s", firstDiff(bfs.Dist, wantBFS))
	}
	seen.note("BFS", n, pushFrontiers(bfs.Stats))

	dobfs, err := e.BFSDirectionOptimizing(src)
	if err != nil {
		return fmt.Sprintf("DOBFS: %v", err)
	}
	if !reflect.DeepEqual(dobfs.Dist, wantBFS) {
		return fmt.Sprintf("DOBFS distances differ from the reference at %s", firstDiff(dobfs.Dist, wantBFS))
	}
	levels, sparseUp := dobfsLevels(g, wantBFS)
	seen.note("DOBFS", n, levels)
	seen.sparseBottomUp = seen.sparseBottomUp || sparseUp

	sssp, err := e.SSSP(src)
	if err != nil {
		return fmt.Sprintf("SSSP: %v", err)
	}
	if want := refDijkstra(g, src); !reflect.DeepEqual(sssp.Dist, want) {
		return fmt.Sprintf("SSSP distances differ from the reference at %s", firstDiff(sssp.Dist, want))
	}
	seen.note("SSSP", n, pushFrontiers(sssp.Stats))

	kcore, err := e.KCore(kc)
	if err != nil {
		return fmt.Sprintf("KCore: %v", err)
	}
	want := refKCore(g, in, kc)
	if !reflect.DeepEqual(kcore.InCore, want) {
		return fmt.Sprintf("KCore membership differs from the reference at %s", firstDiff(kcore.InCore, want))
	}
	size := 0
	for _, a := range want {
		if a {
			size++
		}
	}
	if kcore.CoreSize != size {
		return fmt.Sprintf("KCore size %d, reference %d", kcore.CoreSize, size)
	}
	return ""
}

// firstDiff names the first index where got and want disagree.
func firstDiff[T comparable](got, want []T) string {
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			var g any = "missing"
			if i < len(got) {
				g = got[i]
			}
			return fmt.Sprintf("vertex %d: got %v, want %v", i, g, want[i])
		}
	}
	return fmt.Sprintf("length %d, want %d", len(got), len(want))
}

// TestOracleOutputsGrid checks the outputs of CC, BFS, DOBFS, SSSP and
// k-core against the naive references over generator × seed × scheme ×
// workers, and that the grid drove every edge-map kernel through both a
// dense-frontier gather and a sparse-frontier push, and DOBFS bottom-up
// from a frontier still in sparse form.
func TestOracleOutputsGrid(t *testing.T) {
	const k = 4
	seen := &pathsSeen{dense: map[string]bool{}, sparse: map[string]bool{}}
	for _, og := range oracleGraphs {
		for _, seed := range []uint64{3, 11} {
			g, err := og.make(seed)
			if err != nil {
				t.Fatalf("gen=%s seed=%d: %v", og.name, seed, err)
			}
			src := graph.VertexID(0)
			for g.OutDegree(src) == 0 {
				src++
			}
			for _, scheme := range []string{"BPart", "Chunk-V", "Hash"} {
				p, err := partition.Get(scheme)
				if err != nil {
					t.Fatal(err)
				}
				a, err := p.Partition(g, k)
				if err != nil {
					t.Fatalf("gen=%s seed=%d scheme=%s: %v", og.name, seed, scheme, err)
				}
				e, err := New(g, a.Parts, k, cluster.DefaultCostModel())
				if err != nil {
					t.Fatal(err)
				}
				for _, wk := range []int{1, 2, 4} {
					e.Cluster().SetWorkers(wk)
					if d := checkOutputs(e, src, seen); d != "" {
						t.Errorf("gen=%s seed=%d scheme=%s workers=%d: %s", og.name, seed, scheme, wk, d)
					}
				}
			}
		}
	}
	for _, kernel := range []string{"CC", "BFS", "DOBFS", "SSSP"} {
		if !seen.dense[kernel] || !seen.sparse[kernel] {
			t.Errorf("%s: grid ran dense gather %v, sparse push %v; want both", kernel, seen.dense[kernel], seen.sparse[kernel])
		}
	}
	if !seen.sparseBottomUp {
		t.Error("DOBFS: no grid point went bottom-up on a sparse frontier")
	}
}

// bandGraph has a source whose 20 children form a level-1 frontier of
// 20 of 240 vertices: above |V|/dirBeta = 10, at most |V|/denseRatio = 24,
// so it stays in sparse form, while its 200 out-arcs exceed |E|/dirAlpha.
// Level 2 is the 200 grandchildren; the rest have no arcs.
func bandGraph() *graph.Graph {
	const n, children, fan = 240, 20, 10
	adj := make([][]graph.VertexID, n)
	for c := 1; c <= children; c++ {
		adj[0] = append(adj[0], graph.VertexID(c))
		for j := 0; j < fan; j++ {
			adj[c] = append(adj[c], graph.VertexID(children+1+(c-1)*fan+j))
		}
	}
	return graph.FromAdjacency(adj)
}

// TestOracleOutputsSparseBottomUp pins DOBFS's bottom-up level on a
// frontier still in sparse form: distances must match the reference, and
// counters the counter oracle's, which charges that level bottom-up (a
// top-down level would charge the 20 frontier vertices, not the 219
// unvisited ones), at any worker count.
func TestOracleOutputsSparseBottomUp(t *testing.T) {
	const k = 4
	g := bandGraph()
	want := refBFS(g, 0)
	if _, ok := dobfsLevels(g, want); !ok {
		t.Fatal("bandGraph has no sparse bottom-up level")
	}
	for _, scheme := range []string{"Chunk-V", "Hash"} {
		p, err := partition.Get(scheme)
		if err != nil {
			t.Fatal(err)
		}
		a, err := p.Partition(g, k)
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(g, a.Parts, k, cluster.DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		wantWork, pulled := newOracle(g, a.Parts, k, false).dobfs(0)
		if !pulled {
			t.Fatalf("scheme=%s: the counter oracle took no bottom-up level", scheme)
		}
		for _, wk := range []int{1, 2, 4} {
			e.Cluster().SetWorkers(wk)
			res, err := e.BFSDirectionOptimizing(0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Dist, want) {
				t.Errorf("scheme=%s workers=%d: DOBFS distances differ at %s", scheme, wk, firstDiff(res.Dist, want))
			}
			if d := diffWork(res.Stats.Iterations, wantWork); d != "" {
				t.Errorf("scheme=%s workers=%d: DOBFS counters: %s", scheme, wk, d)
			}
		}
	}
}
