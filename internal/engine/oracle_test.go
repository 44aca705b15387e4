package engine

import (
	"fmt"
	"reflect"
	"testing"

	"bpart/internal/cluster"
	"bpart/internal/fault"
	"bpart/internal/gen"
	"bpart/internal/graph"
	"bpart/internal/partition"
)

// The counter oracle: a deliberately naive sequential reference for every
// superstep's Work counters. It shares nothing with the engine's
// accounting tables or kernel: it replays each algorithm's frontier
// sequence on its own (synchronous relaxation over plain adjacency lists)
// and charges every scanned arc by looking up both endpoints' owners. Any
// table that is stale, built from the wrong direction, or charged to the
// wrong machine shows up as a counter diff naming its seed, grid point and
// superstep.

// oracle charges supersteps against one vertex→machine placement.
type oracle struct {
	g     *graph.Graph
	in    [][]graph.VertexID // in-neighbors, ascending source order
	owner []int
	k     int
	pairs bool // also fill the src→dst message matrix
}

func newOracle(g *graph.Graph, owner []int, k int, pairs bool) *oracle {
	in := make([][]graph.VertexID, g.NumVertices())
	for u := range in {
		for _, v := range g.Neighbors(graph.VertexID(u)) {
			in[v] = append(in[v], graph.VertexID(u))
		}
	}
	return &oracle{g: g, in: in, owner: owner, k: k, pairs: pairs}
}

func (o *oracle) counters() cluster.Counters {
	c := cluster.Counters{
		Steps:    make([]int64, o.k),
		Edges:    make([]int64, o.k),
		Vertices: make([]int64, o.k),
		Messages: make([]int64, o.k),
	}
	if o.pairs {
		c.Pairs = make([][]int64, o.k)
		for i := range c.Pairs {
			c.Pairs[i] = make([]int64, o.k)
		}
	}
	return c
}

// arc charges one scanned arc between vertex v (owned by the charged
// machine) and u.
func (o *oracle) arc(c *cluster.Counters, v, u graph.VertexID) {
	m := o.owner[v]
	c.Edges[m]++
	if p := o.owner[u]; p != m {
		c.Messages[m]++
		if c.Pairs != nil {
			c.Pairs[m][p]++
		}
	}
}

func (o *oracle) n() int { return o.g.NumVertices() }

func (o *oracle) pageRankPush(iters int) []cluster.Counters {
	var out []cluster.Counters
	for it := 0; it < iters; it++ {
		c := o.counters()
		for v := 0; v < o.n(); v++ {
			c.Vertices[o.owner[v]]++
			for _, u := range o.g.Neighbors(graph.VertexID(v)) {
				o.arc(&c, graph.VertexID(v), u)
			}
		}
		out = append(out, c)
	}
	return out
}

// pageRankPull charges every in-edge, and one message per distinct
// (machine, remote in-neighbor) mirror per superstep.
func (o *oracle) pageRankPull(iters int) []cluster.Counters {
	var out []cluster.Counters
	for it := 0; it < iters; it++ {
		c := o.counters()
		fetched := map[[2]int]bool{}
		for v := 0; v < o.n(); v++ {
			m := o.owner[v]
			c.Vertices[m]++
			for _, u := range o.in[v] {
				c.Edges[m]++
				if p := o.owner[u]; p != m && !fetched[[2]int{m, int(u)}] {
					fetched[[2]int{m, int(u)}] = true
					c.Messages[m]++
					if c.Pairs != nil {
						c.Pairs[m][p]++
					}
				}
			}
		}
		out = append(out, c)
	}
	return out
}

// relax runs synchronous min-relaxation supersteps from frontier until it
// empties: every frontier vertex v scans its out-arcs (and in-arcs when
// undirected), proposing key(val, v, u) to each neighbor u; improvements
// take effect after the superstep and form the next frontier. A negative
// value means "none yet".
func (o *oracle) relax(val []int64, frontier []graph.VertexID, undirected bool, key func(val []int64, v, u graph.VertexID) int64) []cluster.Counters {
	var out []cluster.Counters
	for len(frontier) > 0 {
		c := o.counters()
		next := append([]int64(nil), val...)
		for _, v := range frontier {
			c.Vertices[o.owner[v]]++
			scan := func(ns []graph.VertexID) {
				for _, u := range ns {
					o.arc(&c, v, u)
					if kv := key(val, v, u); next[u] < 0 || kv < next[u] {
						next[u] = kv
					}
				}
			}
			scan(o.g.Neighbors(v))
			if undirected {
				scan(o.in[v])
			}
		}
		frontier = nil
		for u := range val {
			if next[u] != val[u] {
				frontier = append(frontier, graph.VertexID(u))
			}
		}
		val = next
		out = append(out, c)
	}
	return out
}

func (o *oracle) cc() []cluster.Counters {
	labels := make([]int64, o.n())
	all := make([]graph.VertexID, o.n())
	for v := range labels {
		labels[v] = int64(v)
		all[v] = graph.VertexID(v)
	}
	return o.relax(labels, all, true, func(val []int64, v, _ graph.VertexID) int64 { return val[v] })
}

func (o *oracle) unreached(src graph.VertexID) []int64 {
	dist := make([]int64, o.n())
	for v := range dist {
		dist[v] = -1
	}
	dist[src] = 0
	return dist
}

// bfs proposes depth+1 along every frontier arc; only unvisited neighbors
// can improve, since every visited vertex is at most one level deeper.
func (o *oracle) bfs(src graph.VertexID) []cluster.Counters {
	return o.relax(o.unreached(src), []graph.VertexID{src}, false,
		func(val []int64, v, _ graph.VertexID) int64 { return val[v] + 1 })
}

func (o *oracle) sssp(src graph.VertexID) []cluster.Counters {
	return o.relax(o.unreached(src), []graph.VertexID{src}, false,
		func(val []int64, v, u graph.VertexID) int64 { return val[v] + EdgeWeight(v, u) })
}

// dobfs replays Beamer's direction switching on the naive frontier: a
// bottom-up level lets every unvisited vertex scan its in-arcs up to and
// including the first frontier parent. It reports whether any level went
// bottom-up, so the grid can prove that branch was exercised.
func (o *oracle) dobfs(src graph.VertexID) ([]cluster.Counters, bool) {
	dist := o.unreached(src)
	frontier := []graph.VertexID{src}
	var out []cluster.Counters
	pulled := false
	for depth := int64(1); len(frontier) > 0; depth++ {
		c := o.counters()
		inFrontier := make([]bool, o.n())
		var fe int64
		for _, v := range frontier {
			inFrontier[v] = true
			fe += int64(o.g.OutDegree(v))
		}
		next := append([]int64(nil), dist...)
		if fe > int64(o.g.NumEdges()/dirAlpha) && len(frontier) > o.n()/dirBeta {
			pulled = true
			for v := 0; v < o.n(); v++ {
				if dist[v] >= 0 {
					continue
				}
				c.Vertices[o.owner[v]]++
				for _, u := range o.in[v] {
					o.arc(&c, graph.VertexID(v), u)
					if inFrontier[u] {
						next[v] = depth
						break
					}
				}
			}
		} else {
			for _, v := range frontier {
				c.Vertices[o.owner[v]]++
				for _, u := range o.g.Neighbors(v) {
					o.arc(&c, v, u)
					if dist[u] < 0 {
						next[u] = depth
					}
				}
			}
		}
		frontier = nil
		for v := range dist {
			if next[v] != dist[v] {
				frontier = append(frontier, graph.VertexID(v))
			}
		}
		dist = next
		out = append(out, c)
	}
	return out, pulled
}

// kcore peels, per round, every live vertex whose live undirected degree
// is below kc; each round charges the live-vertex scan and every arc of
// every peeled vertex, and the final round finds nothing to peel.
func (o *oracle) kcore(kc int) []cluster.Counters {
	alive := make([]bool, o.n())
	degree := make([]int, o.n())
	for v := range alive {
		alive[v] = true
		degree[v] = o.g.OutDegree(graph.VertexID(v)) + len(o.in[v])
	}
	var out []cluster.Counters
	for {
		c := o.counters()
		var removed []graph.VertexID
		for v := range alive {
			if alive[v] {
				c.Vertices[o.owner[v]]++
				if degree[v] < kc {
					removed = append(removed, graph.VertexID(v))
				}
			}
		}
		for _, v := range removed {
			alive[v] = false
		}
		for _, v := range removed {
			for _, ns := range [][]graph.VertexID{o.g.Neighbors(v), o.in[v]} {
				for _, u := range ns {
					o.arc(&c, v, u)
					degree[u]--
				}
			}
		}
		out = append(out, c)
		if len(removed) == 0 {
			return out
		}
	}
}

// oracleAlgo is one engine algorithm paired with its naive reference.
type oracleAlgo struct {
	name string
	run  func(e *Engine) (cluster.RunStats, error)
	want func(o *oracle) []cluster.Counters
}

func oracleAlgos(src graph.VertexID, pulled *bool) []oracleAlgo {
	const iters, kc = 6, 3
	return []oracleAlgo{
		{"PageRank", func(e *Engine) (cluster.RunStats, error) {
			r, err := e.PageRank(iters, 0.85)
			if err != nil {
				return cluster.RunStats{}, err
			}
			return r.Stats, nil
		}, func(o *oracle) []cluster.Counters { return o.pageRankPush(iters) }},
		{"PageRankPull", func(e *Engine) (cluster.RunStats, error) {
			r, err := e.PageRankPull(iters, 0.85)
			if err != nil {
				return cluster.RunStats{}, err
			}
			return r.Stats, nil
		}, func(o *oracle) []cluster.Counters { return o.pageRankPull(iters) }},
		{"CC", func(e *Engine) (cluster.RunStats, error) {
			r, err := e.ConnectedComponents(0)
			if err != nil {
				return cluster.RunStats{}, err
			}
			return r.Stats, nil
		}, (*oracle).cc},
		{"BFS", func(e *Engine) (cluster.RunStats, error) {
			r, err := e.BFS(src)
			if err != nil {
				return cluster.RunStats{}, err
			}
			return r.Stats, nil
		}, func(o *oracle) []cluster.Counters { return o.bfs(src) }},
		{"DOBFS", func(e *Engine) (cluster.RunStats, error) {
			r, err := e.BFSDirectionOptimizing(src)
			if err != nil {
				return cluster.RunStats{}, err
			}
			return r.Stats, nil
		}, func(o *oracle) []cluster.Counters {
			w, p := o.dobfs(src)
			*pulled = *pulled || p
			return w
		}},
		{"SSSP", func(e *Engine) (cluster.RunStats, error) {
			r, err := e.SSSP(src)
			if err != nil {
				return cluster.RunStats{}, err
			}
			return r.Stats, nil
		}, func(o *oracle) []cluster.Counters { return o.sssp(src) }},
		{"KCore", func(e *Engine) (cluster.RunStats, error) {
			r, err := e.KCore(kc)
			if err != nil {
				return cluster.RunStats{}, err
			}
			return r.Stats, nil
		}, func(o *oracle) []cluster.Counters { return o.kcore(kc) }},
	}
}

// diffWork compares a run's supersteps against the oracle's, returning a
// description of the first mismatch ("" when equal).
func diffWork(got []cluster.IterationStats, want []cluster.Counters) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d supersteps, oracle %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i].Work, want[i]) {
			return fmt.Sprintf("superstep %d: work %+v, oracle %+v", i, got[i].Work, want[i])
		}
	}
	return ""
}

type oracleGraph struct {
	name string
	make func(seed uint64) (*graph.Graph, error)
}

var oracleGraphs = []oracleGraph{
	{"chunglu", func(seed uint64) (*graph.Graph, error) {
		return gen.ChungLu(gen.Config{NumVertices: 400, AvgDegree: 6, Skew: 0.6, Seed: seed})
	}},
	{"rmat", func(seed uint64) (*graph.Graph, error) {
		return gen.RMAT(gen.RMATConfig{Scale: 8, EdgeFactor: 6, A: 0.57, B: 0.19, C: 0.19, Seed: seed})
	}},
	{"ba", func(seed uint64) (*graph.Graph, error) { return gen.BarabasiAlbert(300, 3, seed) }},
}

// TestOracleCountersGrid checks every algorithm's per-superstep counters
// against the naive oracle over generator × seed × scheme × workers, with
// the comm matrix off and then on. The matrix is switched on mid-engine on
// purpose: the engine must rebuild its tables with remote-part rows.
func TestOracleCountersGrid(t *testing.T) {
	const k = 4
	pulled := false
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
				for _, matrix := range []bool{false, true} {
					e.Cluster().SetCommMatrix(matrix)
					o := newOracle(g, a.Parts, k, matrix)
					for _, algo := range oracleAlgos(src, &pulled) {
						want := algo.want(o)
						for _, wk := range []int{1, 2, 4} {
							e.Cluster().SetWorkers(wk)
							st, err := algo.run(e)
							if err != nil {
								t.Fatalf("gen=%s seed=%d scheme=%s workers=%d matrix=%v %s: %v",
									og.name, seed, scheme, wk, matrix, algo.name, err)
							}
							if d := diffWork(st.Iterations, want); d != "" {
								t.Errorf("gen=%s seed=%d scheme=%s workers=%d matrix=%v %s: %s",
									og.name, seed, scheme, wk, matrix, algo.name, d)
							}
						}
					}
				}
			}
		}
	}
	if !pulled {
		t.Error("no grid point took a bottom-up DOBFS level; the pull branch went unchecked")
	}
}

// algoSupersteps keeps a run's algorithm supersteps, dropping the
// checkpoint, restore and restream phases a fault controller interleaves
// (those charge no vertex work).
func algoSupersteps(its []cluster.IterationStats) []cluster.IterationStats {
	var out []cluster.IterationStats
	for _, it := range its {
		var verts int64
		for _, x := range it.Work.Vertices {
			verts += x
		}
		if verts > 0 {
			out = append(out, it)
		}
	}
	return out
}

// TestOracleRestreamRebuildsTables crashes machine 1 at superstep 3 under
// the restream policy (checkpoints every 2 supersteps, so the last one is
// at superstep 1). Supersteps 0–3 run on the original placement; the run
// then resumes at superstep 2 on the rehomed one, and those supersteps'
// counters must equal the oracle's on the rehomed placement — which holds
// only if reassign dropped the accounting tables and they were rebuilt.
func TestOracleRestreamRebuildsTables(t *testing.T) {
	const k, crashStep, resumeStep = 4, 3, 2
	g := testGraph(t)
	pulled := false
	for _, algo := range oracleAlgos(0, &pulled)[:4] { // PageRank, PageRankPull, CC, BFS
		for _, matrix := range []bool{false, true} {
			for _, wk := range []int{1, 2} {
				spec := &fault.Spec{
					Policy:          fault.Restream,
					CheckpointEvery: 2,
					Events:          []fault.Event{{Kind: fault.Crash, Step: crashStep, Machine: 1}},
				}
				e := faultEngine(t, g, k, spec)
				e.Cluster().SetCommMatrix(matrix)
				e.Cluster().SetWorkers(wk)
				before := e.Cluster().Assignment()
				st, err := algo.run(e)
				if err != nil {
					t.Fatalf("%s matrix=%v workers=%d: %v", algo.name, matrix, wk, err)
				}
				after := e.Cluster().Assignment()
				if reflect.DeepEqual(before, after) {
					t.Fatalf("%s matrix=%v workers=%d: restream left the placement unchanged", algo.name, matrix, wk)
				}
				pre := algo.want(newOracle(g, before, k, matrix))
				post := algo.want(newOracle(g, after, k, matrix))
				want := append(append([]cluster.Counters(nil), pre[:crashStep+1]...), post[resumeStep:]...)
				if d := diffWork(algoSupersteps(st.Iterations), want); d != "" {
					t.Errorf("%s matrix=%v workers=%d: %s", algo.name, matrix, wk, d)
				}
			}
		}
	}
}
