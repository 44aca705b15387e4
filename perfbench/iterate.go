package main

import (
	"fmt"
	"time"

	"bpart/internal/cluster"
	_ "bpart/internal/core" // registers BPart
	"bpart/internal/engine"
	"bpart/internal/gen"
	"bpart/internal/graph"
	"bpart/internal/metrics"
	"bpart/internal/partition"
	"bpart/internal/xrand"
)

const (
	iterDataset = gen.FriendsterSim
	iterScale   = 0.2
	numParts    = 8
	prIters     = 10
	prDamping   = 0.85
	// prTolerance is the L1 distance allowed between the engine's ranks
	// and the naive reference (they sum in different orders).
	prTolerance = 1e-9
	// bfsSources is how many seeded BFS sources the jobs cycle through.
	bfsSources = 8
)

// iterPlacements are the two placements every iterate job runs on, in
// order; the span suffix names each.
var iterPlacements = []struct{ scheme, suffix string }{
	{"BPart", "bpart"},
	{"Chunk-V", "chunkv"},
}

type iterateState struct {
	g, tr   *graph.Graph
	parts   [][]int
	engines []*engine.Engine
}

// setupIterate generates the dataset, its transpose and both placements,
// and binds an engine to each.
func setupIterate(cfg *config, op int, tr *tracer) (*iterateState, error) {
	st := &iterateState{}
	var err error
	tr.do(op, -1, "gen.preset", func() { st.g, err = gen.Preset(iterDataset, iterScale*cfg.shrink) })
	if err != nil {
		return nil, err
	}
	tr.do(op, -1, "graph.transpose", func() { st.tr = st.g.Transpose() })
	for _, pl := range iterPlacements {
		p, err := partition.Get(pl.scheme)
		if err != nil {
			return nil, err
		}
		var a *partition.Assignment
		tr.do(op, -1, "partition."+pl.suffix, func() { a, err = p.Partition(st.g, numParts) })
		if err != nil {
			return nil, err
		}
		e, err := engine.New(st.g, a.Parts, numParts, cluster.DefaultCostModel())
		if err != nil {
			return nil, err
		}
		if err := e.SetTranspose(st.tr); err != nil {
			return nil, err
		}
		e.Cluster().SetWorkers(workers())
		st.parts = append(st.parts, a.Parts)
		st.engines = append(st.engines, e)
	}
	return st, nil
}

// iterJob holds one job's outputs, per placement.
type iterJob struct {
	pr  []*engine.PRResult
	cc  []*engine.CCResult
	bfs []*engine.BFSResult
}

// run is one job: PageRank, CC and BFS from src on each placement. Only
// the engine calls are inside the returned wall time.
func (st *iterateState) run(op int, tr *tracer, src graph.VertexID) (*iterJob, time.Duration, error) {
	j := &iterJob{}
	var err error
	start := time.Now()
	root := tr.begin(op, -1, "job")
	for i, pl := range iterPlacements {
		e := st.engines[i]
		var pr *engine.PRResult
		var cc *engine.CCResult
		var bfs *engine.BFSResult
		tr.do(op, root, "engine.pagerank."+pl.suffix, func() { pr, err = e.PageRank(prIters, prDamping) })
		if err != nil {
			return nil, 0, err
		}
		tr.do(op, root, "engine.cc", func() { cc, err = e.ConnectedComponents(0) })
		if err != nil {
			return nil, 0, err
		}
		tr.do(op, root, "engine.bfs", func() { bfs, err = e.BFS(src) })
		if err != nil {
			return nil, 0, err
		}
		j.pr = append(j.pr, pr)
		j.cc = append(j.cc, cc)
		j.bfs = append(j.bfs, bfs)
	}
	tr.finish(root)
	return j, time.Since(start), nil
}

func (j *iterJob) stats() []cluster.RunStats {
	var out []cluster.RunStats
	for i := range j.pr {
		out = append(out, j.pr[i].Stats, j.cc[i].Stats, j.bfs[i].Stats)
	}
	return out
}

// pickSources draws n distinct seeded vertices with out-edges (falling
// back to any vertex on a graph without enough of them).
func pickSources(seed uint64, g *graph.Graph, n int) []graph.VertexID {
	rng := xrand.New(seed ^ 0xB5F0_5EED)
	var out []graph.VertexID
	seen := map[graph.VertexID]bool{}
	for tries := 0; len(out) < n && tries < 100*n; tries++ {
		v := graph.VertexID(rng.Intn(g.NumVertices()))
		if !seen[v] && g.OutDegree(v) > 0 {
			seen[v] = true
			out = append(out, v)
		}
	}
	for len(out) < n {
		out = append(out, graph.VertexID(rng.Intn(g.NumVertices())))
	}
	return out
}

func runIterate(cfg *config) (*result, error) {
	res := newResult()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	st, setupS, err := repeatSetup(cfg, tr, func(op int, tr *tracer) (*iterateState, error) {
		return setupIterate(cfg, op, tr)
	})
	if err != nil {
		return nil, err
	}
	res.metrics["setup_s"] = setupS
	res.info["inputs"] = []any{inputShape(fmt.Sprintf("%s@%g", iterDataset, iterScale*cfg.shrink), st.g)}
	res.info["workers"] = workers()

	// Oracles, outside every timed interval.
	wantPR := naivePageRank(st.g, prIters, prDamping)
	wantCC := naiveCC(st.g)
	sources := pickSources(cfg.seed, st.g, bfsSources)
	wantBFS := make([][]int32, len(sources))
	for i, s := range sources {
		wantBFS[i] = naiveBFS(st.g, s)
	}

	chk := &checker{workload: cfg.workload, seed: cfg.seed, log: cfg.log}
	var first *iterJob
	br, err := batchLoop(cfg, tr, func(op int, tr *tracer) (time.Duration, error) {
		// Jobs 2m and 2m+1 share a source, so that a traced run's traced
		// (odd) and untraced (even) jobs do the same work.
		k := op / 2 % len(sources)
		j, d, err := st.run(op, tr, sources[k])
		if err != nil {
			return 0, err
		}
		var errs []error
		for i := range j.pr {
			errs = append(errs,
				checkRanks(j.pr[i].Ranks, wantPR, prTolerance),
				checkLabels(j.cc[i].Labels, wantCC),
				checkDist(j.bfs[i].Dist, wantBFS[k]))
		}
		chk.op(op, errs...)
		if op == 0 {
			first = j
		}
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	res.attempted, res.failed = chk.attempted, chk.failed
	if err := br.report(cfg, res); err != nil {
		return nil, err
	}
	if !cfg.trace {
		return res, nil
	}

	// Per-layer metrics from the traced jobs and set-up repetitions.
	sts := tr.selfTimes()
	res.metrics["gen.preset_ms"], res.metrics["gen.alloc_mb"] = layerMedian(sts, "gen.preset", nil)
	res.metrics["graph.transpose_ms"], _ = layerMedian(sts, "graph.transpose", nil)
	var bpAlloc, cvAlloc float64
	res.metrics["partition.bpart_ms"], bpAlloc = layerMedian(sts, "partition.bpart", nil)
	_, cvAlloc = layerMedian(sts, "partition.chunkv", nil)
	res.metrics["partition.alloc_mb"] = bpAlloc + cvAlloc
	quality(res, st.g, st.parts[0])
	clusterMetrics(res, first.stats())

	prB, aB := layerMedian(sts, "engine.pagerank.bpart", isJobOp)
	prC, aC := layerMedian(sts, "engine.pagerank.chunkv", isJobOp)
	cc, aCC := layerMedian(sts, "engine.cc", isJobOp)
	bfs, aBFS := layerMedian(sts, "engine.bfs", isJobOp)
	res.metrics["engine.pagerank.bpart_ms"] = prB
	res.metrics["engine.pagerank.chunkv_ms"] = prC
	res.metrics["engine.cc_ms"] = cc
	res.metrics["engine.bfs_ms"] = bfs
	res.metrics["engine.alloc_mb"] = aB + aC + aCC + aBFS
	res.metrics["engine.pagerank.edges_per_s"] = float64(prIters*st.g.NumEdges()) / ((prB + prC) / 2 / 1000)

	// Single-worker baseline on the BPart placement, after the jobs.
	e := st.engines[0]
	e.Cluster().SetWorkers(1)
	var w1 []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := e.PageRank(prIters, prDamping); err != nil {
			return nil, err
		}
		w1 = append(w1, ms(time.Since(start)))
	}
	e.Cluster().SetWorkers(workers())
	res.metrics["engine.pagerank.w1_ms"] = median(w1)
	res.metrics["engine.pagerank.speedup"] = median(w1) / prB
	return res, writeTrace(cfg, tr, res)
}

// quality reports a placement's partition quality, computed outside every
// timed interval.
func quality(res *result, g *graph.Graph, parts []int) {
	rep := metrics.NewReport(g, parts, numParts, false)
	res.metrics["partition.cut_ratio"] = rep.CutRatio
	res.metrics["partition.v_bias"] = rep.VertexBias
	res.metrics["partition.e_bias"] = rep.EdgeBias
}

// clusterMetrics reports the simulated cost of one job's runs: total
// simulated time, supersteps, messages, the waiting ratio over all of them
// and the skew of per-machine compute (max / mean).
func clusterMetrics(res *result, runs []cluster.RunStats) {
	var sim, waiting float64
	var steps int
	var msgs int64
	var compute []float64
	k := 0
	for _, r := range runs {
		sim += r.TotalTime()
		waiting += r.TotalWaiting()
		steps += len(r.Iterations)
		msgs += r.TotalMessages()
		for m, c := range r.ComputeByMachine() {
			if m >= len(compute) {
				compute = append(compute, 0)
			}
			compute[m] += c
		}
		if len(r.Iterations) > 0 {
			k = len(r.Iterations[0].Compute)
		}
	}
	res.metrics["cluster.sim_ms"] = sim / 1000
	res.metrics["cluster.supersteps"] = float64(steps)
	res.metrics["cluster.messages"] = float64(msgs)
	if sim > 0 && k > 0 {
		res.metrics["cluster.wait_ratio"] = waiting / (sim * float64(k))
	}
	var maxC float64
	for _, c := range compute {
		if c > maxC {
			maxC = c
		}
	}
	if m := mean(compute); m > 0 {
		res.metrics["cluster.machine_skew"] = maxC / m
	}
}
