package main

import (
	"fmt"
	"slices"
	"time"

	"bpart/internal/cluster"
	"bpart/internal/gen"
	"bpart/internal/graph"
	"bpart/internal/partition"
	"bpart/internal/walk"
	"bpart/internal/xrand"
)

const (
	pwDataset = gen.TwitterSim
	pwScale   = 0.2
	walkSteps = 10
)

// pwSchemes are partitioned afresh, in order, by every place-walk job.
var pwSchemes = []struct{ scheme, suffix string }{
	{"BPart", "bpart"},
	{"Fennel", "fennel"},
}

// pwApps are the walk applications run on each placement; both collect
// their corpus, one walker per vertex.
var pwApps = []struct {
	kind walk.Kind
	span string
}{
	{walk.DeepWalk, "walk.deepwalk"},
	{walk.Node2Vec, "walk.node2vec"},
}

// pwJob holds one job's outputs, per scheme.
type pwJob struct {
	parts [][]int
	walks [][]*walk.Result // [scheme][app]
}

// runPlaceWalkJob partitions g with each scheme and runs every walk app
// on the placement, with walk seeds drawn from seed.
func runPlaceWalkJob(g *graph.Graph, op int, tr *tracer, seed uint64) (*pwJob, time.Duration, error) {
	j := &pwJob{}
	rng := xrand.New(seed)
	start := time.Now()
	root := tr.begin(op, -1, "job")
	for _, s := range pwSchemes {
		p, err := partition.Get(s.scheme)
		if err != nil {
			return nil, 0, err
		}
		var a *partition.Assignment
		tr.do(op, root, "partition."+s.suffix, func() { a, err = p.Partition(g, numParts) })
		if err != nil {
			return nil, 0, err
		}
		we, err := walk.New(g, a.Parts, numParts, cluster.DefaultCostModel())
		if err != nil {
			return nil, 0, err
		}
		we.Cluster().SetWorkers(workers())
		var rs []*walk.Result
		for _, app := range pwApps {
			cfg := walk.Config{Kind: app.kind, WalkersPerVertex: 1, Steps: walkSteps, CollectPaths: true, Seed: rng.Uint64()}
			var r *walk.Result
			tr.do(op, root, app.span, func() { r, err = we.Run(cfg) })
			if err != nil {
				return nil, 0, err
			}
			rs = append(rs, r)
		}
		j.parts = append(j.parts, a.Parts)
		j.walks = append(j.walks, rs)
	}
	tr.finish(root)
	return j, time.Since(start), nil
}

// jobSeed is the seed of job op's walks.
func jobSeed(seed uint64, op int) uint64 {
	return seed*0x9E3779B97F4A7C15 + uint64(op)
}

func runPlaceWalk(cfg *config) (*result, error) {
	res := newResult()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	g, setupS, err := repeatSetup(cfg, tr, func(op int, tr *tracer) (*graph.Graph, error) {
		var g *graph.Graph
		var err error
		tr.do(op, -1, "gen.preset", func() { g, err = gen.Preset(pwDataset, pwScale*cfg.shrink) })
		return g, err
	})
	if err != nil {
		return nil, err
	}
	res.metrics["setup_s"] = setupS
	res.info["inputs"] = []any{inputShape(fmt.Sprintf("%s@%g", pwDataset, pwScale*cfg.shrink), g)}
	res.info["workers"] = workers()

	// Oracle: each scheme's reference placement. A job's placement must
	// be valid and equal to it (the partitioners are deterministic).
	var wantParts [][]int
	for _, s := range pwSchemes {
		p, err := partition.Get(s.scheme)
		if err != nil {
			return nil, err
		}
		a, err := p.Partition(g, numParts)
		if err != nil {
			return nil, err
		}
		wantParts = append(wantParts, a.Parts)
	}

	chk := &checker{workload: cfg.workload, seed: cfg.seed, log: cfg.log}
	var first *pwJob
	br, err := batchLoop(cfg, tr, func(op int, tr *tracer) (time.Duration, error) {
		j, d, err := runPlaceWalkJob(g, op, tr, jobSeed(cfg.seed, op))
		if err != nil {
			return 0, err
		}
		var errs []error
		for i, s := range pwSchemes {
			errs = append(errs, checkPlacement(g, s.scheme, j.parts[i], wantParts[i]))
			for _, r := range j.walks[i] {
				errs = append(errs, checkCorpus(g, r.Paths, walkSteps))
			}
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

	sts := tr.selfTimes()
	res.metrics["gen.preset_ms"], res.metrics["gen.alloc_mb"] = layerMedian(sts, "gen.preset", nil)
	bp, aBP := layerMedian(sts, "partition.bpart", isJobOp)
	fe, aFE := layerMedian(sts, "partition.fennel", isJobOp)
	res.metrics["partition.bpart_ms"] = bp
	res.metrics["partition.fennel_ms"] = fe
	res.metrics["partition.alloc_mb"] = aBP + aFE
	quality(res, g, first.parts[0])

	dw, aDW := layerMedian(sts, "walk.deepwalk", isJobOp)
	nv, aNV := layerMedian(sts, "walk.node2vec", isJobOp)
	res.metrics["walk.deepwalk_ms"] = dw
	res.metrics["walk.node2vec_ms"] = nv
	res.metrics["walk.alloc_mb"] = aDW + aNV
	var runs []cluster.RunStats
	var steps, msgWalks int64
	for _, rs := range first.walks {
		for _, r := range rs {
			runs = append(runs, r.Stats)
			steps += r.TotalSteps
			msgWalks += r.MessageWalks
		}
	}
	clusterMetrics(res, runs)
	res.metrics["walk.message_walks"] = float64(msgWalks)
	// dw and nv are per-job totals over both placements, as is steps.
	res.metrics["walk.steps_per_s"] = float64(steps) / ((dw + nv) / 1000)
	return res, writeTrace(cfg, tr, res)
}

// checkPlacement validates a placement and compares it with the
// scheme's reference.
func checkPlacement(g *graph.Graph, scheme string, parts, want []int) error {
	a := partition.Assignment{Parts: parts, K: numParts}
	if err := a.Validate(g); err != nil {
		return fmt.Errorf("%s: %w", scheme, err)
	}
	if !slices.Equal(parts, want) {
		return fmt.Errorf("%s: placement differs from the reference run", scheme)
	}
	return nil
}
