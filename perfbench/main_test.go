package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"bpart/internal/cluster"
	"bpart/internal/engine"
	"bpart/internal/gen"
	"bpart/internal/graph"
	"bpart/internal/servestats"
)

// bpartdBin is cmd/bpartd built once for the serve self-tests.
var bpartdBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bpartdBin = filepath.Join(dir, "bpartd")
	cmd := exec.Command("go", "build", "-o", bpartdBin, "bpart/cmd/bpartd")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "build bpartd:", err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// benchmarkFile is the subset of BENCHMARK.json the tables must match.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for n := range workloads {
		have = append(have, n)
	}
	sort.Strings(names)
	sort.Strings(have)
	if !reflect.DeepEqual(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, have)
	}
	var e2e, layer []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(e2e, e2eMetrics) {
		t.Errorf("end_to_end in BENCHMARK.json differs from e2eMetrics:\n%v\n%v", e2e, e2eMetrics)
	}
	if !reflect.DeepEqual(layer, layerMetrics) {
		t.Errorf("per_layer in BENCHMARK.json differs from layerMetrics:\n%v\n%v", layer, layerMetrics)
	}
}

// toyRun runs a workload at toy size through the command-line entry
// point's rendering and returns the decoded result line.
func toyRun(t *testing.T, workload string, trace bool) output {
	t.Helper()
	var log bytes.Buffer
	cfg := &config{
		workload: workload, seed: 7, seconds: 1.2, trace: trace,
		bpartd: bpartdBin, outDir: t.TempDir(),
		shrink: 0.02, setupReps: 2, log: &log,
	}
	res, err := execute(cfg)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, log.String())
	}
	line, err := render(cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	var out output
	if err := json.Unmarshal(line, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", workload, trace, out.Correct, out.Attempted, out.Failed, log.String())
	}
	return out
}

func TestWorkloadsAtToySize(t *testing.T) {
	for _, w := range []string{"iterate", "place-walk", "serve"} {
		t.Run(w, func(t *testing.T) {
			out := toyRun(t, w, false)
			if len(out.Metrics) != len(e2eMetrics) {
				t.Errorf("%d end-to-end metrics, want %d", len(out.Metrics), len(e2eMetrics))
			}
			for _, d := range e2eMetrics {
				m, ok := out.Metrics[d.name]
				if !ok || m.Unit != d.unit || !(m.Value > 0) {
					t.Errorf("metric %s = %+v (present %v), want a positive value in %s", d.name, m, ok, d.unit)
				}
			}
			traced := toyRun(t, w, true)
			if len(traced.Metrics) != len(layerMetrics) {
				t.Errorf("%d per-layer metrics, want %d", len(traced.Metrics), len(layerMetrics))
			}
			for _, d := range layerMetrics {
				if m, ok := traced.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("per-layer metric %s = %+v (present %v), want unit %s", d.name, m, ok, d.unit)
				}
			}
			for _, name := range layersOf[w] {
				if !(traced.Metrics[name].Value > 0) {
					t.Errorf("%s: per-layer %s = %v, want > 0 on a workload that calls the layer", w, name, traced.Metrics[name].Value)
				}
			}
		})
	}
}

// layersOf lists per-layer metrics each workload must measure as non-zero
// (its layers do work on every run).
var layersOf = map[string][]string{
	"iterate": {"gen.preset_ms", "graph.transpose_ms", "partition.bpart_ms", "cluster.sim_ms", "cluster.supersteps",
		"engine.pagerank.bpart_ms", "engine.pagerank.chunkv_ms", "engine.cc_ms", "engine.bfs_ms", "engine.pagerank.w1_ms"},
	"place-walk": {"gen.preset_ms", "partition.bpart_ms", "partition.fennel_ms", "cluster.sim_ms",
		"walk.deepwalk_ms", "walk.node2vec_ms", "walk.steps_per_s"},
	"serve": {"gen.preset_ms", "partition.bpart_ms", "partition.fennel_ms", "serve.lookup_ms_p50",
		"serve.khop_ms_p50", "serve.walk_ms_p50", "serve.swap_ms", "serve.handler_ms_p99", "serve.slo_rps"},
}

func TestSimulatedMetricsRepeat(t *testing.T) {
	a := toyRun(t, "place-walk", true)
	b := toyRun(t, "place-walk", true)
	for _, name := range []string{"cluster.sim_ms", "cluster.supersteps", "cluster.messages", "cluster.wait_ratio",
		"cluster.machine_skew", "partition.cut_ratio", "partition.v_bias", "partition.e_bias", "walk.message_walks"} {
		if a.Metrics[name] != b.Metrics[name] {
			t.Errorf("%s: %v then %v for one seed", name, a.Metrics[name].Value, b.Metrics[name].Value)
		}
	}
}

func toyGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.Preset(gen.LJSim, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestOraclesCatchCorruption(t *testing.T) {
	g := toyGraph(t)
	parts := make([]int, g.NumVertices())
	for v := range parts {
		parts[v] = v % numParts
	}
	e, err := engine.New(g, parts, numParts, cluster.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	pr, err := e.PageRank(prIters, prDamping)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := e.ConnectedComponents(0)
	if err != nil {
		t.Fatal(err)
	}
	wantPR, wantCC := naivePageRank(g, prIters, prDamping), naiveCC(g)

	chk := &checker{workload: "test", log: &bytes.Buffer{}}
	chk.op(0, checkRanks(pr.Ranks, wantPR, prTolerance), checkLabels(cc.Labels, wantCC))
	if chk.failed != 0 {
		t.Fatalf("engine outputs fail their oracles: %d", chk.failed)
	}
	ranks := append([]float64(nil), pr.Ranks...)
	ranks[3] += 1e-6
	chk.op(1, checkRanks(ranks, wantPR, prTolerance))
	labels := append([]uint32(nil), cc.Labels...)
	labels[5]++
	chk.op(2, checkLabels(labels, wantCC))
	if chk.failed != 2 || chk.attempted != 3 {
		t.Errorf("attempted %d failed %d, want 3 and 2", chk.attempted, chk.failed)
	}
	if !strings.Contains(chk.log.(*bytes.Buffer).String(), "op=2") {
		t.Errorf("failure log does not name the op: %q", chk.log)
	}
}

func TestLookupOracleCatchesWrongPart(t *testing.T) {
	g := toyGraph(t)
	s := &serveState{g: g, khopOf: map[graph.VertexID]int{}, khop: newKHopCounter(g)}
	for i := range s.parts {
		s.parts[i] = make([]int, g.NumVertices())
		for v := range s.parts[i] {
			s.parts[i][v] = (v + i) % numParts
		}
	}
	const v = 11
	o := &sop{kind: kindLookup, vertex: v}
	answer := func(part, version int) *outcome {
		body, _ := json.Marshal(servestats.LookupResponse{Vertex: v, Part: part, Version: version})
		return &outcome{status: 200, body: body}
	}
	if err := s.checkOne(o, answer(s.parts[0][v], 1)); err != nil {
		t.Errorf("correct lookup rejected: %v", err)
	}
	if err := s.checkOne(o, answer(s.parts[1][v], 1)); err == nil {
		t.Error("lookup answered from the wrong assignment version passed")
	}
	s.swapOp(0) // publishes version 2 (Fennel slot)
	if err := s.checkOne(o, answer(s.parts[1][v], 2)); err != nil {
		t.Errorf("correct lookup under version 2 rejected: %v", err)
	}
	if err := s.checkOne(o, answer(s.parts[1][v], 3)); err == nil {
		t.Error("lookup under an unpublished version passed")
	}
	if err := s.checkOne(o, &outcome{status: 503, body: []byte("busy")}); err == nil {
		t.Error("non-200 response passed")
	}
}

func TestKHopOracle(t *testing.T) {
	g := toyGraph(t)
	b, err := servestats.NewBackend(g, make([]int, g.NumVertices()), 1)
	if err != nil {
		t.Fatal(err)
	}
	k := newKHopCounter(g)
	for v := graph.VertexID(0); v < 50; v++ {
		want, _ := b.KHop(v, khopHops, 0)
		if got := k.count(v, khopHops); got != want {
			t.Fatalf("vertex %d: oracle %d, backend %d", v, got, want)
		}
	}
}

func TestOpStreamsFollowTheSeed(t *testing.T) {
	g := toyGraph(t)
	if a, b := pickSources(3, g, bfsSources), pickSources(3, g, bfsSources); !reflect.DeepEqual(a, b) {
		t.Errorf("BFS sources differ for one seed: %v %v", a, b)
	}
	if a, b := pickSources(3, g, bfsSources), pickSources(4, g, bfsSources); reflect.DeepEqual(a, b) {
		t.Errorf("BFS sources equal for seeds 3 and 4: %v", a)
	}
	if jobSeed(3, 0) == jobSeed(4, 0) || jobSeed(3, 0) == jobSeed(3, 1) {
		t.Error("walk seeds do not depend on the seed and the job")
	}
	plan := func(seed uint64) []sop {
		s := &serveState{g: g}
		ops, err := s.plan(seed, 2000, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return ops
	}
	if a, b := plan(3), plan(3); !reflect.DeepEqual(a, b) {
		t.Error("serve op streams differ for one seed")
	}
	a, b := plan(3), plan(4)
	if reflect.DeepEqual(a, b) {
		t.Error("serve op streams equal for seeds 3 and 4")
	}
	swaps := 0
	for _, o := range a {
		if o.kind == kindSwap {
			swaps++
		}
	}
	if swaps != 2 {
		t.Errorf("%d swaps in a 2 s phase, want 2", swaps)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	t0 := tr.t0
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add(0, -1, "job", at(0), at(100))
	tr.add(0, root, "a", at(10), at(40))
	tr.add(0, root, "a", at(30), at(50)) // overlaps the first child
	tr.add(0, root, "b", at(60), at(70))
	st := tr.selfTimes()[0]
	if got := st["job"].self; got != 50*time.Millisecond {
		t.Errorf("job self time %v, want 50ms", got)
	}
	if got := st["a"].self; got != 50*time.Millisecond {
		t.Errorf("a self time %v, want 50ms (two calls)", got)
	}
}

func TestSLOCrossing(t *testing.T) {
	limit := ms(sloP99)
	steps := []sloStep{
		{Rate: 1000, P99: limit / 2, BacklogOK: true},
		{Rate: 2000, P99: limit * 1.5, BacklogOK: true}, // a stalled step
		{Rate: 4000, P99: limit / 2, BacklogOK: true},
		{Rate: 8000, P99: limit * 4, BacklogOK: true},
	}
	// The fit pools the stalled step with the next one below the limit, so
	// the limit is crossed between 4000 and 8000.
	pooled := (math.Log(1.5*limit) + math.Log(0.5*limit)) / 2
	crossing := func(over float64) float64 {
		return 4000 * math.Pow(2, (math.Log(limit)-pooled)/(math.Log(over)-pooled))
	}
	if got, want := sloCrossing(steps), crossing(4*limit); math.Abs(got-want) > 1e-6 {
		t.Errorf("crossing %v, want %v", got, want)
	}
	// An overloaded step counts at twice the limit.
	steps[3] = sloStep{Rate: 8000, P99: limit / 2, BacklogOK: false}
	if got, want := sloCrossing(steps), crossing(2*limit); math.Abs(got-want) > 1e-6 {
		t.Errorf("crossing with an overloaded last step %v, want %v", got, want)
	}
	if got := sloCrossing(steps[:1]); got != 1000 {
		t.Errorf("crossing with every step passing %v, want the last rate", got)
	}
	steps[0].Failed = 1
	if got := sloCrossing(steps); got != 0 {
		t.Errorf("crossing with a failing first step %v, want 0", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median %v, want 3", q)
	}
	if q := quantile(xs, 0.9); q != 4.6 {
		t.Errorf("p90 %v, want 4.6", q)
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}
