// Command perfbench is bpart's host-time benchmark. It runs one named
// workload over the real packages for a fixed time, checks every output
// against an independent oracle, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload iterate --seed 7 --seconds 30 --trace 0
//
// Workloads (the seed drives every op input; the datasets are the fixed
// presets):
//
//   - iterate: PageRank, CC and BFS on friendster-sim (scale 0.2) under a
//     BPart and a Chunk-V placement built in set-up. Stresses engine and
//     cluster; partitioning does no work per job.
//   - place-walk: each job partitions twitter-sim (scale 0.2) afresh with
//     BPart and with Fennel and runs a DeepWalk and a node2vec corpus on
//     each placement. Stresses partition/core and walk; engine is idle.
//   - serve: boots the real cmd/bpartd on lj-sim (scale 1.0) and drives it
//     open-loop with a seeded Zipf lookup/khop/walk mix plus periodic
//     /v1/swapz assignment uploads. Stresses servestats and the HTTP
//     surface; engine and walk are idle.
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, derived from spans recorded around
// each public call (written as JSONL under -out). A layer a workload never
// calls reports 0 for its per-layer metrics: that is its measured work.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricDef is one metric as BENCHMARK.json lists it.
type metricDef struct {
	name, unit, better string
}

// e2eMetrics are reported by every untraced run of every workload. An op
// is one job for iterate and place-walk and one request for serve:
//
//   - setup_s: median wall time of the set-up repetitions (dataset, CSR,
//     transpose and set-up placements; for serve, bpartd exec to /readyz
//     200). Oracles are computed outside it.
//   - op_ms_p50: median job wall time; for serve, the median request
//     latency from due time at the fixed nominal rate, on the quietest of
//     the bpartd instances booted in set-up. No tail percentile is an
//     end-to-end metric: a run holds too few jobs for a job p90 to have ten
//     samples beyond it, and the serve tail moves with the shared host's
//     load by more than any usable bound. The traced run reports the
//     tails per layer, and serve.slo_rps the highest rate meeting a p99
//     limit.
//   - ops_per_s: completed jobs per second of job time; for serve,
//     requests per second with every connection busy (closed loop).
//   - peak_rss_mb: VmHWM of the process doing the work (bpartd for serve).
var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_ms_p50", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MiB", "lower"},
}

// layerMetrics are reported by every traced run of every workload.
var layerMetrics = []metricDef{
	{"gen.preset_ms", "ms", "lower"},
	{"gen.alloc_mb", "MiB", "lower"},
	{"graph.transpose_ms", "ms", "lower"},
	{"partition.bpart_ms", "ms", "lower"},
	{"partition.fennel_ms", "ms", "lower"},
	{"partition.alloc_mb", "MiB", "lower"},
	{"partition.cut_ratio", "ratio", "lower"},
	{"partition.v_bias", "ratio", "lower"},
	{"partition.e_bias", "ratio", "lower"},
	{"cluster.sim_ms", "sim_ms", "lower"},
	{"cluster.supersteps", "count", "lower"},
	{"cluster.messages", "count", "lower"},
	{"cluster.wait_ratio", "ratio", "lower"},
	{"cluster.machine_skew", "ratio", "lower"},
	{"engine.pagerank.bpart_ms", "ms", "lower"},
	{"engine.pagerank.chunkv_ms", "ms", "lower"},
	{"engine.cc_ms", "ms", "lower"},
	{"engine.bfs_ms", "ms", "lower"},
	{"engine.pagerank.edges_per_s", "1/s", "higher"},
	{"engine.alloc_mb", "MiB", "lower"},
	{"engine.pagerank.w1_ms", "ms", "lower"},
	{"engine.pagerank.speedup", "ratio", "higher"},
	{"walk.deepwalk_ms", "ms", "lower"},
	{"walk.node2vec_ms", "ms", "lower"},
	{"walk.steps_per_s", "1/s", "higher"},
	{"walk.message_walks", "count", "lower"},
	{"walk.alloc_mb", "MiB", "lower"},
	{"serve.lat_ms_p99", "ms", "lower"},
	{"serve.lookup_ms_p50", "ms", "lower"},
	{"serve.khop_ms_p50", "ms", "lower"},
	{"serve.walk_ms_p50", "ms", "lower"},
	{"serve.lookup_ms_p99", "ms", "lower"},
	{"serve.khop_ms_p99", "ms", "lower"},
	{"serve.walk_ms_p99", "ms", "lower"},
	{"serve.swap_ms", "ms", "lower"},
	{"serve.khop_visited_mean", "count", "lower"},
	{"serve.handler_ms_p99", "ms", "lower"},
	{"serve.gen_lag_ms_p99", "ms", "lower"},
	{"serve.max_backlog", "count", "lower"},
	{"serve.slo_rps", "1/s", "higher"},
	{"trace.overhead_pct", "%", "lower"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*config) (*result, error){
	"iterate":    runIterate,
	"place-walk": runPlaceWalk,
	"serve":      runServe,
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	bpartd   string // bpartd binary, serve only
	outDir   string
	// shrink scales every dataset down (1 in real runs); the self-tests
	// use it to run each workload at toy size.
	shrink float64
	// setupReps is how many times set-up runs; setup_s is the median.
	setupReps int
	log       io.Writer
}

// result is what a workload measured.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	// info is the host fingerprint and input shape, printed beside the
	// metrics.
	info map[string]any
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, info: map[string]any{}}
}

// metric is one entry of the output's "metrics" object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line the benchmark prints last.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := &config{shrink: 1, setupReps: 5, log: stderr}
	fs.StringVar(&cfg.workload, "workload", "", "workload: iterate, place-walk or serve")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "measurement time in seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&cfg.bpartd, "bpartd", "", "bpartd binary (serve workload)")
	fs.StringVar(&cfg.outDir, "out", ".bench_build/perfbench", "directory for span JSONL and request logs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *traceFlag == 1
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace %d, want 0 or 1\n", *traceFlag)
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds %v, want > 0\n", cfg.seconds)
		return 2
	}
	res, err := execute(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s seed=%d: %v\n", cfg.workload, cfg.seed, err)
		return 1
	}
	out, err := render(cfg, res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	info, err := json.Marshal(map[string]any{"info": res.info})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", info, out)
	return 0
}

// execute runs the configured workload and stamps the host fingerprint.
func execute(cfg *config) (*result, error) {
	runner, ok := workloads[cfg.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, names)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	res, err := runner(cfg)
	if err != nil {
		return nil, err
	}
	res.info["workload"] = cfg.workload
	res.info["seed"] = cfg.seed
	res.info["seconds"] = cfg.seconds
	res.info["trace"] = cfg.trace
	for k, v := range hostInfo() {
		res.info[k] = v
	}
	return res, nil
}

// render selects the metrics of this run's mode and encodes the result
// line. Every end-to-end metric must have been measured; a per-layer
// metric of a layer the workload never called is 0.
func render(cfg *config, res *result) ([]byte, error) {
	defs := e2eMetrics
	if cfg.trace {
		defs = layerMetrics
	}
	out := output{
		Correct:   res.failed == 0 && res.attempted > 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok && !cfg.trace {
			return nil, fmt.Errorf("%s: end-to-end metric %s was not measured", cfg.workload, d.name)
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return json.Marshal(out)
}

// ms converts a duration to float milliseconds with full precision.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// workers is the engine worker count: min(nproc, 2).
func workers() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}
