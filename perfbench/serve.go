package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"bpart/internal/gen"
	"bpart/internal/gio"
	"bpart/internal/graph"
	"bpart/internal/partition"
	"bpart/internal/servestats"
	"bpart/internal/xrand"
)

const (
	serveDataset = gen.LJSim
	serveScale   = 1.0
	// nominalRPS is the fixed offered rate of the latency phase: about
	// half of the slo rate measured at the commit that introduced the
	// benchmark (2-CPU Xeon container, go1.24).
	nominalRPS = 2800.0
	// saturateTime is how long ops_per_s drives bpartd closed-loop, every
	// connection sending its next request as soon as the last returns,
	// over a stream planned at saturateRPS (far above capacity).
	saturateTime   = 8 * time.Second
	saturateRPS    = 20000.0
	saturateStream = 1<<20 + 1
	// sloP99 is the latency limit of the traced run's slo search
	// (serve.slo_rps, the highest rate that meets it). Over
	// loopback HTTP with client and server sharing two CPUs, the p99 of
	// an idle bpartd is already 4-9 ms depending on which vertices are
	// hot, so the limit sits above that for the search to find the load
	// at which queueing, not the hot set, breaks it.
	sloP99 = 20 * time.Millisecond
	// tenants is the number of request streams (hot sets) a phase pools.
	tenants = 16
	// swapEvery is the cadence of /v1/swapz uploads.
	swapEvery = time.Second
	// The slo search runs up to sloSteps steps of stepTime each.
	stepTime = 2800 * time.Millisecond
	sloSteps = 5
	// window is the span of the windowed quantiles (windowQuantile).
	window = 250 * time.Millisecond
	// ladderFactor is the ratio of successive rates of the slo search.
	ladderFactor = 1.3
	// requestTimeout fails a request that takes longer.
	requestTimeout = 5 * time.Second
	khopHops       = 2
	walkReqSteps   = 16
	walkAlpha      = 0.15
)

// Request kinds of a serve op.
const (
	kindLookup = iota
	kindKHop
	kindWalk
	kindSwap
)

var kindNames = []string{"lookup", "khop", "walk", "swap"}

// sop is one scheduled serve op.
type sop struct {
	kind   int
	vertex graph.VertexID
	path   string // URL path and query
	due    time.Duration
	// swap only: the assignment body and the version it must produce.
	body    []byte
	version int
}

// outcome is what happened to one sop.
type outcome struct {
	lag     time.Duration // how late the generator dispatched it
	backlog int           // ops due but not yet started, at dispatch
	sent    time.Duration
	done    time.Duration
	status  int
	body    []byte
	err     error
}

// latency is the op's time from when it was due to its last byte.
func (o *outcome) latency(s *sop) time.Duration { return o.done - s.due }

// serveState is the benchmark side of the serve workload: the graph and
// both assignments (the oracle of every routed answer) and their upload
// bodies.
type serveState struct {
	g      *graph.Graph
	parts  [2][]int // [0] BPart (odd versions), [1] Fennel (even versions)
	bodies [2][]byte
	khop   *khopCounter
	khopOf map[graph.VertexID]int
	swaps  int // swaps scheduled so far, over all phases
}

// assignment returns the placement that version v serves: version 1 is
// bpartd's boot-time BPart, and the uploads alternate Fennel, BPart, ...
func (s *serveState) assignment(v int) []int { return s.parts[(v+1)%2] }

func setupServeOracle(cfg *config, tr *tracer) (*serveState, error) {
	s := &serveState{khopOf: map[graph.VertexID]int{}}
	var err error
	tr.do(-1, -1, "gen.preset", func() { s.g, err = gen.Preset(serveDataset, serveScale*cfg.shrink) })
	if err != nil {
		return nil, err
	}
	for i, scheme := range []string{"BPart", "Fennel"} {
		p, err := partition.Get(scheme)
		if err != nil {
			return nil, err
		}
		var a *partition.Assignment
		tr.do(-1, -1, "partition."+strings.ToLower(scheme), func() { a, err = p.Partition(s.g, numParts) })
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := gio.WriteAssignment(&buf, a.Parts, numParts); err != nil {
			return nil, err
		}
		s.parts[i], s.bodies[i] = a.Parts, buf.Bytes()
	}
	s.khop = newKHopCounter(s.g)
	return s, nil
}

// plan builds a phase of dur at rate: seeded Poisson arrivals, each
// taking the next request of one of the phase's tenants, picked at random.
// A tenant is a servestats.Workload stream, a Zipf(1.0) lookup:khop:walk =
// 2:1:1 mix over its own seeded permutation of the vertices, so a phase
// pools one hot set per tenant: one hot set alone decides whether a hub's
// k-hop is hot, and so moves the tail by more than any bound. An
// assignment upload falls due every swapEvery, starting half a period in.
func (s *serveState) plan(seed uint64, rate float64, dur time.Duration) ([]sop, error) {
	rng := xrand.New(seed ^ 0xA7713A15)
	var dues []time.Duration
	var picks []int
	counts := make([]int, tenants)
	for t := 0.0; ; {
		t += -math.Log(1-rng.Float64()) / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			break
		}
		p := rng.Intn(tenants)
		dues, picks = append(dues, d), append(picks, p)
		counts[p]++
	}
	streams := make([][]servestats.Request, tenants)
	for i := range streams {
		var err error
		streams[i], err = servestats.Workload{
			Seed: seed*tenants + uint64(i), Vertices: s.g.NumVertices(), Requests: counts[i], ZipfS: 1.0,
			Hops: khopHops, Steps: walkReqSteps, Alpha: walkAlpha,
			LookupW: 2, KHopW: 1, WalkW: 1,
		}.Generate()
		if err != nil {
			return nil, err
		}
	}
	ops := make([]sop, 0, len(dues)+int(dur/swapEvery)+1)
	next := make([]int, tenants)
	nextSwap := swapEvery / 2
	for i, due := range dues {
		for ; nextSwap <= due; nextSwap += swapEvery {
			ops = append(ops, s.swapOp(nextSwap))
		}
		r := streams[picks[i]][next[picks[i]]]
		next[picks[i]]++
		o := sop{vertex: r.Vertex, due: due}
		switch r.Endpoint {
		case servestats.EndpointLookup:
			o.kind, o.path = kindLookup, fmt.Sprintf("/v1/lookup?v=%d", r.Vertex)
		case servestats.EndpointKHop:
			o.kind, o.path = kindKHop, fmt.Sprintf("/v1/khop?v=%d&hops=%d", r.Vertex, r.Hops)
		default:
			o.kind = kindWalk
			o.path = fmt.Sprintf("/v1/walk?v=%d&steps=%d&alpha=%g&seed=%d", r.Vertex, r.Steps, r.Alpha, r.Seed)
		}
		ops = append(ops, o)
	}
	for ; nextSwap < dur; nextSwap += swapEvery {
		ops = append(ops, s.swapOp(nextSwap))
	}
	return ops, nil
}

// streamSeed is the seed of stream i of a run: one per instance's
// nominal phase, and sloStream for the slo search.
func streamSeed(seed uint64, i int) uint64 {
	return (seed+1)*0x9E3779B97F4A7C15 ^ uint64(i+1)*0xBF58476D1CE4E5B9
}

const sloStream = 1 << 20

func (s *serveState) swapOp(due time.Duration) sop {
	s.swaps++
	v := s.swaps + 1
	return sop{kind: kindSwap, path: "/v1/swapz", due: due, body: s.bodies[(v+1)%2], version: v}
}

// client drives bpartd over at most conns connections.
type client struct {
	base  string
	http  *http.Client
	conns int
}

func newClient(addr string, conns int) *client {
	return &client{
		base:  "http://" + addr,
		conns: conns,
		http: &http.Client{
			Timeout: requestTimeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
	}
}

// do issues one op and reads its whole response.
func (c *client) do(o *sop) (int, []byte, error) {
	var resp *http.Response
	var err error
	if o.kind == kindSwap {
		resp, err = c.http.Post(c.base+o.path, "text/plain", bytes.NewReader(o.body))
	} else {
		resp, err = c.http.Get(c.base + o.path)
	}
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// runPhase plays ops open-loop: each op is handed to a connection worker
// at its due time whether or not earlier ops have finished, and is timed
// from that due time. traced(opBase+i) marks the ops recorded as spans.
func (c *client) runPhase(ops []sop, tr *tracer, opBase int, traced func(i int) bool) []outcome {
	out := make([]outcome, len(ops))
	// Sized to the number of sends, so the generator never blocks on it.
	queue := make(chan int, len(ops))
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				o := &out[i]
				o.sent = time.Since(start)
				o.status, o.body, o.err = c.do(&ops[i])
				o.done = time.Since(start)
				if tr != nil && traced(opBase+i) {
					root := tr.add(opBase+i, -1, "request", start.Add(ops[i].due), start.Add(o.done))
					tr.add(opBase+i, root, "http."+kindNames[ops[i].kind], start.Add(o.sent), start.Add(o.done))
				}
			}
		}()
	}
	for i := range ops {
		if d := ops[i].due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		out[i].lag = time.Since(start) - ops[i].due
		out[i].backlog = len(queue)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

// runClosed drives ops closed-loop for up to dur: each connection takes
// the next op as soon as its last one returns. It returns the outcomes, how
// many ops were issued (a prefix of ops) and the time until the last one
// returned.
func (c *client) runClosed(ops []sop, dur time.Duration) ([]outcome, int, time.Duration) {
	out := make([]outcome, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				o := &out[i]
				o.sent = time.Since(start)
				o.status, o.body, o.err = c.do(&ops[i])
				o.done = time.Since(start)
			}
		}()
	}
	wg.Wait()
	n := int(next.Load())
	if n > len(ops) {
		n = len(ops)
	}
	return out, n, time.Since(start)
}

// phaseStats summarizes a phase's request latencies (swaps excluded).
type phaseStats struct {
	lat []float64 // ms from due, requests only
	// windows groups the request latencies by window of due time.
	windows   [][]float64
	failed    int // requests or swaps that errored or were not 200
	backlogOK bool
}

func summarize(ops []sop, out []outcome) phaseStats {
	var ps phaseStats
	var first, last []float64
	for i := range ops {
		o := &out[i]
		if o.err != nil || o.status != http.StatusOK {
			ps.failed++
		}
		if ops[i].kind != kindSwap {
			lat := ms(o.latency(&ops[i]))
			ps.lat = append(ps.lat, lat)
			w := int(ops[i].due / window)
			for len(ps.windows) <= w {
				ps.windows = append(ps.windows, nil)
			}
			ps.windows[w] = append(ps.windows[w], lat)
		}
		switch q := 4 * i / len(ops); q {
		case 0:
			first = append(first, float64(o.backlog))
		case 3:
			last = append(last, float64(o.backlog))
		}
	}
	// A backlog that grows over the step means the rate is not sustained.
	// The slack of 1% of the step's ops (at least one) absorbs the queue a
	// single slow request leaves behind; a rate above capacity grows the
	// queue by far more.
	ps.backlogOK = mean(last) <= mean(first)+math.Max(1, float64(len(ops))/100)
	return ps
}

// windowQuantile is the median over the phase's windows of each window's
// q-quantile. Load that queues raises every window; a stall of the shared
// host raises only its own.
func (ps *phaseStats) windowQuantile(q float64) float64 {
	var qs []float64
	for _, w := range ps.windows {
		if len(w) > 0 {
			qs = append(qs, quantile(w, q))
		}
	}
	return median(qs)
}

// check validates every response of a phase against the oracles.
func (s *serveState) check(chk *checker, opBase int, ops []sop, out []outcome) {
	for i := range ops {
		chk.op(opBase+i, s.checkOne(&ops[i], &out[i]))
	}
}

func (s *serveState) checkOne(o *sop, r *outcome) error {
	name := kindNames[o.kind]
	if r.err != nil {
		return fmt.Errorf("%s: %w", name, r.err)
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", name, r.status, bytes.TrimSpace(r.body))
	}
	part := func(version int, v graph.VertexID) (int, error) {
		if version < 1 || version > s.swaps+1 {
			return 0, fmt.Errorf("%s: version %d was never published", name, version)
		}
		return s.assignment(version)[v], nil
	}
	switch o.kind {
	case kindLookup:
		var resp servestats.LookupResponse
		if err := json.Unmarshal(r.body, &resp); err != nil {
			return fmt.Errorf("lookup: %w", err)
		}
		return s.checkRouted(name, resp.Vertex, o.vertex, resp.Part, resp.Version, part)
	case kindKHop:
		var resp servestats.KHopResponse
		if err := json.Unmarshal(r.body, &resp); err != nil {
			return fmt.Errorf("khop: %w", err)
		}
		if want := s.khopCount(o.vertex); resp.Count != want {
			return fmt.Errorf("khop: vertex %d count %d, want %d", o.vertex, resp.Count, want)
		}
		return s.checkRouted(name, resp.Vertex, o.vertex, resp.Part, resp.Version, part)
	case kindWalk:
		var resp servestats.WalkResponse
		if err := json.Unmarshal(r.body, &resp); err != nil {
			return fmt.Errorf("walk: %w", err)
		}
		if resp.End < 0 || int(resp.End) >= s.g.NumVertices() || resp.Visited > walkReqSteps || resp.Steps != walkReqSteps {
			return fmt.Errorf("walk: vertex %d: end %d visited %d steps %d out of range", o.vertex, resp.End, resp.Visited, resp.Steps)
		}
		if want, err := part(resp.Version, graph.VertexID(resp.End)); err != nil || resp.EndPart != want {
			return fmt.Errorf("walk: end %d part %d, want %d under version %d (%v)", resp.End, resp.EndPart, want, resp.Version, err)
		}
		return s.checkRouted(name, resp.Vertex, o.vertex, resp.Part, resp.Version, part)
	default:
		var resp servestats.SwapResponse
		if err := json.Unmarshal(r.body, &resp); err != nil {
			return fmt.Errorf("swap: %w", err)
		}
		if resp.Version != o.version || resp.K != numParts {
			return fmt.Errorf("swap: version %d k %d, want %d and %d", resp.Version, resp.K, o.version, numParts)
		}
		return nil
	}
}

// checkRouted checks a response's vertex and its part under the
// response's own assignment version.
func (s *serveState) checkRouted(name string, got int64, want graph.VertexID, gotPart, version int, part func(int, graph.VertexID) (int, error)) error {
	if got != int64(want) {
		return fmt.Errorf("%s: answered vertex %d, asked %d", name, got, want)
	}
	p, err := part(version, want)
	if err != nil {
		return err
	}
	if gotPart != p {
		return fmt.Errorf("%s: vertex %d part %d, want %d under version %d", name, want, gotPart, p, version)
	}
	return nil
}

func (s *serveState) khopCount(v graph.VertexID) int {
	c, ok := s.khopOf[v]
	if !ok {
		c = s.khop.count(v, khopHops)
		s.khopOf[v] = c
	}
	return c
}

// daemon is a running bpartd.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	drained chan struct{} // closed once its stdout is read to the end
}

// startDaemon boots bpartd and returns once /readyz answers 200, with the
// time from exec to ready.
func startDaemon(cfg *config, reqlog string) (*daemon, time.Duration, error) {
	args := []string{
		"-dataset", string(serveDataset), "-scale", strconv.FormatFloat(serveScale*cfg.shrink, 'g', -1, 64),
		"-scheme", "BPart", "-k", strconv.Itoa(numParts), "-addr", "127.0.0.1:0",
	}
	if reqlog != "" {
		args = append(args, "-reqlog", reqlog)
	}
	cmd := exec.Command(cfg.bpartd, args...)
	cmd.Stderr = cfg.log
	// If the benchmark dies without stopping it, the kernel kills bpartd.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start bpartd: %w", err)
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	br := bufio.NewReader(stdout)
	line, err := br.ReadString('\n')
	go func() {
		defer close(d.drained)
		_, _ = io.Copy(io.Discard, br) // bpartd's later status lines
	}()
	if _, addr, ok := strings.Cut(strings.TrimSpace(line), "on http://"); ok {
		d.addr = addr
	} else {
		d.stop()
		return nil, 0, fmt.Errorf("bpartd did not report its address (read %q: %v)", line, err)
	}
	probe := &http.Client{Timeout: requestTimeout}
	for {
		resp, err := probe.Get("http://" + d.addr + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Since(start) > time.Minute {
			d.stop()
			return nil, 0, fmt.Errorf("bpartd not ready after a minute (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains bpartd with SIGTERM (killing it if it has not exited within
// ten seconds) and waits for it.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		_ = d.cmd.Process.Kill() // the Wait below reports the outcome
	}
	select {
	case <-d.drained:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill() // a hung drain; Wait reports the kill
		<-d.drained
	}
	return d.cmd.Wait()
}

func runServe(cfg *config) (*result, error) {
	if cfg.bpartd == "" {
		return nil, fmt.Errorf("serve needs -bpartd")
	}
	res := newResult()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	// The benchmark's own copy of the graph and both assignments: the
	// oracle of every answer and the upload bodies. Not part of setup_s.
	s, err := setupServeOracle(cfg, tr)
	if err != nil {
		return nil, err
	}
	res.info["inputs"] = []any{inputShape(fmt.Sprintf("%s@%g", serveDataset, serveScale*cfg.shrink), s.g)}

	conns := runtime.NumCPU()
	res.info["conns"] = conns
	res.info["nominal_rps"] = nominalRPS
	chk := &checker{workload: cfg.workload, seed: cfg.seed, log: cfg.log}

	// Every set-up repetition boots a fresh bpartd and serves its share of
	// the nominal-rate phase. op_ms_p50 is the quietest instance's median
	// (min of N), because one instance's heap and thread placement and the
	// shared host's load over its seconds shift its latencies more than
	// repeated phases on one instance differ. The last instance then
	// measures its saturated throughput (ops_per_s) or, in a traced run,
	// which traces every other nominal-rate request, runs the slo search.
	nominal := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		nominal -= sloSteps * stepTime
	} else {
		nominal -= saturateTime
	}
	perBoot := nominal / time.Duration(cfg.setupReps)
	if perBoot < swapEvery {
		perBoot = swapEvery
	}
	traced := func(op int) bool { return op%2 == 1 }
	var d *daemon
	defer func() {
		if d != nil {
			_ = d.stop() // error path only; the success path checks stop
		}
	}()
	var c *client
	var boots, p50s []float64
	var reqlogs []string
	var allOps []sop
	var allOut []outcome
	opBase := 0
	for rep := 0; rep < cfg.setupReps; rep++ {
		if d != nil {
			c.http.CloseIdleConnections()
			err := d.stop()
			d = nil
			if err != nil {
				return nil, fmt.Errorf("stop bpartd: %w", err)
			}
		}
		reqlog := ""
		if cfg.trace {
			reqlog = filepath.Join(cfg.outDir, fmt.Sprintf("reqlog-%d-%d.jsonl", cfg.seed, rep))
			reqlogs = append(reqlogs, reqlog)
		}
		var boot time.Duration
		if d, boot, err = startDaemon(cfg, reqlog); err != nil {
			return nil, err
		}
		boots = append(boots, boot.Seconds())
		s.swaps = 0 // a fresh instance starts at version 1
		ops, err := s.plan(streamSeed(cfg.seed, rep), nominalRPS, perBoot)
		if err != nil {
			return nil, err
		}
		c = newClient(d.addr, conns)
		runtime.GC() // start every phase from the same heap state
		out := c.runPhase(ops, tr, opBase, traced)
		s.check(chk, opBase, ops, out)
		ps := summarize(ops, out)
		p50s = append(p50s, median(ps.lat))
		opBase += len(ops)
		if cfg.trace {
			allOps = append(allOps, ops...)
			allOut = append(allOut, out...)
		}
	}
	res.metrics["setup_s"] = median(boots)

	if cfg.trace {
		s.layerMetrics(res, allOps, allOut, traced)
		slo, trail, n, err := s.sloSearch(cfg, c, chk, opBase)
		if err != nil {
			return nil, err
		}
		opBase = n
		res.metrics["serve.slo_rps"] = slo
		res.info["slo_steps"] = trail
		res.info["slo_p99_ms"] = ms(sloP99)
	} else {
		res.metrics["op_ms_p50"] = slices.Min(p50s)
		ops, err := s.plan(streamSeed(cfg.seed, saturateStream), saturateRPS, saturateTime)
		if err != nil {
			return nil, err
		}
		out, n, took := c.runClosed(ops, saturateTime)
		s.check(chk, opBase, ops[:n], out[:n])
		opBase += n
		res.metrics["ops_per_s"] = float64(n) / took.Seconds()
	}
	rss, err := peakRSSMB(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	res.metrics["peak_rss_mb"] = rss
	err = d.stop()
	d = nil
	if err != nil {
		return nil, fmt.Errorf("bpartd exit: %w", err)
	}
	res.attempted, res.failed = chk.attempted, chk.failed
	res.info["requests"] = opBase
	if !cfg.trace {
		return res, nil
	}
	if err := handlerP99(res, reqlogs); err != nil {
		return nil, err
	}
	sts := tr.selfTimes()
	res.metrics["gen.preset_ms"], res.metrics["gen.alloc_mb"] = layerMedian(sts, "gen.preset", nil)
	var bpAlloc, feAlloc float64
	res.metrics["partition.bpart_ms"], bpAlloc = layerMedian(sts, "partition.bpart", nil)
	res.metrics["partition.fennel_ms"], feAlloc = layerMedian(sts, "partition.fennel", nil)
	res.metrics["partition.alloc_mb"] = bpAlloc + feAlloc
	quality(res, s.g, s.parts[0])
	return res, writeTrace(cfg, tr, res)
}

// sloStep is one rate step of the slo search, printed with the run info.
type sloStep struct {
	Rate      float64 `json:"rps"`
	P99       float64 `json:"p99_ms"`
	Failed    int     `json:"failed"`
	BacklogOK bool    `json:"backlog_ok"`
}

func (st sloStep) pass() bool { return st.Failed == 0 && st.BacklogOK && st.P99 <= ms(sloP99) }

// sloSearch finds the highest offered rate whose p99 from due time (the
// median of its windows' p99s) stays within sloP99 with no failed op and
// no growing backlog. It offers a ladder of up to sloSteps rates,
// ladderFactor apart, each for stepTime of one fixed stream, so that only
// the rate changes between steps. The ladder climbs from
// ladderFactor × nominal until two steps in a row fail, or, if that first
// step fails, descends until one passes. A step's p99 near the limit
// swings by 2x between repeats on a shared host, so the rate is read off
// a fit over all steps (sloCrossing) rather than off one step's verdict.
// The ends of the ladder bound the result.
func (s *serveState) sloSearch(cfg *config, c *client, chk *checker, opBase int) (float64, []sloStep, int, error) {
	seed := streamSeed(cfg.seed, sloStream)
	var trail []sloStep
	rate, down := nominalRPS*ladderFactor, false
	for len(trail) < sloSteps {
		ops, err := s.plan(seed, rate, stepTime)
		if err != nil {
			return 0, nil, 0, err
		}
		out := c.runPhase(ops, nil, opBase, nil)
		ps := summarize(ops, out)
		s.check(chk, opBase, ops, out)
		opBase += len(ops)
		st := sloStep{Rate: rate, P99: ps.windowQuantile(0.99), Failed: ps.failed, BacklogOK: ps.backlogOK}
		trail = append(trail, st)
		n := len(trail)
		if n == 1 && !st.pass() {
			down = true
		} else if (down && st.pass()) || (!down && !st.pass() && !trail[n-2].pass()) {
			break
		}
		if down {
			rate /= ladderFactor
		} else {
			rate *= ladderFactor
		}
	}
	sort.Slice(trail, func(i, j int) bool { return trail[i].Rate < trail[j].Rate })
	return sloCrossing(trail), trail, opBase, nil
}

// sloCrossing fits the steps' log p99 non-decreasing in rate and returns
// the rate at which the fit crosses sloP99, interpolated in log rate
// between the last step under the limit and the first over it; the last
// step's rate if none is over, and 0 if the first already is. A step with
// failed ops or a growing backlog counts as over the limit: at its p99,
// or at twice the limit if its p99 is lower.
func sloCrossing(trail []sloStep) float64 {
	if len(trail) == 0 {
		return 0
	}
	limit := math.Log(ms(sloP99))
	fit := make([]float64, len(trail))
	for i, st := range trail {
		fit[i] = math.Log(st.P99)
		if !st.pass() && fit[i] <= limit {
			fit[i] = limit + math.Ln2
		}
	}
	isotonic(fit)
	for i, f := range fit {
		if f <= limit {
			continue
		}
		if i == 0 {
			return 0
		}
		lo, hi := trail[i-1].Rate, trail[i].Rate
		x := (limit - fit[i-1]) / (f - fit[i-1])
		return lo * math.Pow(hi/lo, x)
	}
	return trail[len(trail)-1].Rate
}

// isotonic replaces xs by its least-squares non-decreasing fit (pool
// adjacent violators).
func isotonic(xs []float64) {
	type block struct {
		sum float64
		n   int
	}
	var bs []block
	for _, x := range xs {
		bs = append(bs, block{x, 1})
		for len(bs) > 1 {
			a, b := bs[len(bs)-2], bs[len(bs)-1]
			if a.sum/float64(a.n) <= b.sum/float64(b.n) {
				break
			}
			bs = append(bs[:len(bs)-2], block{a.sum + b.sum, a.n + b.n})
		}
	}
	i := 0
	for _, b := range bs {
		for j := 0; j < b.n; j++ {
			xs[i] = b.sum / float64(b.n)
			i++
		}
	}
}

// layerMetrics reports the traced run's per-endpoint latencies from due
// time (traced requests only), swap time, k-hop work, generator lag and
// backlog.
func (s *serveState) layerMetrics(res *result, ops []sop, out []outcome, traced func(int) bool) {
	byKind := make([][]float64, len(kindNames))
	var tracedLat, untracedLat, lags, visited []float64
	maxBacklog := 0
	for i := range ops {
		o := &out[i]
		lat := ms(o.latency(&ops[i]))
		lags = append(lags, ms(o.lag))
		if o.backlog > maxBacklog {
			maxBacklog = o.backlog
		}
		if ops[i].kind == kindKHop {
			var resp servestats.KHopResponse
			if json.Unmarshal(o.body, &resp) == nil {
				visited = append(visited, float64(resp.Count))
			}
		}
		if ops[i].kind == kindSwap {
			byKind[kindSwap] = append(byKind[kindSwap], lat)
			continue
		}
		if traced(i) {
			byKind[ops[i].kind] = append(byKind[ops[i].kind], lat)
			tracedLat = append(tracedLat, lat)
		} else {
			untracedLat = append(untracedLat, lat)
		}
	}
	res.metrics["serve.lat_ms_p99"] = quantile(tracedLat, 0.99)
	for _, k := range []int{kindLookup, kindKHop, kindWalk} {
		res.metrics["serve."+kindNames[k]+"_ms_p50"] = median(byKind[k])
		res.metrics["serve."+kindNames[k]+"_ms_p99"] = quantile(byKind[k], 0.99)
	}
	res.metrics["serve.swap_ms"] = median(byKind[kindSwap])
	res.metrics["serve.khop_visited_mean"] = mean(visited)
	res.metrics["serve.gen_lag_ms_p99"] = quantile(lags, 0.99)
	res.metrics["serve.max_backlog"] = float64(maxBacklog)
	res.metrics["trace.overhead_pct"] = overheadPct(tracedLat, untracedLat)
}

// handlerP99 reads bpartd's request logs: the server-side handler time.
func handlerP99(res *result, paths []string) error {
	var lat []float64
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		l, err := servestats.Read(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("request log %s: %w", path, err)
		}
		for _, r := range l.Records {
			lat = append(lat, r.LatencyUS/1000)
		}
	}
	res.metrics["serve.handler_ms_p99"] = quantile(lat, 0.99)
	res.info["reqlog_files"] = paths
	return nil
}
