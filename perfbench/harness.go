package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"
)

// setupOp is the span op of set-up repetition rep.
func setupOp(rep int) int { return -1 - rep }

func isJobOp(op int) bool { return op >= 0 }

// repeatSetup runs setup cfg.setupReps times and returns the last state
// and the median wall time in seconds. The garbage of earlier repetitions
// is collected between them, outside the timed interval.
func repeatSetup[T any](cfg *config, tr *tracer, setup func(op int, tr *tracer) (T, error)) (T, float64, error) {
	var st T
	var secs []float64
	for rep := 0; rep < cfg.setupReps; rep++ {
		var zero T
		st = zero // let the collection below free the previous repetition
		runtime.GC()
		start := time.Now()
		var err error
		st, err = setup(setupOp(rep), tr)
		if err != nil {
			return st, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return st, median(secs), nil
}

// batchRun is what a batch workload's job loop measured.
type batchRun struct {
	jobMS    []float64 // every job's wall time
	busy     time.Duration
	traced   []float64 // traced run: traced jobs' wall times
	untraced []float64 // traced run: untraced jobs' wall times
}

// batchLoop runs job until cfg.seconds have passed (and at least once).
// job returns the wall time of its timed part. In a traced run odd jobs
// are traced and even jobs are not, so the two medians give the tracing
// overhead.
func batchLoop(cfg *config, tr *tracer, job func(op int, tr *tracer) (time.Duration, error)) (*batchRun, error) {
	minJobs := 1
	if cfg.trace {
		minJobs = 2
	}
	br := &batchRun{}
	runtime.GC() // start every run from the same heap state
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for op := 0; op < minJobs || time.Now().Before(deadline); op++ {
		jt := tr
		if op%2 == 0 {
			jt = nil
		}
		d, err := job(op, jt)
		if err != nil {
			return nil, fmt.Errorf("job %d: %w", op, err)
		}
		br.jobMS = append(br.jobMS, ms(d))
		br.busy += d
		if cfg.trace {
			if jt != nil {
				br.traced = append(br.traced, ms(d))
			} else {
				br.untraced = append(br.untraced, ms(d))
			}
		}
	}
	return br, nil
}

// report fills the end-to-end job metrics, or in a traced run the
// tracing overhead.
func (br *batchRun) report(cfg *config, res *result) error {
	res.info["jobs"] = len(br.jobMS)
	if cfg.trace {
		res.metrics["trace.overhead_pct"] = overheadPct(br.traced, br.untraced)
		return nil
	}
	res.metrics["op_ms_p50"] = median(br.jobMS)
	res.metrics["ops_per_s"] = float64(len(br.jobMS)) / br.busy.Seconds()
	rss, err := peakRSSMB(0)
	if err != nil {
		return err
	}
	res.metrics["peak_rss_mb"] = rss
	return nil
}

// overheadPct is how much slower the traced median is than the untraced
// one, in percent of the untraced median.
func overheadPct(traced, untraced []float64) float64 {
	u := median(untraced)
	if u == 0 {
		return 0
	}
	return (median(traced) - u) / u * 100
}

// writeTrace stores a traced run's spans as JSONL under cfg.outDir.
func writeTrace(cfg *config, tr *tracer, res *result) error {
	if tr == nil {
		return nil
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	res.info["trace_file"] = path
	return nil
}
