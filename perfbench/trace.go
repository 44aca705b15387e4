package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one job or request share
// Op; spans of set-up repetition r have Op -1-r. Parent is the enclosing
// span's ID, or -1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Alloc is the bytes the process allocated during the span; 0 for
	// spans not recorded by do (serve requests).
	Alloc uint64 `json:"alloc_bytes,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced ops run.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span with explicit bounds and returns its ID.
func (t *tracer) add(op, parent int, name string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	return id
}

// begin opens a span that finish closes, so that calls made in between
// can name it as their parent.
func (t *tracer) begin(op, parent int, name string) int {
	now := time.Now()
	return t.add(op, parent, name, now, now)
}

func (t *tracer) finish(id int) {
	if t == nil {
		return
	}
	end := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// do times fn as a span named name and records what it allocated. On a
// nil tracer it just calls fn.
func (t *tracer) do(op, parent int, name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := t.begin(op, parent, name)
	fn()
	t.finish(id)
	runtime.ReadMemStats(&after)
	t.mu.Lock()
	t.spans[id].Alloc = after.TotalAlloc - before.TotalAlloc
	t.mu.Unlock()
}

// layerStat is one span name's aggregate for one op.
type layerStat struct {
	self  time.Duration // span time minus the time its children cover
	alloc uint64
}

// selfTimes sums, per op and span name, each span's self time: its
// duration minus the union of its children's intervals.
func (t *tracer) selfTimes() map[int]map[string]*layerStat {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]span, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[int]map[string]*layerStat{}
	for _, s := range t.spans {
		self := time.Duration(s.End-s.Start) - covered(children[s.ID])
		byName := out[s.Op]
		if byName == nil {
			byName = map[string]*layerStat{}
			out[s.Op] = byName
		}
		st := byName[s.Name]
		if st == nil {
			st = &layerStat{}
			byName[s.Name] = st
		}
		st.self += self
		st.alloc += s.Alloc
	}
	return out
}

// covered is the total length of the union of the spans' intervals.
func covered(spans []span) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]int64, len(spans))
	for i, s := range spans {
		iv[i] = [2]int64{s.Start, s.End}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
		} else if x[1] > hi {
			hi = x[1]
		}
	}
	return time.Duration(total + hi - lo)
}

// layerMedian is the median over ops of one span name's per-op self time,
// in milliseconds, and of its per-op allocation, in MiB. ops limits the
// ops considered (nil = all ops that called the layer).
func layerMedian(st map[int]map[string]*layerStat, name string, ops func(op int) bool) (selfMS, allocMB float64) {
	var selfs, allocs []float64
	for op, byName := range st {
		s := byName[name]
		if s == nil || (ops != nil && !ops(op)) {
			continue
		}
		selfs = append(selfs, ms(s.self))
		allocs = append(allocs, float64(s.alloc)/(1<<20))
	}
	sort.Float64s(selfs)
	sort.Float64s(allocs)
	return median(selfs), median(allocs)
}

// write stores the spans as JSONL, one span per line.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return nil
}
