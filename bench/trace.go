package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files around the call. Spans of one request share Req.
type span struct {
	ID       uint64 `json:"id"`
	Parent   uint64 `json:"parent,omitempty"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Req      uint64 `json:"req,omitempty"`
	Start    int64  `json:"start_unix_ns"`
	End      int64  `json:"end_unix_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the end-to-end path can share code with the traced one.
type tracer struct {
	workload string
	mu       sync.Mutex
	spans    []span
}

// begin opens a span now; end closes it.
func (t *tracer) begin(name string, parent uint64) uint64 {
	if t == nil {
		return 0
	}
	return t.add(name, parent, 0, time.Now().UnixNano(), 0)
}

func (t *tracer) end(id uint64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose times are already known.
func (t *tracer) add(name string, parent, req uint64, start, end int64) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := uint64(len(t.spans) + 1)
	if req == 0 && parent == 0 {
		req = id // a root span starts a request of its own
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, Req: req, Start: start, End: end})
	return id
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTime is the time spent under one span name.
type layerTime struct {
	name        string
	count       int
	total, self time.Duration
}

// selfTimes sums, per span name, the spans' durations and their self time:
// a span's duration minus the part its direct children cover.
func (t *tracer) selfTimes() []layerTime {
	children := make(map[uint64]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	byName := make(map[string]*layerTime)
	for _, s := range t.spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{name: s.Name}
			byName[s.Name] = lt
		}
		dur := s.End - s.Start
		self := dur - children[s.ID]
		if self < 0 {
			self = 0
		}
		lt.count++
		lt.total += time.Duration(dur)
		lt.self += time.Duration(self)
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// defaultTraceFile is where a traced run leaves its spans, relative to the
// directory the benchmark is run from (the repository root).
const defaultTraceFile = "bench/out/trace.jsonl"

// runTraced is the separate traced run: every layer probe runs, then the
// workload with the plane's request ledger on; the result carries every
// per-layer metric (0 where a metric is not defined on the workload). The
// probes go first so that they meet the same fresh Go heap on every
// workload: the Go collector's pacing follows the live heap, and a workload
// leaves a large one behind.
func runTraced(w *workload, o options) (*result, error) {
	tr := &tracer{workload: w.name}
	res := &result{workload: w.name, correct: true, metrics: make(map[string]metric)}
	for _, name := range perLayer {
		res.set(name, 0)
	}
	if err := runProbes(o, tr, res); err != nil {
		return nil, err
	}
	var err error
	if w.isServe() {
		err = tracedServe(w, o, tr, res)
	} else {
		err = tracedBatch(w, o, tr, res)
	}
	if err != nil {
		return nil, err
	}
	if err := tr.write(o.traceFile); err != nil {
		return nil, err
	}
	res.notef("%d spans written to %s; time by span name (self = duration minus direct children):", len(tr.spans), o.traceFile)
	for i, lt := range tr.selfTimes() {
		if i == 12 {
			break
		}
		res.notef("  %-28s n=%-7d total %10.3f ms  self %10.3f ms", lt.name, lt.count, lt.total.Seconds()*1e3, lt.self.Seconds()*1e3)
	}
	return res, nil
}
