package telemetry

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value reads the counter.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic last-written value.
type Gauge struct{ v atomic.Uint64 }

// Set stores the gauge value.
func (g *Gauge) Set(n uint64) { g.v.Store(n) }

// Value reads the gauge.
func (g *Gauge) Value() uint64 { return g.v.Load() }

// HistBuckets is the fixed bucket count of every histogram: bucket i
// counts observations v with 2^(i-1) < v <= 2^i-ish — concretely, bucket
// index is bits.Len64(v), so bucket 0 holds zeros and the top bucket
// absorbs overflow.
const HistBuckets = 40

// Histogram is a fixed-bucket power-of-two histogram. Observe is one
// atomic add per bucket/count/sum — cheap enough for per-dispatch use.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
	buckets [HistBuckets]atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	i := bits.Len64(v)
	if i >= HistBuckets {
		i = HistBuckets - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	// Lock-free max: retry CAS while v is larger than the stored value.
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum reports the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Max reports the largest observed value (0 when empty).
func (h *Histogram) Max() uint64 { return h.max.Load() }

// Buckets returns a snapshot of the bucket counts.
func (h *Histogram) Buckets() [HistBuckets]uint64 {
	var out [HistBuckets]uint64
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Quantile reports an upper bound of the q-quantile (0 < q <= 1): the
// upper edge of the bucket in which that rank falls. Returns 0 for an
// empty histogram.
func (h *Histogram) Quantile(q float64) uint64 {
	b := h.Buckets()
	var total uint64
	for _, n := range b {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, n := range b {
		seen += n
		if seen >= rank {
			if i == 0 {
				return 0
			}
			return 1<<uint(i) - 1
		}
	}
	return h.Max()
}

// Mean reports the average observed value (0 when empty).
func (h *Histogram) Mean() uint64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return h.sum.Load() / n
}

// Summary renders a stable, greppable one-line summary.
func (h *Histogram) Summary() string {
	return fmt.Sprintf("count=%d sum=%d mean=%d p50<=%d p99<=%d max=%d",
		h.Count(), h.Sum(), h.Mean(), h.Quantile(0.50), h.Quantile(0.99), h.Max())
}

// Scope is one named metric namespace: the kernel, or one process.
// Metrics are created lazily by name and live for the life of the VM, so
// per-process accounting survives process reclamation (which is what lets
// `kaffeos ps` show dead processes).
type Scope struct {
	Pid  int32
	Name string

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	meta     map[string]string
}

func newScope(pid int32, name string) *Scope {
	return &Scope{
		Pid:      pid,
		Name:     name,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		meta:     make(map[string]string),
	}
}

// Counter returns (creating if needed) the named counter. Hot paths
// should cache the returned pointer; the subsequent Add is one atomic op.
func (s *Scope) Counter(name string) *Counter {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.counters[name]
	if !ok {
		c = &Counter{}
		s.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (s *Scope) Gauge(name string) *Gauge {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.gauges[name]
	if !ok {
		g = &Gauge{}
		s.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram.
func (s *Scope) Histogram(name string) *Histogram {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.hists[name]
	if !ok {
		h = &Histogram{}
		s.hists[name] = h
	}
	return h
}

// DisplayName reads the scope name (which ProcNamed may set after
// creation, so reads must synchronize).
func (s *Scope) DisplayName() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Name
}

// SetMeta stores a string annotation (e.g. lifecycle state).
func (s *Scope) SetMeta(key, val string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.meta[key] = val
}

// Meta reads an annotation.
func (s *Scope) Meta(key string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.meta[key]
}

// Registry holds the kernel scope plus one scope per process ever seen.
type Registry struct {
	mu     sync.Mutex
	kernel *Scope
	procs  map[int32]*Scope
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		kernel: newScope(0, "kernel"),
		procs:  make(map[int32]*Scope),
	}
}

// Kernel returns the kernel scope.
func (r *Registry) Kernel() *Scope { return r.kernel }

// Proc returns (creating if needed) the scope of pid. Pid 0 is the
// kernel scope.
func (r *Registry) Proc(pid int32) *Scope {
	if pid == 0 {
		return r.kernel
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.procs[pid]
	if !ok {
		s = newScope(pid, fmt.Sprintf("pid%d", pid))
		r.procs[pid] = s
	}
	return s
}

// ProcNamed is Proc plus naming the scope (used at process creation).
func (r *Registry) ProcNamed(pid int32, name string) *Scope {
	s := r.Proc(pid)
	if name != "" {
		s.mu.Lock()
		s.Name = name
		s.mu.Unlock()
	}
	return s
}

// Procs lists every process scope ever created, sorted by pid.
func (r *Registry) Procs() []*Scope {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Scope, 0, len(r.procs))
	for _, s := range r.procs {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pid < out[j].Pid })
	return out
}

// Canonical metric names. Subsystems and renderers agree on these; tests
// grep for them, so treat them as a stable interface.
const (
	MCPUCycles      = "cpu.cycles"         // counter: cycles charged (incl. GC)
	MIOBytes        = "io.bytes"           // counter: bytes written to stdout
	MGCCount        = "gc.count"           // counter: collections of this scope's heap
	MGCCycles       = "gc.cycles"          // counter: total GC pause cycles
	MGCCharged      = "gc.charged"         // counter: GC cycles charged to the process
	MGCFreedBytes   = "gc.freed_bytes"     // counter: bytes freed by GC
	MGCPause        = "gc.pause_cycles"    // histogram: one observation per collection
	MGCFastHits     = "gc.fastpath.hits"   // counter: allocations served from the memlimit lease
	MGCFastMisses   = "gc.fastpath.misses" // counter: allocations that debited the memlimit tree
	MGCOverlap      = "gc.overlap"         // kernel gauge: max simultaneous collections
	MGCAdaptive     = "gc.adaptive"        // counter: collections started by the growth trigger
	MDispatches     = "sched.dispatches"   // counter: quanta dispatched
	MQuantum        = "sched.quantum"      // histogram: cycles actually used per quantum
	MYields         = "sched.yields"       // counter: voluntary yields
	MThreadsSpawned = "threads.spawned"    // counter: threads ever started
	MMemLimit       = "mem.limit"          // gauge: configured memlimit
	MProcsCreated   = "proc.created"       // kernel counter
	MProcsKilled    = "proc.killed"        // kernel counter
	MProcsExited    = "proc.exited"        // kernel counter
	MProcsReclaimed = "proc.reclaimed"     // kernel counter
	MViolations     = "barrier.violations"
	MMemFailures    = "memlimit.failures"
	MSharedCreated  = "shared.created"
	MSharedFrozen   = "shared.frozen"
	MSharedAttached = "shared.attached"
	MSharedDetached = "shared.detached"

	// Network serving plane (internal/serve). Per-tenant metrics live in
	// the scope of the tenant's current process incarnation; the kernel
	// scope carries server-wide totals.
	MServeRequests   = "serve.requests"    // counter: requests admitted
	MServeOK         = "serve.ok"          // counter: 200 responses
	MServeShed       = "serve.shed"        // counter: 503s (queue/memlimit saturation)
	MServeErrors     = "serve.errors"      // counter: 5xx from a dying/dead tenant
	MServeRestarts   = "serve.restarts"    // counter: tenant process restarts
	MServeCaught     = "serve.caught"      // counter: requests that shared a death of the tenant's process
	MServeQueueDepth = "serve.queue_depth" // gauge: requests waiting for dispatch
	MServeInflight   = "serve.inflight"    // gauge: requests executing in the VM
	MServeLatency    = "serve.latency_ns"  // histogram: wall-clock request latency

	// Go heap pacing of the serving plane (internal/serve). The setting is
	// process-wide; every running plane mirrors it into its shards'
	// kernel scopes.
	MGoGCPercent = "go.gc_percent"        // gauge: Go GC percent the plane set
	MGoHeapGoal  = "go.heap_goal_bytes"   // gauge: Go heap size at which the next GC starts
	MGoHeapLive  = "go.heap_live_bytes"   // gauge: live Go heap at the last GC (the rule's live)
	MGoAllocRate = "go.alloc_bytes_per_s" // gauge: smoothed Go allocation rate (the rule's rate)

	// Request-scoped cost attribution (spans). Histograms get one
	// observation per completed request; kernel scope aggregates across
	// tenants, each tenant scope carries its own.
	MSpanQueueNs    = "span.queue_ns"    // histogram: submit/queue wait
	MSpanMarshalNs  = "span.marshal_ns"  // histogram: body marshal into tenant heap
	MSpanExecCycles = "span.exec_cycles" // histogram: thread cycles per request
	MSpanGCCycles   = "span.gc_cycles"   // histogram: GC cycles charged per request
	MSpanTotalNs    = "span.total_ns"    // histogram: accept-to-response wall time
	MSpanDropped    = "span.dropped"     // kernel gauge: spans that fell off the ring
	MTraceDropped   = "trace.dropped"    // kernel gauge: events that fell off the ring

	// Process templates (checkpoint/fork). Kernel scope of the owning VM;
	// a template's residency shows through its own memlimit child.
	MForkCheckpoints = "fork.checkpoints"  // counter: templates created
	MForks           = "fork.forks"        // counter: processes forked from templates
	MForkBytes       = "fork.copied_bytes" // counter: bytes deep-copied by forks
	MForkFailures    = "fork.failures"     // counter: checkpoints/forks aborted (fault, memlimit)
	MForkTemplates   = "fork.templates"    // gauge: templates currently resident

	// Memory-balancer controller (internal/membal). Kernel scope of the
	// controlled VM; per-process limits show through the mem.limit gauge.
	MMemBalRounds  = "membal.rounds"  // counter: rebalance rounds completed
	MMemBalBudget  = "membal.budget"  // gauge: global budget the controller spreads
	MMemBalExtra   = "membal.extra"   // gauge: last round's distributable pool (budget - Σlive)
	MMemBalClamped = "membal.clamped" // counter: shrinks clamped up to current use
	MMemBalPartial = "membal.partial" // counter: rounds cut short by the fault plane

	// Shared code cache (internal/codecache). Kernel scope of the owning
	// VM; per-shard labels come from the serving plane's labelled hubs.
	MCodeHits      = "codecache.hits"           // counter: lookups served from the cache
	MCodeMisses    = "codecache.misses"         // counter: lookups that had to compile
	MCodeAttached  = "codecache.attached"       // counter: sharer attaches (full-size debits)
	MCodeDetached  = "codecache.detached"       // counter: sharer detaches (full-size credits)
	MCodeEvicted   = "codecache.evicted"        // counter: zero-sharer artifacts evicted
	MCodeAborts    = "codecache.attach_aborts"  // counter: attaches unwound by the fault plane
	MCodeArtifacts = "codecache.artifacts"      // gauge: artifacts currently resident
	MCodeResident  = "codecache.resident_bytes" // gauge: modeled bytes resident in the cache
)
