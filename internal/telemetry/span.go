package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
)

// A Span is the cost ledger of one served request, decomposed into the
// phases a request passes through on the serving plane. It is the
// request-scoped analogue of the paper's per-process accounting: just as
// every byte and cycle a process consumes is charged to it, every
// nanosecond and cycle a request consumes is charged to a phase, so a slow
// request can always answer "where did my time go".
//
// Wall-clock phases are nanoseconds of real time; execution and GC are
// simulated cycles (the VM's precise unit), with GCNs the 500 MHz
// conversion for side-by-side reading. The attribution rule for GC
// matches process accounting: a pause is charged in full to the request
// whose thread triggered the collection, never split across overlapping
// requests (DESIGN.md §11).
type Span struct {
	// ID is the request id, minted at accept time and propagated through
	// the submit channel into thread state; dispatch quanta and GC pauses
	// are stamped with it in the event trace.
	ID    uint64 `json:"id"`
	Route string `json:"route"`
	// Shard is the engine shard that minted the span. Ids are dense per
	// shard recorder, so (Shard, ID) is the globally unique request key on
	// a sharded serving plane.
	Shard int `json:"shard"`
	// Pid is the tenant process incarnation that answered (0 when the
	// request never reached a process).
	Pid    int32 `json:"pid"`
	Status int   `json:"status"`
	// Start is the wall-clock time the socket handler accepted the
	// request, in Unix nanoseconds.
	Start int64 `json:"start_unix_ns"`
	// AcceptNs: reading the body and routing, before the engine handoff.
	AcceptNs int64 `json:"accept_ns"`
	// QueueNs: waiting in the submit channel and the tenant queue for
	// dispatch capacity.
	QueueNs int64 `json:"queue_ns"`
	// MarshalNs: copying the body into the tenant heap (charged to its
	// memlimit), including any collect-and-retry on allocation failure.
	MarshalNs int64 `json:"marshal_ns"`
	// ExecNs: wall time from dispatch into the VM until the request
	// thread finished. Includes waiting for other tenants' quanta; the
	// request's own share is ExecCycles.
	ExecNs int64 `json:"exec_ns"`
	// ExecCycles: simulated cycles the request's thread consumed.
	ExecCycles uint64 `json:"exec_cycles"`
	// GCCycles: collector cycles charged to this request (it triggered
	// the pause); GCNs is the same at the 500 MHz virtual clock rate.
	GCCycles uint64 `json:"gc_cycles"`
	GCNs     int64  `json:"gc_ns"`
	// Quanta counts scheduler dispatches of the request's thread.
	Quanta uint32 `json:"quanta"`
	// TotalNs: accept to response, end to end.
	TotalNs int64 `json:"total_ns"`
	// Detail carries the shed reason or failure description on non-200s.
	Detail string `json:"detail,omitempty"`
}

// CyclesToNs converts simulated cycles to nanoseconds at the virtual
// clock rate (500 MHz: one cycle is two nanoseconds).
func CyclesToNs(cycles uint64) int64 { return int64(cycles) * 2 }

// DefaultSpanRing is the span recorder's default capacity.
const DefaultSpanRing = 1 << 12

// SpanRecorder retains the last N completed request spans in a bounded
// ring (grown on first use, like the tracer's), mints request ids, and
// counts what fell off. Recording is opt-in: when disabled, the serving
// plane skips span allocation entirely, so the steady-state cost is one
// atomic load per accepted request and one nil check per scheduler
// dispatch.
type SpanRecorder struct {
	enabled atomic.Bool
	nextID  atomic.Uint64

	mu sync.Mutex
	r  ring[Span]
}

// NewSpanRecorder creates a recorder holding up to capacity spans
// (DefaultSpanRing if capacity <= 0).
func NewSpanRecorder(capacity int) *SpanRecorder {
	if capacity <= 0 {
		capacity = DefaultSpanRing
	}
	return &SpanRecorder{r: newRing[Span](capacity)}
}

// SetEnabled switches span recording on or off.
func (r *SpanRecorder) SetEnabled(on bool) { r.enabled.Store(on) }

// Enabled reports whether spans are being recorded.
func (r *SpanRecorder) Enabled() bool { return r.enabled.Load() }

// NextID mints a fresh request id (ids start at 1; 0 means "no request").
func (r *SpanRecorder) NextID() uint64 { return r.nextID.Add(1) }

// Record appends a completed span to the ring.
func (r *SpanRecorder) Record(sp Span) {
	r.mu.Lock()
	r.r.push(sp)
	r.mu.Unlock()
}

// Total reports how many spans were ever recorded.
func (r *SpanRecorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.r.total
}

// Capacity reports the ring size.
func (r *SpanRecorder) Capacity() int { return r.r.limit }

// Dropped reports how many spans fell off the ring. Like trace.dropped, a
// nonzero value means the retained window is truncated, not complete.
func (r *SpanRecorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.r.dropped()
}

// Snapshot returns the retained spans, oldest first.
func (r *SpanRecorder) Snapshot() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.r.snapshot()
}

// ForRoute returns the most recent spans of one route, oldest first, up
// to n (all retained when n <= 0). The flight recorder uses it to scope a
// post-mortem to the dying tenant.
func (r *SpanRecorder) ForRoute(route string, n int) []Span {
	all := r.Snapshot()
	out := make([]Span, 0, n)
	for _, sp := range all {
		if sp.Route == route {
			out = append(out, sp)
		}
	}
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// WriteJSONL dumps the retained spans as JSON lines, oldest first.
func (r *SpanRecorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, sp := range r.Snapshot() {
		if err := enc.Encode(sp); err != nil {
			return err
		}
	}
	return bw.Flush()
}
