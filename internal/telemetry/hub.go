package telemetry

import "sync/atomic"

// Hub is the VM's telemetry brain: it owns the registry and the tracer
// and implements Sink. Emitted events are routed into metrics
// unconditionally (so accounting is always auditable) and appended to the
// trace ring only while tracing is enabled.
type Hub struct {
	Reg   *Registry
	Trace *Tracer
	// Spans records completed request spans from the serving plane. Always
	// non-nil; recording is gated by its own enabled flag (spans are useful
	// without full event tracing and vice versa).
	Spans *SpanRecorder

	tracing atomic.Bool
	// clock supplies virtual-cycle timestamps. Set once during VM
	// construction, before any concurrent emitter runs.
	clock func() uint64
}

// NewHub builds a hub with a fresh registry and a tracer of ringSize
// events (DefaultRingSize if <= 0).
func NewHub(ringSize int) *Hub {
	return &Hub{Reg: NewRegistry(), Trace: NewTracer(ringSize), Spans: NewSpanRecorder(0)}
}

// SetClock installs the virtual-cycle clock used to stamp events that
// arrive without a timestamp. Must be called before concurrent use.
func (h *Hub) SetClock(clock func() uint64) { h.clock = clock }

// SetTracing switches event recording on or off. Metrics accumulate
// either way.
func (h *Hub) SetTracing(on bool) { h.tracing.Store(on) }

// TracingEnabled implements Sink.
func (h *Hub) TracingEnabled() bool { return h.tracing.Load() }

// Emit implements Sink: stamp, route to metrics, and (when tracing)
// append to the ring.
func (h *Hub) Emit(e Event) {
	if e.Time == 0 && h.clock != nil {
		e.Time = h.clock()
	}
	h.route(e)
	if h.tracing.Load() {
		h.Trace.Append(e)
	}
}

// route updates the registry for events that carry metric meaning. The
// per-kind work is a few uncontended atomics; the only hot kind is
// EvDispatch (once per scheduling quantum).
func (h *Hub) route(e Event) {
	switch e.Kind {
	case EvProcCreate:
		s := h.Reg.ProcNamed(e.Pid, e.Detail)
		s.SetMeta("state", "running")
		h.Reg.kernel.Counter(MProcsCreated).Inc()
	case EvThreadSpawn:
		h.Reg.Proc(e.Pid).Counter(MThreadsSpawned).Inc()
	case EvProcKill:
		h.Reg.Proc(e.Pid).SetMeta("state", "killed")
		h.Reg.kernel.Counter(MProcsKilled).Inc()
	case EvProcExit:
		h.Reg.Proc(e.Pid).SetMeta("state", "exited")
		h.Reg.kernel.Counter(MProcsExited).Inc()
	case EvProcReclaim:
		h.Reg.Proc(e.Pid).SetMeta("state", "reclaimed")
		h.Reg.kernel.Counter(MProcsReclaimed).Inc()
	case EvGCEnd:
		s := h.Reg.Proc(e.Pid)
		s.Counter(MGCCount).Inc()
		s.Counter(MGCCycles).Add(e.A)
		s.Counter(MGCFreedBytes).Add(e.B)
		s.Histogram(MGCPause).Observe(e.A)
	case EvBarrierViolation:
		h.Reg.kernel.Counter(MViolations).Inc()
	case EvDispatch:
		s := h.Reg.Proc(e.Pid)
		s.Counter(MDispatches).Inc()
		s.Histogram(MQuantum).Observe(e.A)
	case EvYield:
		h.Reg.Proc(e.Pid).Counter(MYields).Inc()
	case EvMemFail:
		h.Reg.kernel.Counter(MMemFailures).Inc()
	case EvSharedCreate:
		h.Reg.kernel.Counter(MSharedCreated).Inc()
	case EvSharedFreeze:
		h.Reg.kernel.Counter(MSharedFrozen).Inc()
	case EvSharedAttach:
		h.Reg.kernel.Counter(MSharedAttached).Inc()
	case EvSharedDetach:
		h.Reg.kernel.Counter(MSharedDetached).Inc()
	case EvGCFastPath:
		s := h.Reg.Proc(e.Pid)
		s.Counter(MGCFastHits).Add(e.A)
		s.Counter(MGCFastMisses).Add(e.B)
		if e.Pid != 0 {
			// Keep a kernel-wide aggregate so `top` can summarize the
			// allocation fast path without walking every scope.
			h.Reg.kernel.Counter(MGCFastHits).Add(e.A)
			h.Reg.kernel.Counter(MGCFastMisses).Add(e.B)
		}
	case EvGCOverlap:
		h.Reg.kernel.Gauge(MGCOverlap).Set(e.A)
	}
}
