// Package telemetry is the kernel-wide observability layer: a lock-cheap
// metrics registry (atomic counters, gauges, and fixed-bucket histograms
// with per-process and kernel scopes), a bounded ring-buffer event tracer
// recording typed events stamped with pid and virtual-cycle time, and the
// snapshot/rendering surface behind `kaffeos ps`/`top`, the `-trace`
// JSONL dump, and the opt-in HTTP introspection endpoint.
//
// The package is a leaf: it imports only the standard library, so every
// subsystem (heap, barrier, sched, memlimit, shared, core, jserv) can
// report into it without cycles. Instrumentation reaches it through the
// narrow Sink interface; when tracing is off, emitting an event costs the
// metric updates only (a handful of uncontended atomic ops on cold paths,
// one counter bump on hot ones), and the ring append is skipped after a
// single atomic load.
package telemetry

import "fmt"

// Kind is the type of a traced event. The taxonomy covers the paper's
// observable kernel actions: process lifecycle, GC, write-barrier
// segmentation violations, scheduling, memlimit reserve failures, and the
// shared-heap lifecycle.
type Kind uint8

const (
	// EvProcCreate: a process was created. Detail = process name.
	EvProcCreate Kind = iota + 1
	// EvThreadSpawn: a thread started in the process. A = thread id.
	EvThreadSpawn
	// EvProcKill: the process was killed. Detail = reason.
	EvProcKill
	// EvProcExit: the last thread exited normally.
	EvProcExit
	// EvProcReclaim: the process' heap merged into the kernel heap and its
	// namespace was unloaded. Detail = final state before reclamation.
	EvProcReclaim
	// EvGCStart: a collection of the pid's heap began. A = live bytes,
	// B = live objects. Detail = heap name.
	EvGCStart
	// EvGCEnd: the collection finished. A = cycles, B = freed bytes.
	// Detail = heap name.
	EvGCEnd
	// EvBarrierViolation: the write barrier refused an illegal cross-heap
	// store (a KaffeOS segmentation violation). Detail = reason.
	EvBarrierViolation
	// EvDispatch: the scheduler ran one thread for one quantum.
	// A = cycles consumed, B = step result code. Detail is empty on this
	// hot path.
	EvDispatch
	// EvYield: a thread voluntarily gave up its quantum. A = thread id.
	EvYield
	// EvMemFail: a memlimit refused a debit (reservation failure).
	// A = bytes requested, B = bytes in use at the refusing limit.
	// Detail = limit name.
	EvMemFail
	// EvSharedCreate: a shared heap was created. Detail = heap name.
	EvSharedCreate
	// EvSharedFreeze: a shared heap was frozen. A = frozen size.
	EvSharedFreeze
	// EvSharedAttach: a process attached to (was charged for) a shared
	// heap. A = charged size. Detail = heap name.
	EvSharedAttach
	// EvSharedDetach: a process' charge for a shared heap was credited
	// back. Detail = heap name.
	EvSharedDetach
	// EvGCFastPath: allocation fast-path counters flushed at GC/merge.
	// A = lease hits since last flush, B = misses. Detail = heap name.
	EvGCFastPath
	// EvGCOverlap: a new maximum of simultaneously running collections.
	// A = the new maximum.
	EvGCOverlap
	// EvServeShed: the serving plane refused a request with 503.
	// A = queue depth at refusal. Detail = tenant route and reason.
	EvServeShed
	// EvServeRestart: the serving plane restarted a dead tenant process.
	// A = consecutive deaths before this restart. Detail = tenant route.
	EvServeRestart
	// EvMemRebalance: the memory-balancer controller redistributed the
	// global budget across process memlimits. A = budget bytes,
	// B = heaps whose limits were updated this round. Detail carries
	// "partial" when the fault plane aborted the round mid-redistribution.
	EvMemRebalance
	// EvCheckpoint: a warmed process was frozen into an immutable template.
	// A = template bytes, B = objects copied. Detail = template name.
	EvCheckpoint
	// EvFork: a fresh process was stamped out from a template. A = bytes
	// copied (charged in full to the clone), B = template pid. Detail =
	// clone process name.
	EvFork

	kindMax
)

var kindNames = [kindMax]string{
	EvProcCreate:       "proc-create",
	EvThreadSpawn:      "thread-spawn",
	EvProcKill:         "proc-kill",
	EvProcExit:         "proc-exit",
	EvProcReclaim:      "proc-reclaim",
	EvGCStart:          "gc-start",
	EvGCEnd:            "gc-end",
	EvBarrierViolation: "barrier-violation",
	EvDispatch:         "dispatch",
	EvYield:            "yield",
	EvMemFail:          "memlimit-fail",
	EvSharedCreate:     "shared-create",
	EvSharedFreeze:     "shared-freeze",
	EvSharedAttach:     "shared-attach",
	EvSharedDetach:     "shared-detach",
	EvGCFastPath:       "gc-fastpath",
	EvGCOverlap:        "gc-overlap",
	EvServeShed:        "serve-shed",
	EvServeRestart:     "serve-restart",
	EvMemRebalance:     "membal-rebalance",
	EvCheckpoint:       "proc-checkpoint",
	EvFork:             "proc-fork",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// fieldNames maps the generic A/B payload words to kind-specific JSON
// keys, so trace dumps are self-describing.
var fieldNames = [kindMax][2]string{
	EvThreadSpawn:  {"tid", ""},
	EvGCStart:      {"live_bytes", "live_objects"},
	EvGCEnd:        {"cycles", "freed_bytes"},
	EvDispatch:     {"cycles", "result"},
	EvYield:        {"tid", ""},
	EvMemFail:      {"need_bytes", "use_bytes"},
	EvSharedFreeze: {"size_bytes", ""},
	EvSharedAttach: {"size_bytes", ""},
	EvGCFastPath:   {"hits", "misses"},
	EvGCOverlap:    {"max_active", ""},
	EvServeShed:    {"queue_depth", ""},
	EvServeRestart: {"deaths", ""},
	EvMemRebalance: {"budget_bytes", "updated"},
	EvCheckpoint:   {"template_bytes", "objects"},
	EvFork:         {"copied_bytes", "template_pid"},
}

// FieldNames reports the JSON key names of an event kind's A and B words
// ("a"/"b" when the kind defines no specific meaning).
func FieldNames(k Kind) (a, b string) {
	a, b = "a", "b"
	if int(k) < len(fieldNames) {
		if n := fieldNames[k][0]; n != "" {
			a = n
		}
		if n := fieldNames[k][1]; n != "" {
			b = n
		}
	}
	return a, b
}

// Event is one traced kernel event. Pid 0 is the kernel itself.
type Event struct {
	Seq  uint64 // assigned by the tracer, monotonic across wraps
	Time uint64 // virtual-cycle timestamp
	Kind Kind
	Pid  int32
	// Req is the request id active when the event fired (0 = none): the
	// stamp that lets dispatch quanta and GC pauses be attributed to one
	// served request.
	Req  uint64
	A, B uint64 // kind-specific payload (see fieldNames)
	// Detail carries a name or reason on cold paths; hot-path events
	// leave it empty to avoid allocation.
	Detail string
}

// Sink receives telemetry. Implemented by *Hub; subsystems hold it as an
// interface so tests can substitute their own collector. A nil Sink is
// everywhere treated as telemetry-off.
type Sink interface {
	// Emit records one event: metric routing always, ring append only
	// while tracing is enabled.
	Emit(e Event)
	// TracingEnabled reports whether events are being recorded to the
	// ring. Hot paths may use it to skip Detail construction.
	TracingEnabled() bool
}

// Pidded lets layers that hold opaque owner handles (scheduler threads,
// shared-heap sharers) recover a process id for event stamping.
type Pidded interface {
	TelemetryPid() int32
}

// PidOf extracts a pid from an opaque owner, 0 if it has none.
func PidOf(owner any) int32 {
	if p, ok := owner.(Pidded); ok {
		return p.TelemetryPid()
	}
	return 0
}
