package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/telemetry"
)

// The flight recorder is the serving plane's crash post-mortem: when the
// supervisor sees a tenant die (always) or shed (throttled), the owning
// shard's engine dumps the tenant's recent history — its last request
// spans, the trace events of its process incarnation, and its lifetime
// counters — to one JSON artifact. The dump answers "what was this tenant
// doing when it went down" without anyone having had a poller attached
// beforehand.

// FlightDump is the artifact schema, one file per incident.
type FlightDump struct {
	// Time is the wall-clock dump time, RFC3339Nano.
	Time   string `json:"time"`
	Reason string `json:"reason"` // "death" or "shed"
	Route  string `json:"route"`
	Name   string `json:"name"`
	// Shard is the engine shard that owned the tenant at dump time.
	Shard int `json:"shard"`
	// Pid is the process incarnation the incident happened to.
	Pid    int32 `json:"pid"`
	Deaths int   `json:"deaths"` // consecutive deaths including this one
	// Tenant is the lifetime counter snapshot at dump time.
	Tenant TenantRow `json:"tenant"`
	// Spans holds the tenant's most recent completed request spans
	// (empty when span recording is off).
	Spans []telemetry.Span `json:"spans"`
	// SpanTotal/SpanDropped report the owning shard's recorder state: a
	// nonzero dropped count means older spans fell off the ring before
	// this dump.
	SpanTotal   uint64 `json:"span_total"`
	SpanDropped uint64 `json:"span_dropped"`
	// Events holds the shard trace ring's events for this pid, oldest
	// first (empty when tracing is off).
	Events []json.RawMessage `json:"events"`
	// TraceDropped is the trace ring's overall drop count: nonzero means
	// the event window is truncated.
	TraceDropped uint64 `json:"trace_dropped"`
}

// flightOnShed triggers a shed-storm dump, at most one per flightMinGap
// per tenant. Owning engine goroutine only.
func (sh *shard) flightOnShed(tn *tenant) {
	if sh.cfg.FlightDir == "" {
		return
	}
	now := time.Now()
	if !tn.flightLastShed.IsZero() && now.Sub(tn.flightLastShed) < flightMinGap {
		return
	}
	tn.flightLastShed = now
	sh.dumpFlight(tn, "shed")
}

// dumpFlight writes one post-mortem artifact for tn. Owning engine
// goroutine only; best-effort (a full disk must never take down serving).
func (sh *shard) dumpFlight(tn *tenant, reason string) {
	if sh.cfg.FlightDir == "" {
		return
	}
	pid := tn.pid()
	dump := FlightDump{
		Time:        time.Now().Format(time.RFC3339Nano),
		Reason:      reason,
		Route:       tn.cfg.Route,
		Name:        tn.cfg.Name,
		Shard:       sh.id,
		Pid:         pid,
		Deaths:      tn.deaths,
		Tenant:      rowFor(tn),
		Spans:       sh.spans.ForRoute(tn.cfg.Route, flightSpans),
		SpanTotal:   sh.spans.Total(),
		SpanDropped: sh.spans.Dropped(),
	}
	events := sh.vm.Tel.Trace.Snapshot()
	for _, e := range events {
		if e.Pid != pid {
			continue
		}
		line, err := telemetry.MarshalEvent(e)
		if err != nil {
			continue
		}
		dump.Events = append(dump.Events, line)
	}
	if n := len(dump.Events); n > flightEvents {
		dump.Events = dump.Events[n-flightEvents:]
	}
	dump.TraceDropped = sh.vm.Tel.Trace.Dropped()

	tn.flightSeq++
	path := filepath.Join(sh.cfg.FlightDir,
		fmt.Sprintf("flight-%s-%d-%d.json", tn.cfg.Name, pid, tn.flightSeq))
	data, err := json.MarshalIndent(dump, "", "  ")
	if err != nil {
		return
	}
	_ = os.WriteFile(path, append(data, '\n'), 0o644)
}
