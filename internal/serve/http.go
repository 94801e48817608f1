package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// handler builds the HTTP front end: tenant routes plus the /serve
// introspection endpoint and a /healthz probe.
func (s *Server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/serve", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.Rows())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/", s.serveRequest)
	return mux
}

// serveRequest is the per-request HTTP path: route to a tenant, read the
// body, and make the round trip. The handler goroutine never touches a VM.
func (s *Server) serveRequest(w http.ResponseWriter, r *http.Request) {
	tn := s.byRoute[r.URL.Path]
	if tn == nil {
		http.NotFound(w, r)
		return
	}
	t0 := time.Now()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
		return
	}
	resp := s.roundTrip(tn, body, t0)
	w.Header().Set("X-Kaffeos-Tenant", tn.cfg.Name)
	if resp.pid != 0 {
		w.Header().Set("X-Kaffeos-Pid", strconv.Itoa(int(resp.pid)))
	}
	w.WriteHeader(resp.status)
	_, _ = io.WriteString(w, resp.body)
}

// roundTrip hands one request to the owning shard's engine loop and waits
// for the single guaranteed response. t0 is the wall-clock accept time.
func (s *Server) roundTrip(tn *tenant, body []byte, t0 time.Time) response {
	if s.closing.Load() {
		return response{status: http.StatusServiceUnavailable, body: "shed: server shutting down\n"}
	}
	sh := tn.sh.Load()
	req := sh.newRequest(tn, body, t0)
	select {
	case sh.submit <- req:
	default:
		return sh.socketShed(req)
	}
	select {
	case resp := <-req.resp:
		return resp
	case <-time.After(time.Until(req.deadline) + 5*time.Second):
		// Defence in depth: the engine's expire pass answers every request
		// by its deadline, so this fires only if the engine loop itself is
		// gone. Still: never hang a client.
		return response{status: http.StatusServiceUnavailable, body: "shed: engine unresponsive\n"}
	}
}

// newRequest builds one engine submission, minting a span when recording
// is on (the only per-request cost of the spans-off path is the one
// atomic Enabled load). t0 is the wall-clock accept time, before the body
// was read; the accept→now gap is the accept phase. Ids are dense per
// shard recorder, so the span carries the shard for a global key.
func (sh *shard) newRequest(tn *tenant, body []byte, t0 time.Time) *request {
	now := time.Now()
	req := &request{
		tn:       tn,
		body:     body,
		resp:     make(chan response, 1),
		enq:      now,
		t0:       t0,
		deadline: now.Add(sh.cfg.RequestTimeout),
	}
	if sh.spans.Enabled() {
		req.id = sh.spans.NextID()
		req.span = &telemetry.Span{
			ID:       req.id,
			Route:    tn.cfg.Route,
			Shard:    sh.id,
			Start:    t0.UnixNano(),
			AcceptNs: now.Sub(t0).Nanoseconds(),
		}
	}
	return req
}

// socketShed refuses a request whose engine handoff channel is full — the
// one shed that happens on the socket goroutine. Safe to finalize the
// span here: the request never reached the engine.
func (sh *shard) socketShed(req *request) response {
	tn := req.tn
	tn.shed.Inc()
	sh.kShed.Inc()
	req.done = true
	sh.finishSpan(req, http.StatusServiceUnavailable, "submit queue full")
	return response{status: http.StatusServiceUnavailable, body: "shed: submit queue full\n"}
}

// Do injects one request into the serving plane without a socket: same
// admission control, dispatch, span accounting, and single-response
// guarantee as an HTTP request, minus the TCP/HTTP layer. The server must
// be started. Figure 4's real-VM arm, benchmarks and tests drive the
// engine path through it.
func (s *Server) Do(route string, body []byte) (status int, respBody string) {
	tn := s.byRoute[route]
	if tn == nil {
		return http.StatusNotFound, ""
	}
	resp := s.roundTrip(tn, body, time.Now())
	return resp.status, resp.body
}

// TenantRow is one tenant's lifetime serving statistics, aggregated
// across process restarts and shard migrations. Latency quantiles come
// from the tenant's power-of-two-bucket histogram (nanoseconds).
type TenantRow struct {
	Route      string `json:"route"`
	Name       string `json:"name"`
	Role       string `json:"role"`
	Shard      int    `json:"shard"`
	Pid        int32  `json:"pid"`
	Up         bool   `json:"up"`
	Requests   uint64 `json:"requests"`
	OK         uint64 `json:"ok"`
	Shed       uint64 `json:"shed"`
	Errors     uint64 `json:"errors"`
	Restarts   uint64 `json:"restarts"`
	Migrations uint64 `json:"migrations"`
	Queue      uint64 `json:"queue"`
	Inflight   uint64 `json:"inflight"`
	MemUse     uint64 `json:"mem_use"`
	MemLimit   uint64 `json:"mem_limit"`
	P50Ns      uint64 `json:"p50_ns"`
	P99Ns      uint64 `json:"p99_ns"`
}

// rowFor snapshots one tenant. Safe from any goroutine: it reads only
// atomics, the shard pointer, and the mutex-guarded process pointer.
func rowFor(tn *tenant) TenantRow {
	row := TenantRow{
		Route:      tn.cfg.Route,
		Name:       tn.cfg.Name,
		Role:       tn.prog.role,
		Shard:      tn.sh.Load().id,
		Requests:   tn.reqs.Value(),
		OK:         tn.okCount.Value(),
		Shed:       tn.shed.Value(),
		Errors:     tn.errs.Value(),
		Restarts:   tn.restarts.Value(),
		Migrations: tn.migrations.Value(),
		Queue:      tn.qdepth.Value(),
		Inflight:   tn.infl.Value(),
		MemLimit:   uint64(tn.cfg.MemKB) << 10,
		P50Ns:      tn.latency.Quantile(0.5),
		P99Ns:      tn.latency.Quantile(0.99),
	}
	if p := tn.currentProc(); p != nil {
		row.Pid = int32(p.ID)
		row.Up = p.State() == core.ProcRunning
		// The controller moves limits at runtime; report the live one,
		// paired with the use it was read beside.
		row.MemUse, row.MemLimit = p.Limit.Load()
	}
	return row
}

// Rows snapshots every tenant.
func (s *Server) Rows() []TenantRow {
	rows := make([]TenantRow, 0, len(s.tenants))
	for _, tn := range s.tenants {
		rows = append(rows, rowFor(tn))
	}
	return rows
}
