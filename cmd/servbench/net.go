package main

import (
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// routeStats aggregates the client side of one route's traffic. Counters
// and the latency histogram are atomic: all client goroutines share them.
type routeStats struct {
	Route  string `json:"route"`
	Sent   uint64 `json:"sent"`
	OK     uint64 `json:"ok"`
	Shed   uint64 `json:"shed"`
	Errors uint64 `json:"errors"`
	// Response-class breakdown: every response the clients saw, by status
	// (Transport counts requests that died before any status arrived), so
	// a degradation run's artifact says exactly how it degraded.
	Status200 uint64 `json:"status_200"`
	Status502 uint64 `json:"status_502"`
	Status503 uint64 `json:"status_503"`
	Transport uint64 `json:"transport_errors"`
	P50Ns     uint64 `json:"p50_ns"`
	P90Ns     uint64 `json:"p90_ns"`
	P99Ns     uint64 `json:"p99_ns"`
	sent      atomic.Uint64
	c200      atomic.Uint64
	c502      atomic.Uint64
	c503      atomic.Uint64
	cOther    atomic.Uint64
	transport atomic.Uint64
	lat       telemetry.Histogram
}

// phaseQuantiles summarizes one span phase across a route's requests
// (exact quantiles — the whole span set is in memory).
type phaseQuantiles struct {
	P50  int64 `json:"p50"`
	P90  int64 `json:"p90"`
	P99  int64 `json:"p99"`
	Max  int64 `json:"max"`
	Mean int64 `json:"mean"`
}

func quantize(vals []int64) phaseQuantiles {
	if len(vals) == 0 {
		return phaseQuantiles{}
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	var sum int64
	for _, v := range vals {
		sum += v
	}
	return phaseQuantiles{P50: pct(vals, 0.50), P90: pct(vals, 0.90), P99: pct(vals, 0.99),
		Max: vals[len(vals)-1], Mean: sum / int64(len(vals))}
}

// routePhases is one route's server-side cost decomposition, computed
// from the span recorder after a self-hosted run.
type routePhases struct {
	Route      string         `json:"route"`
	Spans      int            `json:"spans"`
	QueueNs    phaseQuantiles `json:"queue_ns"`
	MarshalNs  phaseQuantiles `json:"marshal_ns"`
	ExecCycles phaseQuantiles `json:"exec_cycles"`
	GCCycles   phaseQuantiles `json:"gc_cycles"`
	TotalNs    phaseQuantiles `json:"total_ns"`
}

// phasesFromSpans groups recorded spans by route and summarizes each
// phase of the request cost ledger.
func phasesFromSpans(spans []telemetry.Span) []routePhases {
	byRoute := make(map[string][]telemetry.Span)
	var order []string
	for _, sp := range spans {
		if _, seen := byRoute[sp.Route]; !seen {
			order = append(order, sp.Route)
		}
		byRoute[sp.Route] = append(byRoute[sp.Route], sp)
	}
	sort.Strings(order)
	out := make([]routePhases, 0, len(order))
	for _, route := range order {
		group := byRoute[route]
		collect := func(get func(telemetry.Span) int64) phaseQuantiles {
			vals := make([]int64, len(group))
			for i, sp := range group {
				vals[i] = get(sp)
			}
			return quantize(vals)
		}
		out = append(out, routePhases{
			Route:      route,
			Spans:      len(group),
			QueueNs:    collect(func(sp telemetry.Span) int64 { return sp.QueueNs }),
			MarshalNs:  collect(func(sp telemetry.Span) int64 { return sp.MarshalNs }),
			ExecCycles: collect(func(sp telemetry.Span) int64 { return int64(sp.ExecCycles) }),
			GCCycles:   collect(func(sp telemetry.Span) int64 { return int64(sp.GCCycles) }),
			TotalNs:    collect(func(sp telemetry.Span) int64 { return sp.TotalNs }),
		})
	}
	return out
}

// shardReport is one engine shard's server-side summary in the -json
// artifact: kernel-scope serving counters plus the shard VM's virtual
// clock, so a sharded run shows how work spread across engines.
type shardReport struct {
	Shard    int    `json:"shard"`
	Tenants  int    `json:"tenants"`
	Requests uint64 `json:"requests"`
	OK       uint64 `json:"ok"`
	Shed     uint64 `json:"shed"`
	Errors   uint64 `json:"errors"`
	Cycles   uint64 `json:"cycles"`
}

// netReport is the -json artifact: self-describing (host shape embedded)
// and comparable across runs.
type netReport struct {
	Host       telemetry.HostInfo `json:"host"`
	Target     string             `json:"target"`
	SelfHosted bool               `json:"self_hosted"`
	Shards     int                `json:"shards,omitempty"`
	Clients    int                `json:"clients"`
	Requests   uint64             `json:"requests"`
	BodyBytes  int                `json:"body_bytes"`
	ElapsedMS  int64              `json:"elapsed_ms"`
	Throughput float64            `json:"requests_per_sec"`
	Routes     []*routeStats      `json:"routes"`
	// Server-side totals (self-hosted runs): sheds and restarts as the
	// serving plane counted them, so the artifact is self-describing even
	// when the client side saw only latencies.
	ServerSheds    uint64            `json:"server_sheds,omitempty"`
	ServerRestarts uint64            `json:"server_restarts,omitempty"`
	Phases         []routePhases     `json:"phases,omitempty"`
	SpanDropped    uint64            `json:"span_dropped,omitempty"`
	Server         []serve.TenantRow `json:"server,omitempty"`
	PerShard       []shardReport     `json:"per_shard,omitempty"`
}

// netBench drives real HTTP load at a serving plane: -target aims at an
// already-running server, otherwise a server is spun up in-process (one
// KaffeOS process per route, shards engine shards) and load is generated
// against its socket.
func netBench(target, routeSpec string, clients int, requests uint64, bodyBytes, shards int, jsonPath string) error {
	tenants, err := serve.ParseRoutes(routeSpec)
	if err != nil {
		return err
	}
	if target != "" {
		return netLoad(nil, strings.TrimSuffix(target, "/"), tenants, clients, requests, bodyBytes, jsonPath)
	}
	return onPlane(core.Config{Engine: core.EngineJITOpt},
		serve.Config{Shards: shards}, tenants,
		func(srv *serve.Server, base string) error {
			// Self-hosted runs record spans so the artifact carries the
			// server-side phase breakdown of every request.
			for _, vm := range srv.VMs() {
				vm.Tel.Spans.SetEnabled(true)
			}
			fmt.Fprintf(os.Stderr, "servbench: self-hosted serving plane on %s (%d tenants, %d shards)\n",
				base, len(tenants), srv.Shards())
			return netLoad(srv, base, tenants, clients, requests, bodyBytes, jsonPath)
		})
}

// netLoad generates the load against base, prints the run and writes its
// report. srv is the self-hosted plane behind base (nil for -target); its
// books join the report.
func netLoad(srv *serve.Server, base string, tenants []serve.TenantConfig, clients int, requests uint64, bodyBytes int, jsonPath string) error {
	stats := make([]*routeStats, len(tenants))
	for i, tc := range tenants {
		stats[i] = &routeStats{Route: tc.Route}
	}
	body := strings.Repeat("x", bodyBytes)

	start := time.Now()
	var next atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 60 * time.Second}
			for {
				i := next.Add(1) - 1
				if i >= requests {
					return
				}
				st := stats[int(i)%len(stats)]
				st.sent.Add(1)
				status, d, _, err := post(client, base+st.Route, body)
				if err != nil {
					st.transport.Add(1)
					continue
				}
				st.lat.Observe(uint64(d.Nanoseconds()))
				switch status {
				case http.StatusOK:
					st.c200.Add(1)
				case http.StatusServiceUnavailable:
					st.c503.Add(1)
				case http.StatusBadGateway:
					st.c502.Add(1)
				default:
					st.cOther.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := netReport{
		Host:       telemetry.Host(),
		Target:     base,
		SelfHosted: srv != nil,
		Clients:    clients,
		Requests:   requests,
		BodyBytes:  bodyBytes,
		ElapsedMS:  elapsed.Milliseconds(),
		Throughput: float64(requests) / elapsed.Seconds(),
		Routes:     stats,
	}
	for _, st := range stats {
		st.Sent = st.sent.Load()
		st.Status200 = st.c200.Load()
		st.Status502 = st.c502.Load()
		st.Status503 = st.c503.Load()
		st.Transport = st.transport.Load()
		st.OK = st.Status200
		st.Shed = st.Status503
		st.Errors = st.Status502 + st.cOther.Load() + st.Transport
		st.P50Ns, st.P90Ns, st.P99Ns = st.lat.Quantile(0.5), st.lat.Quantile(0.9), st.lat.Quantile(0.99)
	}
	if srv != nil {
		rep.Shards = srv.Shards()
		rep.Server = srv.Rows()
		for _, row := range rep.Server {
			rep.ServerSheds += row.Shed
			rep.ServerRestarts += row.Restarts
		}
		// Merge every shard recorder's spans into one breakdown, and keep a
		// per-shard server-side summary (kernel counters + virtual clock).
		var spans []telemetry.Span
		loads := srv.Loads()
		for i, vm := range srv.VMs() {
			spans = append(spans, vm.Tel.Spans.Snapshot()...)
			rep.SpanDropped += vm.Tel.Spans.Dropped()
			k := vm.Tel.Reg.Kernel()
			rep.PerShard = append(rep.PerShard, shardReport{
				Shard:    i,
				Tenants:  loads[i].Tenants,
				Requests: k.Counter(telemetry.MServeRequests).Value(),
				OK:       k.Counter(telemetry.MServeOK).Value(),
				Shed:     k.Counter(telemetry.MServeShed).Value(),
				Errors:   k.Counter(telemetry.MServeErrors).Value(),
				Cycles:   loads[i].Cycles,
			})
		}
		rep.Phases = phasesFromSpans(spans)
	}

	fmt.Printf("net: %d requests, %d clients, %d-byte bodies against %s\n", requests, clients, bodyBytes, base)
	fmt.Printf("  %.0f req/s over %v (host: %d cores, GOMAXPROCS %d)\n",
		rep.Throughput, elapsed.Round(time.Millisecond), rep.Host.Cores, rep.Host.GOMAXPROCS)
	fmt.Printf("  %-16s %8s %8s %8s %8s %10s %10s %10s\n",
		"route", "sent", "ok", "shed", "errors", "p50", "p90", "p99")
	for _, st := range stats {
		fmt.Printf("  %-16s %8d %8d %8d %8d %9dus %9dus %9dus\n",
			st.Route, st.Sent, st.OK, st.Shed, st.Errors,
			st.P50Ns/1000, st.P90Ns/1000, st.P99Ns/1000)
	}
	for _, row := range rep.Server {
		if row.Restarts > 0 {
			fmt.Printf("  server: %s (%s, shard %d) died and was restarted %d times; neighbours unaffected\n",
				row.Route, row.Role, row.Shard, row.Restarts)
		}
	}
	if len(rep.PerShard) > 1 {
		fmt.Printf("  %-8s %8s %10s %10s %8s %8s %14s\n",
			"shard", "tenants", "requests", "ok", "shed", "errors", "cycles")
		for _, sr := range rep.PerShard {
			fmt.Printf("  %-8d %8d %10d %10d %8d %8d %14d\n",
				sr.Shard, sr.Tenants, sr.Requests, sr.OK, sr.Shed, sr.Errors, sr.Cycles)
		}
	}
	if len(rep.Phases) > 0 {
		fmt.Printf("  %-16s %8s %12s %12s %12s %12s %12s\n",
			"phase p50s", "spans", "queue-us", "marshal-us", "exec-cy", "gc-cy", "total-us")
		for _, ph := range rep.Phases {
			fmt.Printf("  %-16s %8d %12d %12d %12d %12d %12d\n",
				ph.Route, ph.Spans, ph.QueueNs.P50/1000, ph.MarshalNs.P50/1000,
				ph.ExecCycles.P50, ph.GCCycles.P50, ph.TotalNs.P50/1000)
		}
		if rep.SpanDropped > 0 {
			fmt.Printf("  (span ring overflowed: %d spans dropped; breakdown covers the tail)\n", rep.SpanDropped)
		}
	}

	if jsonPath != "" {
		return writeJSON(jsonPath, rep)
	}
	return nil
}
