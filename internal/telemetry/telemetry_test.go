package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestTracerRingWrapAround(t *testing.T) {
	tr := NewTracer(8)
	for i := 0; i < 20; i++ {
		tr.Append(Event{Kind: EvDispatch, Pid: 1, A: uint64(i)})
	}
	if got := tr.Total(); got != 20 {
		t.Fatalf("Total = %d, want 20", got)
	}
	if got := tr.Dropped(); got != 12 {
		t.Fatalf("Dropped = %d, want 12", got)
	}
	snap := tr.Snapshot()
	if len(snap) != 8 {
		t.Fatalf("Snapshot len = %d, want 8", len(snap))
	}
	// Oldest retained first, sequence numbers contiguous and monotonic.
	for i, e := range snap {
		want := uint64(12 + i)
		if e.Seq != want {
			t.Errorf("snap[%d].Seq = %d, want %d", i, e.Seq, want)
		}
		if e.A != want {
			t.Errorf("snap[%d].A = %d, want %d", i, e.A, want)
		}
	}
}

func TestTracerNoWrap(t *testing.T) {
	tr := NewTracer(16)
	for i := 0; i < 5; i++ {
		tr.Append(Event{Kind: EvYield, A: uint64(i)})
	}
	snap := tr.Snapshot()
	if len(snap) != 5 {
		t.Fatalf("Snapshot len = %d, want 5", len(snap))
	}
	if tr.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", tr.Dropped())
	}
	for i, e := range snap {
		if e.Seq != uint64(i) {
			t.Errorf("snap[%d].Seq = %d, want %d", i, e.Seq, i)
		}
	}
}

func TestConcurrentEmit(t *testing.T) {
	hub := NewHub(1 << 10)
	hub.SetTracing(true)
	const goroutines = 8
	const perG = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(pid int32) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				hub.Emit(Event{Kind: EvDispatch, Pid: pid, A: uint64(i)})
				hub.Emit(Event{Kind: EvGCEnd, Pid: pid, A: 100, B: 50})
			}
		}(int32(g + 1))
	}
	// A concurrent reader, as the HTTP endpoint would be.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			_ = hub.Reg.Rows(nil)
			_ = hub.Trace.Snapshot()
		}
	}()
	wg.Wait()
	<-done

	want := uint64(goroutines * perG * 2)
	if got := hub.Trace.Total(); got != want {
		t.Fatalf("Trace.Total = %d, want %d", got, want)
	}
	for g := 1; g <= goroutines; g++ {
		s := hub.Reg.Proc(int32(g))
		if got := s.Counter(MDispatches).Value(); got != perG {
			t.Errorf("pid %d dispatches = %d, want %d", g, got, perG)
		}
		if got := s.Counter(MGCCycles).Value(); got != perG*100 {
			t.Errorf("pid %d gc cycles = %d, want %d", g, got, perG*100)
		}
		if got := s.Histogram(MGCPause).Count(); got != perG {
			t.Errorf("pid %d pause count = %d, want %d", g, got, perG)
		}
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(10) // bucket index bits.Len64(10) = 4
	}
	h.Observe(1 << 20)
	if h.Count() != 101 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Max() != 1<<20 {
		t.Fatalf("Max = %d", h.Max())
	}
	if got := h.Quantile(0.5); got < 10 || got > 15 {
		t.Errorf("p50 = %d, want within (10,15]", got)
	}
	if got := h.Quantile(1.0); got < 1<<20 {
		t.Errorf("p100 = %d, want >= %d", got, 1<<20)
	}
	if h.Mean() == 0 {
		t.Error("Mean = 0")
	}
	s := h.Summary()
	for _, frag := range []string{"count=101", "p50<=", "max=1048576"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Summary %q missing %q", s, frag)
		}
	}
}

func TestHistogramZeroAndOverflow(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(^uint64(0)) // must clamp to the top bucket without panicking
	if h.Count() != 2 {
		t.Fatalf("Count = %d", h.Count())
	}
	b := h.Buckets()
	if b[0] != 1 {
		t.Errorf("zero bucket = %d, want 1", b[0])
	}
	if b[HistBuckets-1] != 1 {
		t.Errorf("overflow bucket = %d, want 1", b[HistBuckets-1])
	}
}

func TestWriteJSONLFieldNames(t *testing.T) {
	tr := NewTracer(8)
	tr.Append(Event{Kind: EvGCEnd, Pid: 3, Time: 77, A: 1234, B: 5678, Detail: "proc:x#3"})
	tr.Append(Event{Kind: EvProcKill, Pid: 3, Detail: "CPU limit exceeded"})
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	gc := lines[0]
	if gc["kind"] != "gc-end" {
		t.Errorf("kind = %v", gc["kind"])
	}
	if gc["cycles"] != float64(1234) || gc["freed_bytes"] != float64(5678) {
		t.Errorf("gc-end payload keys wrong: %v", gc)
	}
	if gc["t_cycles"] != float64(77) {
		t.Errorf("t_cycles = %v", gc["t_cycles"])
	}
	if lines[1]["detail"] != "CPU limit exceeded" {
		t.Errorf("kill detail = %v", lines[1]["detail"])
	}
}

func TestHubTracingGate(t *testing.T) {
	hub := NewHub(8)
	hub.Emit(Event{Kind: EvYield, Pid: 1})
	if got := hub.Trace.Total(); got != 0 {
		t.Fatalf("ring grew with tracing off: %d", got)
	}
	// Metrics must accumulate regardless.
	if got := hub.Reg.Proc(1).Counter(MYields).Value(); got != 1 {
		t.Fatalf("yields = %d, want 1", got)
	}
	hub.SetTracing(true)
	hub.Emit(Event{Kind: EvYield, Pid: 1})
	if got := hub.Trace.Total(); got != 1 {
		t.Fatalf("ring did not grow with tracing on: %d", got)
	}
}

func TestHubClockStampsEvents(t *testing.T) {
	hub := NewHub(8)
	hub.SetTracing(true)
	var now uint64 = 42_000
	hub.SetClock(func() uint64 { return now })
	hub.Emit(Event{Kind: EvProcCreate, Pid: 1, Detail: "a"})
	now = 99_000
	hub.Emit(Event{Kind: EvProcExit, Pid: 1})
	snap := hub.Trace.Snapshot()
	if snap[0].Time != 42_000 || snap[1].Time != 99_000 {
		t.Fatalf("timestamps = %d, %d", snap[0].Time, snap[1].Time)
	}
	// Pre-stamped events keep their time.
	hub.Emit(Event{Kind: EvProcReclaim, Pid: 1, Time: 7})
	if got := hub.Trace.Snapshot()[2].Time; got != 7 {
		t.Fatalf("pre-stamped time = %d, want 7", got)
	}
}

func TestRegistryRowsAndRender(t *testing.T) {
	hub := NewHub(0)
	hub.Emit(Event{Kind: EvProcCreate, Pid: 1, Detail: "alpha"})
	hub.Emit(Event{Kind: EvProcCreate, Pid: 2, Detail: "beta"})
	hub.Reg.Proc(1).Counter(MCPUCycles).Add(5 * CyclesPerMs)
	hub.Emit(Event{Kind: EvProcExit, Pid: 2})
	hub.Emit(Event{Kind: EvProcReclaim, Pid: 2})

	rows := hub.Reg.Rows(func(pid int32) (string, int, uint64, uint64, uint64, bool) {
		if pid == 1 {
			return "running", 3, 1000, 2000, 4096, true
		}
		return "", 0, 0, 0, 0, false // pid 2 reclaimed: registry data only
	})
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	if rows[0].Pid != 1 || rows[0].Threads != 3 || rows[0].HeapBytes != 1000 || rows[0].CodeBytes != 4096 {
		t.Errorf("live row wrong: %+v", rows[0])
	}
	if rows[1].Pid != 2 || rows[1].State != "reclaimed" || rows[1].Name != "beta" {
		t.Errorf("dead row wrong: %+v", rows[1])
	}

	var buf bytes.Buffer
	RenderTable(&buf, Snapshot{Procs: rows})
	out := buf.String()
	for _, frag := range []string{"PID", "alpha", "beta", "reclaimed", "running"} {
		if !strings.Contains(out, frag) {
			t.Errorf("table missing %q:\n%s", frag, out)
		}
	}
}

// TestHTTPEndpoints drives the one introspection mux as a lone VM sees it
// (one source) and as the sharded serving plane does (three): every
// endpoint answers in the same shape either way, /metrics is a valid
// exposition, and the shard label appears exactly when there is more
// than one source to tell apart.
func TestHTTPEndpoints(t *testing.T) {
	for _, hubs := range []int{1, 3} {
		t.Run(fmt.Sprintf("%dhub", hubs), func(t *testing.T) {
			sources := make([]Source, hubs)
			for i := range sources {
				hub := NewHub(16)
				hub.SetTracing(true)
				hub.Spans.SetEnabled(true)
				hub.Emit(Event{Kind: EvProcCreate, Pid: 1, Detail: fmt.Sprintf("web%d", i)})
				hub.Emit(Event{Kind: EvGCEnd, Pid: 1, A: 500, B: 64})
				hub.Spans.Record(Span{ID: hub.Spans.NextID(), Route: "/r", Shard: i})
				sources[i] = Source{
					Hub: hub,
					Snapshot: func() Snapshot {
						return Snapshot{NowCycles: uint64(100 + i), Procs: hub.Reg.Rows(nil), Events: hub.Trace.Total()}
					},
					Audit: func() (any, bool) { return map[string]int{"checked": i}, i != 1 },
				}
			}
			srv := httptest.NewServer(Handler(sources))
			defer srv.Close()

			fetch := func(path string) (int, string) {
				resp, err := srv.Client().Get(srv.URL + path)
				if err != nil {
					t.Fatalf("GET %s: %v", path, err)
				}
				defer resp.Body.Close()
				var b bytes.Buffer
				if _, err := b.ReadFrom(resp.Body); err != nil {
					t.Fatal(err)
				}
				return resp.StatusCode, b.String()
			}
			get := func(path string) string {
				status, body := fetch(path)
				if status != 200 {
					t.Fatalf("GET %s: status %d", path, status)
				}
				return body
			}

			var procs []struct {
				Shard int      `json:"shard"`
				Snap  Snapshot `json:"snapshot"`
			}
			if err := json.Unmarshal([]byte(get("/procs")), &procs); err != nil {
				t.Fatalf("/procs not JSON: %v", err)
			}
			if len(procs) != hubs {
				t.Fatalf("/procs has %d entries, want one per source (%d)", len(procs), hubs)
			}
			for i, p := range procs {
				if p.Shard != i || p.Snap.NowCycles != uint64(100+i) ||
					len(p.Snap.Procs) != 1 || p.Snap.Procs[0].Name != fmt.Sprintf("web%d", i) {
					t.Errorf("/procs[%d] = %+v", i, p)
				}
			}

			prom := get("/metrics")
			validateExposition(t, prom)
			for _, frag := range []string{
				"# TYPE kaffeos_gc_cycles counter",
				"# TYPE kaffeos_gc_pause_cycles histogram",
				"kaffeos_trace_dropped{",
			} {
				if !strings.Contains(prom, frag) {
					t.Errorf("/metrics missing %q:\n%s", frag, prom)
				}
			}
			if hubs == 1 {
				if strings.Contains(prom, "shard=") {
					t.Errorf("/metrics of a lone hub carries a shard label:\n%s", prom)
				}
				if want := `kaffeos_gc_cycles{pid="1",proc="web0"} 500`; !strings.Contains(prom, want) {
					t.Errorf("/metrics missing %q:\n%s", want, prom)
				}
			} else {
				for i := 0; i < hubs; i++ {
					want := fmt.Sprintf(`kaffeos_gc_cycles{shard="%d",pid="1",proc="web%d"} 500`, i, i)
					if !strings.Contains(prom, want) {
						t.Errorf("/metrics missing %q:\n%s", want, prom)
					}
				}
				for _, line := range strings.Split(strings.TrimSpace(prom), "\n") {
					if !strings.HasPrefix(line, "#") && !strings.Contains(line, `{shard="`) {
						t.Errorf("/metrics sample without a shard label: %q", line)
					}
				}
			}

			trace := get("/trace")
			if n := strings.Count(trace, "\n"); n != 2*hubs {
				t.Errorf("/trace lines = %d, want %d:\n%s", n, 2*hubs, trace)
			}
			if !strings.Contains(trace, `"kind":"gc-end"`) {
				t.Errorf("/trace missing gc-end:\n%s", trace)
			}
			if spans := get("/spans"); strings.Count(spans, "\n") != hubs || !strings.Contains(spans, `"route":"/r"`) {
				t.Errorf("/spans wrong, want %d lines:\n%s", hubs, spans)
			}

			ps := get("/ps")
			if !strings.Contains(ps, "PID") || !strings.Contains(ps, fmt.Sprintf("web%d", hubs-1)) {
				t.Errorf("/ps table wrong:\n%s", ps)
			}
			if got := strings.Count(ps, "== shard "); (hubs == 1 && got != 0) || (hubs > 1 && got != hubs) {
				t.Errorf("/ps has %d shard headings for %d sources:\n%s", got, hubs, ps)
			}

			var audits []struct {
				Shard  int            `json:"shard"`
				OK     bool           `json:"ok"`
				Report map[string]int `json:"report"`
			}
			if err := json.Unmarshal([]byte(get("/audit")), &audits); err != nil {
				t.Fatalf("/audit not JSON: %v", err)
			}
			if len(audits) != hubs {
				t.Fatalf("/audit has %d reports, want one per source (%d)", len(audits), hubs)
			}
			for i, a := range audits {
				if a.Shard != i || a.OK != (i != 1) || a.Report["checked"] != i {
					t.Errorf("/audit[%d] = %+v", i, a)
				}
			}

			if status, _ := fetch("/metrics.json"); status != 404 {
				t.Errorf("/metrics.json: status %d, want 404 (Prometheus /metrics is the format)", status)
			}
			if status, _ := fetch("/debug/pprof/cmdline"); status != 200 {
				t.Errorf("/debug/pprof/cmdline: status %d", status)
			}
		})
	}

	// A source with no auditor cannot vouch for itself.
	srv := httptest.NewServer(Handler([]Source{{Hub: NewHub(0)}}))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/audit")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 501 {
		t.Errorf("/audit without an auditor: status %d, want 501", resp.StatusCode)
	}
}

func TestPidOf(t *testing.T) {
	if got := PidOf(nil); got != 0 {
		t.Errorf("PidOf(nil) = %d", got)
	}
	if got := PidOf("not pidded"); got != 0 {
		t.Errorf("PidOf(string) = %d", got)
	}
	if got := PidOf(fakePidded(9)); got != 9 {
		t.Errorf("PidOf(fakePidded) = %d", got)
	}
}

type fakePidded int32

func (f fakePidded) TelemetryPid() int32 { return int32(f) }

func TestKindStringsTotal(t *testing.T) {
	for k := Kind(1); k < kindMax; k++ {
		if s := k.String(); strings.HasPrefix(s, "kind(") {
			t.Errorf("kind %d has no name", k)
		}
		a, b := FieldNames(k)
		if a == "" || b == "" {
			t.Errorf("kind %d has empty field names", k)
		}
	}
	if s := Kind(200).String(); s != fmt.Sprintf("kind(%d)", 200) {
		t.Errorf("unknown kind string = %q", s)
	}
}
