package serve

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/telemetry"
)

// TestServeSpanLedger drives traffic with span recording on and checks
// the cost ledger: every completed request left a span whose phases are
// populated, the kernel phase histograms agree with the recorder, and
// the /spans endpoint serves the same spans as JSONL.
func TestServeSpanLedger(t *testing.T) {
	s, vm, base := startServer(t, core.Config{}, Config{}, []TenantConfig{
		{Route: "/fast", WorkUnits: 20},
		{Route: "/hog", Hog: true, MemKB: 1024, QueueMax: 32},
	})
	vm.Tel.Spans.SetEnabled(true)
	defer func() {
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		auditOK(t, vm)
	}()

	const perRoute = 30
	for i := 0; i < perRoute; i++ {
		if status, body := get(t, http.DefaultClient, base+"/fast", "payload"); status != http.StatusOK {
			t.Fatalf("/fast request %d: status %d body %q", i, status, body)
		}
		// The hog may be dying/restarting; any answered status is fine,
		// the point is that each answer leaves a span.
		get(t, http.DefaultClient, base+"/hog", "payload")
	}

	spans := vm.Tel.Spans.Snapshot()
	if got := uint64(len(spans)); got != vm.Tel.Spans.Total() || got != 2*perRoute {
		t.Fatalf("recorded %d spans (Total %d), want %d", got, vm.Tel.Spans.Total(), 2*perRoute)
	}

	seen := map[uint64]bool{}
	var fastOK, hogGC int
	for _, sp := range spans {
		if sp.ID == 0 || seen[sp.ID] {
			t.Fatalf("span id %d zero or duplicated", sp.ID)
		}
		seen[sp.ID] = true
		if sp.Start == 0 || sp.TotalNs <= 0 {
			t.Errorf("span %d: Start=%d TotalNs=%d; wall phases missing", sp.ID, sp.Start, sp.TotalNs)
		}
		if sp.QueueNs < 0 || sp.MarshalNs < 0 || sp.AcceptNs < 0 {
			t.Errorf("span %d: negative phase: %+v", sp.ID, sp)
		}
		if sp.GCNs != telemetry.CyclesToNs(sp.GCCycles) {
			t.Errorf("span %d: GCNs %d != CyclesToNs(%d)", sp.ID, sp.GCNs, sp.GCCycles)
		}
		switch sp.Route {
		case "/fast":
			if sp.Status != http.StatusOK {
				t.Errorf("/fast span %d: status %d", sp.ID, sp.Status)
				continue
			}
			fastOK++
			if sp.Pid == 0 {
				t.Errorf("/fast span %d: no pid on a 200", sp.ID)
			}
			if sp.ExecCycles == 0 || sp.Quanta == 0 || sp.ExecNs <= 0 {
				t.Errorf("/fast span %d: exec ledger empty: cycles=%d quanta=%d execNs=%d",
					sp.ID, sp.ExecCycles, sp.Quanta, sp.ExecNs)
			}
			if sp.Detail != "" {
				t.Errorf("/fast span %d: detail %q on a 200", sp.ID, sp.Detail)
			}
		case "/hog":
			if sp.GCCycles > 0 {
				hogGC++
			}
			if sp.Status != http.StatusOK && sp.Detail == "" {
				t.Errorf("/hog span %d: status %d with no detail", sp.ID, sp.Status)
			}
		default:
			t.Errorf("span %d: unknown route %q", sp.ID, sp.Route)
		}
	}
	if fastOK != perRoute {
		t.Errorf("%d /fast 200-spans, want %d", fastOK, perRoute)
	}
	// The hog allocates against a tight memlimit: admission-triggered
	// collections must be charged to the requests that forced them.
	if hogGC == 0 {
		t.Error("no /hog span carries GC cycles; GC attribution is not reaching spans")
	}

	// The kernel phase histograms see one observation per completed span.
	k := vm.Tel.Reg.Kernel()
	for _, name := range []string{telemetry.MSpanQueueNs, telemetry.MSpanExecCycles,
		telemetry.MSpanGCCycles, telemetry.MSpanTotalNs} {
		if got := k.Histogram(name).Count(); got != 2*perRoute {
			t.Errorf("kernel histogram %s count = %d, want %d", name, got, 2*perRoute)
		}
	}

	// /spans serves the same ledger as JSONL.
	ts := httptest.NewServer(telemetry.Handler([]telemetry.Source{vm.TelemetrySource()}))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/spans")
	if err != nil {
		t.Fatalf("GET /spans: %v", err)
	}
	defer resp.Body.Close()
	var served int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var sp telemetry.Span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("/spans bad line %q: %v", sc.Text(), err)
		}
		if !seen[sp.ID] {
			t.Errorf("/spans served unknown span id %d", sp.ID)
		}
		served++
	}
	if served != len(spans) {
		t.Errorf("/spans served %d spans, recorder holds %d", served, len(spans))
	}
}

// TestServeSpansOffZeroFootprint: with recording off (the default), no
// spans are retained and no ids are minted — the off path must stay free.
func TestServeSpansOffZeroFootprint(t *testing.T) {
	s, vm, base := startServer(t, core.Config{}, Config{}, []TenantConfig{{Route: "/t", WorkUnits: 10}})
	defer func() {
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		auditOK(t, vm)
	}()
	for i := 0; i < 5; i++ {
		if status, _ := get(t, http.DefaultClient, base+"/t", "x"); status != http.StatusOK {
			t.Fatalf("request %d failed", i)
		}
	}
	if got := vm.Tel.Spans.Total(); got != 0 {
		t.Errorf("recorder holds %d spans with recording off", got)
	}
	if got := vm.Tel.Reg.Kernel().Histogram(telemetry.MSpanTotalNs).Count(); got != 0 {
		t.Errorf("span histograms observed %d values with recording off", got)
	}
}

// TestServeFlightRecorderOnDeath is the post-mortem acceptance path: a
// fault kills the tenant right after its third request is dispatched, and
// the flight recorder must dump an artifact containing that request's
// 502 span and the tenant's trace events — without any poller attached.
func TestServeFlightRecorderOnDeath(t *testing.T) {
	plan, err := faults.ParsePlan("seed=7,serve.dispatch=@3")
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	dir := t.TempDir()
	s, vm, base := startServer(t, core.Config{Faults: faults.NewPlane(plan)},
		Config{RestartBackoff: 5 * time.Millisecond, FlightDir: dir},
		[]TenantConfig{
			{Route: "/victim", WorkUnits: 10},
			{Route: "/bystander", WorkUnits: 10},
		})
	vm.Tel.SetTracing(true)
	vm.Tel.Spans.SetEnabled(true)
	defer func() {
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		auditOK(t, vm)
	}()

	for i := 1; i <= 2; i++ {
		if status, body := get(t, http.DefaultClient, base+"/victim", "x"); status != http.StatusOK {
			t.Fatalf("victim request %d: status %d body %q", i, status, body)
		}
	}
	status, _ := get(t, http.DefaultClient, base+"/victim", "x")
	if status != http.StatusBadGateway {
		t.Fatalf("victim request 3: status %d, want 502", status)
	}

	// The dump is written by the engine goroutine during the reap pass;
	// the 502 can race ahead of the file write, so poll briefly.
	var dumpPath string
	deadline := time.Now().Add(5 * time.Second)
	for dumpPath == "" {
		matches, err := filepath.Glob(filepath.Join(dir, "flight-victim-*.json"))
		if err != nil {
			t.Fatalf("glob: %v", err)
		}
		if len(matches) > 0 {
			dumpPath = matches[0]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no flight dump appeared in %s", dir)
		}
		time.Sleep(5 * time.Millisecond)
	}

	data, err := os.ReadFile(dumpPath)
	if err != nil {
		t.Fatalf("read dump: %v", err)
	}
	var dump FlightDump
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatalf("dump is not valid JSON: %v\n%s", err, data)
	}
	if dump.Reason != "death" {
		t.Errorf("dump reason = %q, want death", dump.Reason)
	}
	if dump.Route != "/victim" || !strings.Contains(dump.Name, "victim") {
		t.Errorf("dump identity: route %q name %q", dump.Route, dump.Name)
	}
	if dump.Pid == 0 {
		t.Error("dump has no pid")
	}
	if dump.Deaths != 1 {
		t.Errorf("dump deaths = %d, want 1", dump.Deaths)
	}
	// The killed request's span must be in the dump, finalized as a 502.
	var got502 *telemetry.Span
	for i := range dump.Spans {
		if dump.Spans[i].Status == http.StatusBadGateway {
			got502 = &dump.Spans[i]
		}
	}
	if got502 == nil {
		t.Fatalf("dump spans %+v contain no 502; the killed request's span is missing", dump.Spans)
	}
	if got502.Route != "/victim" || got502.Detail == "" {
		t.Errorf("killed request span: route %q detail %q, want /victim with a reason", got502.Route, got502.Detail)
	}
	if got502.TotalNs <= 0 {
		t.Errorf("killed request span not finalized: TotalNs = %d", got502.TotalNs)
	}
	// Tracing was on, so the tenant's event window must be present.
	if len(dump.Events) == 0 {
		t.Error("dump has no trace events despite tracing on")
	}
	if dump.Tenant.Errors == 0 {
		t.Error("dump tenant snapshot shows zero errors after a mid-request kill")
	}
	// The bystander must be untouched by all of this.
	if status, body := get(t, http.DefaultClient, base+"/bystander", "x"); status != http.StatusOK {
		t.Errorf("bystander after victim death: status %d body %q", status, body)
	}
}
