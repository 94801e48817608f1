package serve

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
)

// startServer builds and starts a plane — one shard unless cfg says
// otherwise, the single-VM case — and returns it with shard 0's VM.
func startServer(t *testing.T, vmCfg core.Config, cfg Config, tenants []TenantConfig) (*Server, *core.VM, string) {
	t.Helper()
	if vmCfg.Engine == "" {
		vmCfg.Engine = core.EngineJITOpt
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	s, err := NewSharded(vmCfg, cfg, tenants)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	return s, s.VMs()[0], "http://" + addr
}

func get(t *testing.T, client *http.Client, url, body string) (int, string) {
	t.Helper()
	resp, err := client.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(b)
}

func auditOK(t *testing.T, vm *core.VM) {
	t.Helper()
	if rep := vm.Audit(true); !rep.OK() {
		t.Fatalf("post-teardown audit failed:\n%s", rep)
	}
}

// TestServeSingleRequest is the smoke test: one tenant, one request, a
// deterministic checksum back, clean teardown.
func TestServeSingleRequest(t *testing.T) {
	s, vm, base := startServer(t, core.Config{}, Config{}, []TenantConfig{{Route: "/t0", WorkUnits: 10}})
	status, body := get(t, http.DefaultClient, base+"/t0", "hello")
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %q", status, body)
	}
	if !strings.Contains(body, "result=") {
		t.Fatalf("body = %q, want checksum", body)
	}
	again, body2 := get(t, http.DefaultClient, base+"/t0", "hello")
	if again != http.StatusOK || body2 != body {
		t.Fatalf("repeat request: status %d body %q, want %q (handler must be deterministic)", again, body2, body)
	}
	if status, _ := get(t, http.DefaultClient, base+"/nope", ""); status != http.StatusNotFound {
		t.Fatalf("unknown route: status %d, want 404", status)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	auditOK(t, vm)
}

// TestServeE2E is the acceptance scenario: >=10k requests across four
// tenant processes over a real socket, one of them a MemHog that is
// repeatedly killed by its memlimit and restarted. The three well-behaved
// neighbours must see zero failures — every one of their requests returns
// 200 — and every hog request is answered (200, 502 on death, or 503
// shed), never hung. The kernel audit must pass after teardown.
//
// The run records spans and writes flight-recorder dumps for every hog
// death. SERVE_E2E_FLIGHT_DIR overrides the dump directory: CI points it
// at a workspace path and uploads the dumps as artifacts when the job
// fails, so a red run ships its own post-mortems.
func TestServeE2E(t *testing.T) {
	flightDir := os.Getenv("SERVE_E2E_FLIGHT_DIR")
	if flightDir == "" {
		flightDir = t.TempDir()
	} else if err := os.MkdirAll(flightDir, 0o755); err != nil {
		t.Fatalf("flight dir: %v", err)
	}
	tenants := []TenantConfig{
		{Route: "/a", WorkUnits: 40, MemKB: 8192},
		{Route: "/b", WorkUnits: 40, MemKB: 8192},
		{Route: "/c", WorkUnits: 40, MemKB: 8192},
		// ShedFraction -1 disables the admission high-water check: this
		// tenant runs straight into its memlimit and is killed — the
		// MemHog scenario the serving plane must degrade around.
		{Route: "/hog", Hog: true, MemKB: 1024, QueueMax: 32, ShedFraction: -1},
	}
	s, vm, base := startServer(t, core.Config{}, Config{RequestTimeout: 20 * time.Second, FlightDir: flightDir}, tenants)
	vm.Tel.Spans.SetEnabled(true)

	const (
		total   = 10_000
		clients = 24
	)
	routes := []string{"/a", "/b", "/c", "/hog"}
	var (
		sent          [4]uint64 // per route
		neighbourBad  atomic.Uint64
		hogOK, hogErr atomic.Uint64
		hung          atomic.Uint64
	)
	var next atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Timeout: 25 * time.Second}
			for {
				i := next.Add(1) - 1
				if i >= total {
					return
				}
				r := int(i) % len(routes)
				atomic.AddUint64(&sent[r], 1)
				resp, err := client.Post(base+routes[r], "text/plain",
					strings.NewReader(fmt.Sprintf("req-%d-from-%d", i, c)))
				if err != nil {
					hung.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if r == 3 {
					if resp.StatusCode == http.StatusOK {
						hogOK.Add(1)
					} else {
						hogErr.Add(1)
					}
				} else if resp.StatusCode != http.StatusOK {
					neighbourBad.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()

	rows := s.Rows()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	if hung.Load() != 0 {
		t.Errorf("%d requests got no HTTP response at all", hung.Load())
	}
	if neighbourBad.Load() != 0 {
		t.Errorf("neighbour tenants saw %d non-200 responses, want 0 (isolation violated)", neighbourBad.Load())
	}
	if hogOK.Load()+hogErr.Load() != sent[3] {
		t.Errorf("hog answers %d+%d != sent %d", hogOK.Load(), hogErr.Load(), sent[3])
	}
	var hogRow *TenantRow
	for i := range rows {
		if rows[i].Route == "/hog" {
			hogRow = &rows[i]
		}
	}
	if hogRow == nil {
		t.Fatalf("no /hog row in %v", rows)
	}
	if hogRow.Restarts == 0 {
		t.Errorf("hog was never restarted; deaths did not occur (row %+v)", *hogRow)
	}
	if hogRow.OK == 0 {
		t.Errorf("hog served zero requests successfully; restarts are not effective")
	}
	t.Logf("hog: %d ok, %d shed, %d errors, %d restarts", hogRow.OK, hogRow.Shed, hogRow.Errors, hogRow.Restarts)
	// Every hog death must have left a post-mortem.
	dumps, err := filepath.Glob(filepath.Join(flightDir, "flight-hog-*.json"))
	if err != nil {
		t.Fatalf("glob flight dir: %v", err)
	}
	if uint64(len(dumps)) < hogRow.Restarts {
		t.Errorf("%d flight dumps for %d hog restarts", len(dumps), hogRow.Restarts)
	}
	auditOK(t, vm)
}

// TestServeFaultKillMidRequest uses the fault plane to kill a tenant
// deterministically right after its Nth request is dispatched: that
// request fails with 502, the neighbour is untouched, the supervisor
// restarts the victim, and traffic resumes.
func TestServeFaultKillMidRequest(t *testing.T) {
	plan, err := faults.ParsePlan("seed=7,serve.dispatch=@3")
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	s, vm, base := startServer(t, core.Config{Faults: faults.NewPlane(plan)},
		Config{RestartBackoff: 5 * time.Millisecond},
		[]TenantConfig{
			{Route: "/victim", WorkUnits: 10},
			{Route: "/bystander", WorkUnits: 10},
		})
	defer func() {
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		auditOK(t, vm)
	}()

	// Interleave: victim requests 1 and 2 succeed, 3 dies mid-request.
	for i := 1; i <= 2; i++ {
		if status, body := get(t, http.DefaultClient, base+"/victim", "x"); status != http.StatusOK {
			t.Fatalf("victim request %d: status %d body %q", i, status, body)
		}
	}
	status, body := get(t, http.DefaultClient, base+"/victim", "x")
	if status != http.StatusBadGateway {
		t.Fatalf("victim request 3: status %d body %q, want 502 (killed mid-request)", status, body)
	}
	if status, body := get(t, http.DefaultClient, base+"/bystander", "x"); status != http.StatusOK {
		t.Fatalf("bystander during victim death: status %d body %q", status, body)
	}
	// The supervisor restarts the victim; traffic must come back.
	deadline := time.Now().Add(5 * time.Second)
	for {
		status, _ = get(t, http.DefaultClient, base+"/victim", "x")
		if status == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim never came back after fault kill; last status %d", status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if fired := vm.Cfg.Faults.Fires(faults.SiteServeDispatch); fired != 1 {
		t.Errorf("serve.dispatch fired %d times, want 1", fired)
	}
}

// TestServeShedNeverHangs saturates a tenant with a tiny queue and slow
// requests: overload must answer promptly with 503, not block.
func TestServeShedNeverHangs(t *testing.T) {
	s, vm, base := startServer(t, core.Config{},
		Config{RequestTimeout: 2 * time.Second},
		[]TenantConfig{{Route: "/slow", WorkUnits: 2_000_000, QueueMax: 2, MaxInflight: 1}})
	defer func() {
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		auditOK(t, vm)
	}()

	const flood = 40
	var wg sync.WaitGroup
	var ok, shed, other atomic.Uint64
	start := time.Now()
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 10 * time.Second}
			status, _ := get(t, client, base+"/slow", "x")
			switch status {
			case http.StatusOK:
				ok.Add(1)
			case http.StatusServiceUnavailable:
				shed.Add(1)
			default:
				other.Add(1)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if got := ok.Load() + shed.Load() + other.Load(); got != flood {
		t.Fatalf("answers %d != flood %d", got, flood)
	}
	if other.Load() != 0 {
		t.Errorf("%d unexpected statuses (want only 200/503)", other.Load())
	}
	if shed.Load() == 0 {
		t.Errorf("overload shed nothing; admission control is not engaging")
	}
	// Every refused request must be answered fast, i.e. well inside the
	// request timeout: overload responses are immediate 503s, not waits.
	if elapsed > 15*time.Second {
		t.Errorf("flood took %v; shed requests appear to hang", elapsed)
	}
	t.Logf("flood: %d ok, %d shed in %v", ok.Load(), shed.Load(), elapsed)
}

// TestServeNoRestart: with the supervisor disabled a dead tenant stays
// down and its route sheds deterministically rather than hanging.
func TestServeNoRestart(t *testing.T) {
	plan, err := faults.ParsePlan("seed=1,serve.dispatch=@1")
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	s, vm, base := startServer(t, core.Config{Faults: faults.NewPlane(plan)}, Config{},
		[]TenantConfig{{Route: "/once", WorkUnits: 10, NoRestart: true}})
	defer func() {
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		auditOK(t, vm)
	}()

	if status, _ := get(t, http.DefaultClient, base+"/once", "x"); status != http.StatusBadGateway {
		t.Fatalf("first request: status %d, want 502 (fault kill on dispatch 1)", status)
	}
	for i := 0; i < 3; i++ {
		status, body := get(t, http.DefaultClient, base+"/once", "x")
		if status != http.StatusServiceUnavailable {
			t.Fatalf("request after death: status %d body %q, want 503", status, body)
		}
	}
	rows := s.Rows()
	if rows[0].Up {
		t.Errorf("tenant reported up after NoRestart death")
	}
	if rows[0].Restarts != 0 {
		t.Errorf("tenant restarted %d times with NoRestart set", rows[0].Restarts)
	}
}

// TestServeGracefulShutdownUnderLoad closes the server while clients are
// mid-flight: every request that got onto the wire must be answered
// (200/502/503 — never hung, never a 5xx outside that set), the engines
// must drain their queues rather than abandon them, and every shard's VM
// must audit green after teardown. Connection errors are only legal once
// Close has begun (the listener is gone); before that, every request
// must reach a verdict.
func TestServeGracefulShutdownUnderLoad(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			tenants := []TenantConfig{
				{Route: "/x", WorkUnits: 400},
				{Route: "/y", WorkUnits: 400},
			}
			s, base := startSharded(t, shards, Config{
				Place:          LeastLoaded,
				RequestTimeout: 10 * time.Second,
			}, tenants)

			var (
				closeStarted atomic.Bool
				badStatus    atomic.Uint64
				earlyConnErr atomic.Uint64
				answered     atomic.Uint64
			)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for c := 0; c < 12; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					client := &http.Client{Timeout: 20 * time.Second}
					route := tenants[c%len(tenants)].Route
					for {
						select {
						case <-stop:
							return
						default:
						}
						resp, err := client.Post(base+route, "text/plain", strings.NewReader("x"))
						if err != nil {
							if !closeStarted.Load() {
								earlyConnErr.Add(1)
							}
							// Listener gone: shutdown reached the socket layer.
							return
						}
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						answered.Add(1)
						switch resp.StatusCode {
						case http.StatusOK, http.StatusBadGateway, http.StatusServiceUnavailable:
						default:
							badStatus.Add(1)
						}
					}
				}(c)
			}

			time.Sleep(100 * time.Millisecond) // requests in queues and in the VMs
			closeStarted.Store(true)
			done := make(chan error, 1)
			go func() { done <- s.Close() }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("Close: %v", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("Close did not return; shutdown drain is stuck")
			}
			close(stop)
			wg.Wait()

			if answered.Load() == 0 {
				t.Error("no request was ever answered; test exercised nothing")
			}
			if earlyConnErr.Load() != 0 {
				t.Errorf("%d connection errors before Close started", earlyConnErr.Load())
			}
			if badStatus.Load() != 0 {
				t.Errorf("%d responses outside 200/502/503 during shutdown", badStatus.Load())
			}
			// Close drained: no tenant may still hold queued or in-flight
			// requests, and a second Close is a no-op.
			for _, row := range s.Rows() {
				if row.Queue != 0 || row.Inflight != 0 {
					t.Errorf("tenant %s still has queue=%d inflight=%d after Close", row.Route, row.Queue, row.Inflight)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
			auditAllShards(t, s)
		})
	}
}
