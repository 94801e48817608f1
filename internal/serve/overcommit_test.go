package serve

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/telemetry"
)

// overcommitTenants builds the fixed fleet for the overcommit scenario:
// eight servlet tenants whose appetite wants roughly 4 MiB each (32 MiB
// total) squeezed under a global budget with room for about three.
// Tenants 0–3 are hot (big bodies held live in flight, heavy per-request
// work); 4–7 are nearly idle. Both configurations respect the same
// budget: the static baseline carves it into even per-tenant limits,
// which starves the hot half at its admission high-water mark while the
// idle half wastes its share; the controller moves the same bytes to
// where the garbage is.
func overcommitTenants(budget uint64) []TenantConfig {
	perTenantKB := int(budget / 8 >> 10) // static even split of the budget
	tenants := make([]TenantConfig, 8)
	for i := range tenants {
		work := 50
		inflight := 0
		if i < 4 {
			// Heavy work keeps each hot handler running across many quanta,
			// so its marshalled body stays live — concurrent in-flight
			// requests pile up real live bytes, not collectable garbage.
			work = 20_000
			inflight = 24
		}
		tenants[i] = TenantConfig{
			Route:       fmt.Sprintf("/t%d", i),
			WorkUnits:   work,
			MemKB:       perTenantKB,
			QueueMax:    12,
			MaxInflight: inflight,
		}
	}
	return tenants
}

// overcommitResult aggregates one run of the scenario.
type overcommitResult struct {
	answered  uint64 // requests that got 200/502/503
	unknown   uint64 // anything else (must be 0)
	ok        uint64
	shed      uint64
	gcCycles  uint64 // total GC cycles across every process on every shard
	shedRate  float64
	gcPerOK   float64 // GC cycles per successful request (normalizes shed work)
	rebalance uint64  // controller rounds observed (0 when off)
}

// runOvercommit drives the fixed traffic mix through a 2-shard server,
// with or without the memory controller, and tears it down audited.
func runOvercommit(t *testing.T, budget uint64, controller bool) overcommitResult {
	t.Helper()
	cfg := Config{Shards: 2}
	if controller {
		cfg.MemBudget = budget
	}
	// The physical wall: each shard VM's root memlimit holds the kernel
	// reserve plus its half of the tenant budget — the budget is real,
	// not advisory, in both configurations.
	vmCfg := core.Config{Engine: core.EngineJITOpt, TotalMemory: 32<<20 + budget/2}
	s, err := NewSharded(vmCfg, cfg, overcommitTenants(budget))
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	if _, err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}

	// Demand per hot tenant is clients*(7/8)/4 concurrent requests. Static
	// capacity is ~10 in flight (the even-split limit caps marshalled
	// bodies) + QueueMax; balanced capacity is MaxInflight + QueueMax once
	// the controller has grown the hot limits. 128 clients puts demand
	// (~28) decisively above the former and below the latter, so the
	// static baseline sheds structurally, not on scheduling noise.
	const (
		total   = 1600
		clients = 128
	)
	hotBody := make([]byte, 64<<10)
	for i := range hotBody {
		hotBody[i] = byte(i)
	}
	coldBody := []byte("ping")

	var res overcommitResult
	var next atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= total {
					return
				}
				// 7 of 8 requests go to the hot half; the idle half sees
				// a trickle, just enough to stay sampled.
				var route string
				var body []byte
				if i%8 != 7 {
					route = fmt.Sprintf("/t%d", i%4)
					body = hotBody
				} else {
					route = fmt.Sprintf("/t%d", 4+(i/8)%4)
					body = coldBody
				}
				status, _ := s.Do(route, body)
				switch status {
				case http.StatusOK:
					atomic.AddUint64(&res.ok, 1)
					atomic.AddUint64(&res.answered, 1)
				case http.StatusServiceUnavailable:
					atomic.AddUint64(&res.shed, 1)
					atomic.AddUint64(&res.answered, 1)
				case http.StatusBadGateway:
					atomic.AddUint64(&res.answered, 1)
				default:
					atomic.AddUint64(&res.unknown, 1)
				}
			}
		}()
	}
	wg.Wait()

	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i, vm := range s.VMs() {
		if rep := vm.Audit(true); !rep.OK() {
			t.Fatalf("post-teardown audit failed on shard %d (controller=%v):\n%s", i, controller, rep)
		}
		for _, scope := range vm.Tel.Reg.Procs() {
			res.gcCycles += scope.Counter(telemetry.MGCCycles).Value()
		}
		res.rebalance += vm.Tel.Reg.Kernel().Counter(telemetry.MMemBalRounds).Value()
	}
	res.shedRate = float64(res.shed) / float64(total)
	if res.ok > 0 {
		res.gcPerOK = float64(res.gcCycles) / float64(res.ok)
	}
	return res
}

// TestOvercommitControllerBeatsStatic is the tentpole's acceptance test:
// eight tenants squeezed under a budget with room for about three, run
// once with static even-split limits and once with the MemBalancer
// controller redistributing the same total budget. The controller run
// must shed less AND spend less total GC time; both runs must answer
// every request and pass the kernel audit after teardown.
func TestOvercommitControllerBeatsStatic(t *testing.T) {
	const budget = 12 << 20

	static := runOvercommit(t, budget, false)
	balanced := runOvercommit(t, budget, true)

	t.Logf("static:   ok=%d shed=%d (rate %.3f) gcCycles=%d (%.1f/ok)",
		static.ok, static.shed, static.shedRate, static.gcCycles, static.gcPerOK)
	t.Logf("balanced: ok=%d shed=%d (rate %.3f) gcCycles=%d (%.1f/ok) rounds=%d",
		balanced.ok, balanced.shed, balanced.shedRate, balanced.gcCycles, balanced.gcPerOK, balanced.rebalance)

	for name, r := range map[string]overcommitResult{"static": static, "balanced": balanced} {
		if r.unknown != 0 {
			t.Errorf("%s: %d requests got an unexpected status (every request must be answered 200/502/503)", name, r.unknown)
		}
		if r.ok == 0 {
			t.Errorf("%s: zero successful requests", name)
		}
	}
	if balanced.rebalance == 0 {
		t.Fatal("controller never ran a rebalance round")
	}
	if balanced.shed > static.shed {
		t.Errorf("controller shed more than static limits: %d > %d", balanced.shed, static.shed)
	}
	if static.shed > 0 && balanced.shed >= static.shed {
		t.Errorf("controller did not reduce shed count: static %d, balanced %d", static.shed, balanced.shed)
	}
	// Shed requests are refused at admission and do no handler work, so
	// raw GC totals are incomparable when shed counts differ; normalize by
	// completed requests instead.
	if balanced.gcPerOK >= static.gcPerOK {
		t.Errorf("controller did not reduce GC time per served request: static %.1f cycles/ok, balanced %.1f", static.gcPerOK, balanced.gcPerOK)
	}
}

// TestOvercommitRebalanceFaultReconciles arms the membal.rebalance fault
// site so the controller's 3rd round is cut off half-applied, then keeps
// traffic flowing: later rounds must re-converge the limits, the run must
// keep answering, and the post-teardown audit must hold — a controller
// crash mid-redistribution may never corrupt the memlimit books.
func TestOvercommitRebalanceFaultReconciles(t *testing.T) {
	const budget = 12 << 20
	plan, err := faults.ParsePlan("seed=3,membal.rebalance=@3")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSharded(
		core.Config{Engine: core.EngineJITOpt, Faults: faults.NewPlane(plan), TotalMemory: 32<<20 + budget},
		Config{Shards: 1, MemBudget: budget},
		overcommitTenants(budget))
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	if _, err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}

	var answered, unknown uint64
	var wg sync.WaitGroup
	var next atomic.Uint64
	body := make([]byte, 8<<10)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= 600 {
					return
				}
				status, _ := s.Do(fmt.Sprintf("/t%d", i%8), body)
				switch status {
				case http.StatusOK, http.StatusServiceUnavailable, http.StatusBadGateway:
					atomic.AddUint64(&answered, 1)
				default:
					atomic.AddUint64(&unknown, 1)
				}
			}
		}()
	}
	wg.Wait()

	vm := s.VMs()[0]
	partial := vm.Tel.Reg.Kernel().Counter(telemetry.MMemBalPartial).Value()
	rounds := vm.Tel.Reg.Kernel().Counter(telemetry.MMemBalRounds).Value()

	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if unknown != 0 {
		t.Errorf("%d requests got an unexpected status", unknown)
	}
	if partial == 0 {
		t.Fatal("fault site membal.rebalance=@3 never cut a round (site not exercised)")
	}
	if rounds <= partial {
		t.Errorf("no full rounds after the partial one (rounds %d, partial %d): limits were never reconciled", rounds, partial)
	}
	if rep := vm.Audit(true); !rep.OK() {
		t.Fatalf("post-teardown audit failed after partial rebalance:\n%s", rep)
	}
}
