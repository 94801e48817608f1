package main

import (
	"encoding/json"
	"fmt"
	"io"
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

// The A/B harness: every -net selector that compares two ways of running
// the serving plane (-coldstart, -codecache, -overcommit) is one row of
// abExperiments, run by runAB — build the plane with arm A, measure;
// build it with arm B, measure; print one table; write one report; fail
// under the experiment's gate.

// abArm is one side's outcome in the report.
type abArm struct {
	Name string `json:"name"`
	// Samples are the arm's latency samples in nanoseconds, ascending.
	Samples []int64 `json:"samples"`
	P50     int64   `json:"p50"`
	P90     int64   `json:"p90"`
	// Counters are the arm's server-side facts (sheds, GC cycles, cache
	// hits, ...), named by the experiment.
	Counters map[string]float64 `json:"counters"`
}

// abReport is the -json artifact of every A/B selector: self-describing
// (host shape embedded) and the same shape whichever experiment ran.
type abReport struct {
	Host       telemetry.HostInfo `json:"host"`
	Experiment string             `json:"experiment"`
	Arms       []abArm            `json:"arms"`
	// Ratio is the baseline arm's median over the candidate's: how many
	// times better the candidate is.
	Ratio    float64 `json:"ratio"`
	MinRatio float64 `json:"min_ratio"`
}

// armFunc measures one arm: its latency samples and server-side counters.
type armFunc func() (samples []int64, counters map[string]float64, err error)

// abArmSpec names one arm and how to measure it.
type abArmSpec struct {
	name string
	run  armFunc
}

// abExperiment is one A/B comparison: the baseline arm, then the
// candidate expected to beat it.
type abExperiment struct {
	name string
	what string // what a sample is, for the table heading
	arms [2]abArmSpec
	// minRatio gates the median improvement ratio (0 = not gated).
	minRatio float64
	// verdict, when set, is a further gate on the arms' counters.
	verdict func(base, cand abArm) error
}

// runAB measures both arms of exp, prints the comparison to out, writes
// the report to jsonPath (if set), and returns an error when a gate fails.
func runAB(exp abExperiment, out io.Writer, jsonPath string) (abReport, error) {
	rep := abReport{Host: telemetry.Host(), Experiment: exp.name, MinRatio: exp.minRatio}
	for _, spec := range exp.arms {
		samples, counters, err := spec.run()
		if err != nil {
			return rep, fmt.Errorf("%s: %s arm: %w", exp.name, spec.name, err)
		}
		if len(samples) == 0 {
			return rep, fmt.Errorf("%s: %s arm produced no samples", exp.name, spec.name)
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		rep.Arms = append(rep.Arms, abArm{
			Name: spec.name, Samples: samples, Counters: counters,
			P50: pct(samples, 0.5), P90: pct(samples, 0.9),
		})
	}
	base, cand := rep.Arms[0], rep.Arms[1]
	rep.Ratio = float64(base.P50) / float64(cand.P50)

	fmt.Fprintf(out, "%s: %s\n", exp.name, exp.what)
	fmt.Fprintf(out, "  %-28s %8s %12s %12s\n", "arm", "samples", "p50", "p90")
	for _, arm := range rep.Arms {
		fmt.Fprintf(out, "  %-28s %8d %10dus %10dus\n", arm.Name, len(arm.Samples), arm.P50/1000, arm.P90/1000)
	}
	fmt.Fprintf(out, "  ratio: %.1fx at the median (gate: >=%.0fx)\n", rep.Ratio, exp.minRatio)
	for _, arm := range rep.Arms {
		keys := make([]string, 0, len(arm.Counters))
		for k := range arm.Counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(out, "  %s:", arm.Name)
		for _, k := range keys {
			fmt.Fprintf(out, " %s=%.6g", k, arm.Counters[k])
		}
		fmt.Fprintln(out)
	}

	if jsonPath != "" {
		if err := writeJSON(jsonPath, rep); err != nil {
			return rep, err
		}
	}
	if exp.minRatio > 0 && rep.Ratio < exp.minRatio {
		return rep, fmt.Errorf("%s: %q is only %.1fx better than %q at the median, want >=%.0fx",
			exp.name, cand.Name, rep.Ratio, base.Name, exp.minRatio)
	}
	if exp.verdict != nil {
		if err := exp.verdict(base, cand); err != nil {
			return rep, fmt.Errorf("%s gate: %w", exp.name, err)
		}
	}
	return rep, nil
}

func pct(sorted []int64, p float64) int64 {
	return sorted[int(p*float64(len(sorted)-1))]
}

// writeJSON writes v, indented, to path.
func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "servbench: wrote %s\n", path)
	return nil
}

// closeAndAudit shuts the plane down and runs the authoritative audit on
// every shard's now-quiescent VM — how every self-hosted run ends.
func closeAndAudit(srv *serve.Server) error {
	if err := srv.Close(); err != nil {
		return err
	}
	for i, vm := range srv.VMs() {
		if rep := vm.Audit(true); !rep.OK() {
			return fmt.Errorf("post-run audit failed on shard %d:\n%s", i, rep)
		}
	}
	return nil
}

// onPlane self-hosts a serving plane, lets drive load it over its socket,
// then closes and audits it.
func onPlane(vmCfg core.Config, cfg serve.Config, tenants []serve.TenantConfig, drive func(srv *serve.Server, base string) error) error {
	srv, err := serve.NewSharded(vmCfg, cfg, tenants)
	if err != nil {
		return err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	if err := drive(srv, "http://"+addr); err != nil {
		srv.Close()
		return err
	}
	return closeAndAudit(srv)
}

// post sends one request and reports its status, wall-clock latency and
// response header.
func post(client *http.Client, url, body string) (int, time.Duration, http.Header, error) {
	t0 := time.Now()
	resp, err := client.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		return 0, 0, nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, time.Since(t0), resp.Header, nil
}

// scaleFromZero is the arm shared by -coldstart and -codecache: a plane
// of `trials` lazy tenants shaped like shape, plus one eager primer of the
// same shape so one-time costs (zygote warmup+checkpoint, the cache's
// single compile-and-insert) are paid at server start, exactly how a
// fleet amortizes them. Each sample is one route's first-request latency
// minus the same tenant's steady-state floor, so HTTP and handler cost
// cancel out and what remains is process construction.
func scaleFromZero(vmCfg core.Config, shards, trials int, shape serve.TenantConfig) ([]int64, map[string]float64, error) {
	shape.Route = "/primer"
	tenants := []serve.TenantConfig{shape}
	shape.Lazy = true
	for i := 0; i < trials; i++ {
		shape.Route = fmt.Sprintf("/cold%d", i)
		tenants = append(tenants, shape)
	}
	var samples, steady []int64
	counters := map[string]float64{}
	err := onPlane(vmCfg, serve.Config{Shards: shards}, tenants, func(srv *serve.Server, base string) error {
		client := &http.Client{Timeout: 60 * time.Second}
		ok := func(route string) (time.Duration, error) {
			status, d, _, err := post(client, base+route, "scale-from-zero")
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("route %s: status %d", route, status)
			}
			return d, err
		}
		for i := 0; i < trials; i++ {
			route := fmt.Sprintf("/cold%d", i)
			first, err := ok(route)
			if err != nil {
				return err
			}
			// Steady-state floor on the now-warm tenant: the minimum of a
			// few repeats is the request cost with no process construction
			// (and no compilation) left in it.
			floor := time.Duration(1<<62 - 1)
			for j := 0; j < 3; j++ {
				d, err := ok(route)
				if err != nil {
					return err
				}
				if d < floor {
					floor = d
				}
			}
			cold := first - floor
			if cold < 1 {
				cold = 1
			}
			samples = append(samples, cold.Nanoseconds())
			steady = append(steady, floor.Nanoseconds())
		}
		// With the code cache on: misses are the primer's one-time
		// compiles, hits every tenant start after it; the artifacts cost
		// shared_code_bytes resident once, against the same code held
		// once per tenant process.
		for _, vm := range srv.VMs() {
			if vm.CodeMgr == nil {
				continue
			}
			k := vm.Tel.Reg.Kernel()
			counters["cache_hits"] += float64(k.Counter(telemetry.MCodeHits).Value())
			counters["cache_misses"] += float64(k.Counter(telemetry.MCodeMisses).Value())
			counters["shared_code_bytes"] += float64(vm.CodeMgr.ResidentBytes())
		}
		if shared, on := counters["shared_code_bytes"]; on {
			counters["private_code_bytes"] = shared * float64(len(tenants))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	sort.Slice(steady, func(i, j int) bool { return steady[i] < steady[j] })
	counters["steady_p50_ns"] = float64(steady[len(steady)/2])
	return samples, counters, nil
}

// overcommitTenants is the fixed fleet: eight tenants whose combined
// appetite is far over the budget — four hot (large bodies held live
// in flight, heavy per-request work) and four nearly idle. The static
// baseline splits the budget evenly; the controller moves it to where
// the allocation actually happens.
func overcommitTenants(budget uint64) []serve.TenantConfig {
	perTenantKB := int(budget / 8 >> 10)
	tenants := make([]serve.TenantConfig, 8)
	for i := range tenants {
		work := 50
		inflight := 0
		if i < 4 {
			work = 20_000
			inflight = 24
		}
		tenants[i] = serve.TenantConfig{
			Route:       fmt.Sprintf("/t%d", i),
			WorkUnits:   work,
			MemKB:       perTenantKB,
			QueueMax:    12,
			MaxInflight: inflight,
		}
	}
	return tenants
}

// overcommit is one arm of -overcommit: the overcommitted fleet under the
// budget, with static even-split limits or the MemBalancer controller,
// driven with the skewed traffic mix (7/8 of requests carry 64 KiB bodies
// to the hot half). Samples are the latencies of the 200s.
func overcommit(budget, requests uint64, clients, shards int, controller bool) ([]int64, map[string]float64, error) {
	cfg := serve.Config{Shards: shards}
	if controller {
		cfg.MemBudget = budget
	}
	vmCfg := core.Config{Engine: core.EngineJITOpt, TotalMemory: 32<<20 + budget/uint64(shards)}
	var samples []int64
	counters := map[string]float64{"requests": float64(requests)}
	err := onPlane(vmCfg, cfg, overcommitTenants(budget), func(srv *serve.Server, base string) error {
		hotBody := strings.Repeat("x", 64<<10)
		start := time.Now()
		var next, shed503, errOther atomic.Uint64
		var mu sync.Mutex
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				client := &http.Client{Timeout: 60 * time.Second}
				var okNs []int64
				for {
					i := next.Add(1) - 1
					if i >= requests {
						break
					}
					route, body := fmt.Sprintf("/t%d", i%4), hotBody
					if i%8 == 7 {
						route, body = fmt.Sprintf("/t%d", 4+(i/8)%4), "ping"
					}
					status, d, _, err := post(client, base+route, body)
					switch {
					case err == nil && status == http.StatusOK:
						okNs = append(okNs, d.Nanoseconds())
					case err == nil && status == http.StatusServiceUnavailable:
						shed503.Add(1)
					default:
						errOther.Add(1)
					}
				}
				mu.Lock()
				samples = append(samples, okNs...)
				mu.Unlock()
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)

		var gcCycles uint64
		for _, vm := range srv.VMs() {
			for _, scope := range vm.Tel.Reg.Procs() {
				gcCycles += scope.Counter(telemetry.MGCCycles).Value()
			}
			counters["rebalance_rounds"] += float64(vm.Tel.Reg.Kernel().Counter(telemetry.MMemBalRounds).Value())
		}
		counters["ok"] = float64(len(samples))
		counters["shed"] = float64(shed503.Load())
		counters["errors"] = float64(errOther.Load())
		counters["gc_cycles"] = float64(gcCycles)
		if len(samples) > 0 {
			counters["gc_cycles_per_ok"] = float64(gcCycles) / float64(len(samples))
		}
		counters["requests_per_sec"] = float64(requests) / elapsed.Seconds()
		return nil
	})
	return samples, counters, err
}

// abOptions are the command-line knobs the experiments read.
type abOptions struct {
	trials, shards, clients int
	requests, memBudget     uint64
}

// abExperiments is the table behind the -coldstart, -codecache and
// -overcommit selectors.
func abExperiments(o abOptions) []abExperiment {
	jit := core.Config{Engine: core.EngineJITOpt}
	cached := core.Config{Engine: core.EngineJITOpt, CodeCache: true}
	warm := serve.TenantConfig{Program: serve.Warm, WorkUnits: 10}
	forked := serve.TenantConfig{Program: serve.Warm, WorkUnits: 10, Template: true}
	wide := serve.TenantConfig{Program: serve.Wide, MemKB: 8192, WorkUnits: 10}
	fromZero := func(vmCfg core.Config, shape serve.TenantConfig) armFunc {
		return func() ([]int64, map[string]float64, error) {
			return scaleFromZero(vmCfg, o.shards, o.trials, shape)
		}
	}
	overcommitted := func(controller bool) armFunc {
		return func() ([]int64, map[string]float64, error) {
			return overcommit(o.memBudget, o.requests, o.clients, o.shards, controller)
		}
	}
	return []abExperiment{{
		// The same warm servlet (an expensive <clinit> lookup table)
		// started from scratch per incarnation versus forked from a
		// checkpointed zygote.
		name: "coldstart",
		what: "scale-from-zero latency, steady-state subtracted; clinit init vs zygote fork",
		arms: [2]abArmSpec{
			{"init (clinit warmup)", fromZero(jit, warm)},
			{"fork (zygote template)", fromZero(jit, forked)},
		},
		minRatio: 10,
	}, {
		// The same compile-heavy servlet fleet (no clinit, so process
		// construction is dominated by JIT compilation) with private
		// per-process compilation versus the shared, content-addressed
		// code cache.
		name: "codecache",
		what: "scale-from-zero latency, steady-state subtracted; private JIT vs shared code cache",
		arms: [2]abArmSpec{
			{"private (compile per proc)", fromZero(jit, wide)},
			{"shared (codecache attach)", fromZero(cached, wide)},
		},
		minRatio: 3,
	}, {
		// The same overcommitted fleet under the same global budget. The
		// latency ratio is reported, not gated: the controller must win
		// on what it exists for — fewer sheds, less GC per served request.
		name: "overcommit",
		what: fmt.Sprintf("latency of 200s, 8 tenants under a %d MiB budget (room for ~3 hot heaps)", o.memBudget>>20),
		arms: [2]abArmSpec{
			{"static (even split)", overcommitted(false)},
			{"balanced (controller)", overcommitted(true)},
		},
		verdict: func(static, balanced abArm) error {
			s, b := static.Counters, balanced.Counters
			if b["shed"] > s["shed"] || b["gc_cycles_per_ok"] >= s["gc_cycles_per_ok"] {
				return fmt.Errorf("controller did not beat static (shed %.0f vs %.0f, gc/ok %.1f vs %.1f)",
					b["shed"], s["shed"], b["gc_cycles_per_ok"], s["gc_cycles_per_ok"])
			}
			return nil
		},
	}}
}
