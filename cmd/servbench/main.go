// Command servbench regenerates the paper's Figure 4: scaling behaviour
// of JVM deployment models as the number of servlets increases, with and
// without a MemHog denial-of-service servlet.
//
// Usage:
//
//	servbench            # the six curves of Figure 4 (fluid host simulation)
//	servbench -real      # the isolation property on the real VM: the
//	                     # serving plane driven in process (Server.Do)
//	servbench -real -http :8080   # with the telemetry HTTP endpoint
//	servbench -csv       # machine-readable output
//	servbench -net -requests 10000 -clients 32   # real HTTP load against a
//	                     # self-hosted serving plane (one process per route)
//	servbench -net -target http://host:8080      # aim at a running `kaffeos serve`
//	servbench -net -json out.json                # self-describing JSON artifact
//	servbench -net -overcommit -membudget 12582912  # A/B: static even-split
//	                     # limits vs the memory controller under one budget
//	servbench -net -coldstart                       # A/B: clinit cold starts vs
//	                     # zygote forks, gated at a 10x median improvement
//	servbench -net -codecache                       # A/B: private per-process JIT
//	                     # vs the shared code cache, gated at a 3x median improvement
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"

	"repro/internal/core"
	"repro/internal/jserv"
	"repro/internal/serve"
)

func main() {
	real := flag.Bool("real", false, "run the real-VM servlet demonstration instead of the host simulation")
	net := flag.Bool("net", false, "generate real HTTP load against a serving plane (self-hosted unless -target)")
	coldstart := flag.Bool("coldstart", false, "-net: run the cold-start A/B (clinit init vs zygote fork) and gate on -coldstartmin")
	trials := flag.Int("trials", 24, "-net -coldstart: scale-from-zero trials per arm")
	coldstartMin := flag.Float64("coldstartmin", 10, "-net -coldstart: minimum median init/fork improvement ratio (0 disables the gate)")
	codecache := flag.Bool("codecache", false, "-net: run the shared-code-cache A/B (private JIT per process vs shared artifacts) and gate on -codecachemin")
	codecacheMin := flag.Float64("codecachemin", 3, "-net -codecache: minimum median private/shared improvement ratio (0 disables the gate)")
	overcommit := flag.Bool("overcommit", false, "-net: run the overcommit A/B (static limits vs memory controller) under -membudget")
	memBudget := flag.Uint64("membudget", 12<<20, "-net -overcommit: global tenant memory budget in bytes")
	csv := flag.Bool("csv", false, "CSV output")
	requests := flag.Uint64("requests", 60, "requests per servlet (-real) or total requests (-net; default 10000 there)")
	httpAddr := flag.String("http", "", "serve the telemetry HTTP endpoint on this address in -real mode")
	gcWorkers := flag.Int("gcworkers", 0, "GC worker pool for collecting process heaps concurrently in -real mode (0 = GOMAXPROCS)")
	target := flag.String("target", "", "-net: base URL of a running server (empty = self-host)")
	routes := flag.String("routes", "/zone0,/zone1,/zone2,/memhog:hog:1024", "-net: route spec (see kaffeos serve)")
	clients := flag.Int("clients", 32, "-net: concurrent client connections")
	bodyBytes := flag.Int("body", 64, "-net: request body size in bytes")
	shards := flag.Int("shards", 1, "-net: engine shards for the self-hosted plane (one VM per shard)")
	jsonPath := flag.String("json", "", "-net: write the run report (with host info) to this file")
	flag.Parse()

	var err error
	switch {
	case *net && (*coldstart || *codecache || *overcommit):
		opts := abOptions{
			trials: *trials, shards: *shards, clients: *clients, requests: *requests,
			memBudget: *memBudget, coldstartMin: *coldstartMin, codecacheMin: *codecacheMin,
		}
		if opts.trials <= 0 {
			opts.trials = 24
		}
		if !flagSet("requests") {
			opts.requests = 1600
		}
		if !flagSet("clients") {
			opts.clients = 128
		}
		selected := map[string]bool{"coldstart": *coldstart, "codecache": *codecache, "overcommit": *overcommit}
		for _, exp := range abExperiments(opts) {
			if selected[exp.name] {
				_, err = runAB(exp, os.Stdout, *jsonPath)
				break
			}
		}
	case *net:
		n := *requests
		if !flagSet("requests") {
			n = 10000
		}
		err = netBench(*target, *routes, *clients, n, *bodyBytes, *shards, *jsonPath)
	case *real:
		err = realDemo(*requests, *httpAddr, *gcWorkers)
	default:
		err = figure4(*csv)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "servbench: %v\n", err)
		os.Exit(1)
	}
}

// flagSet reports whether the user passed a flag explicitly.
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func figure4(csv bool) error {
	params := jserv.DefaultParams()
	curves := jserv.Figure4(params)
	points := jserv.Figure4Points()

	if csv {
		fmt.Println("curve,servlets,seconds,crashes,thrash")
		for _, name := range jserv.CurveOrder() {
			for _, o := range curves[name] {
				fmt.Printf("%s,%d,%.1f,%d,%.2f\n", name, o.Config.Servlets, o.Seconds, o.Crashes, o.ThrashFactor)
			}
		}
		return nil
	}

	fmt.Println("Figure 4: time (s) for well-behaved servlets to answer 1000 requests each")
	fmt.Println("(log-scale in the paper; note who wins with and without the MemHog)")
	fmt.Printf("%-16s", "servlets")
	for _, n := range points {
		fmt.Printf("%9d", n)
	}
	fmt.Println()
	for _, name := range jserv.CurveOrder() {
		fmt.Printf("%-16s", name)
		for _, o := range curves[name] {
			fmt.Printf("%9.1f", o.Seconds)
		}
		fmt.Println()
	}
	fmt.Println()
	fmt.Println("Shape checks (paper §4.2):")
	k10 := at(curves["KaffeOS"], 10)
	kh10 := at(curves["KaffeOS,MemHog"], 10)
	n10 := at(curves["IBM/n"], 10)
	nh10 := at(curves["IBM/n,MemHog"], 10)
	i80 := at(curves["IBM/1"], 80)
	k80 := at(curves["KaffeOS"], 80)
	fmt.Printf("  KaffeOS consistent under attack: %.1fs -> %.1fs (%.1fx)\n", k10, kh10, kh10/k10)
	fmt.Printf("  IBM/n catastrophic under attack: %.1fs -> %.1fs (%.1fx)\n", n10, nh10, nh10/n10)
	fmt.Printf("  IBM/1 thrashes at scale:         %.1fs vs KaffeOS %.1fs at 80 servlets\n", i80, k80)
	return nil
}

func at(outs []jserv.Outcome, n int) float64 {
	for _, o := range outs {
		if o.Config.Servlets == n {
			return o.Seconds
		}
	}
	return 0
}

// realDemo is Figure 4's "real VM" arm: three servlet zones plus a MemHog,
// each its own KaffeOS process on the one serving plane, driven in
// process through Server.Do — one closed-loop client per route, requests
// each. The hog keeps 16 KiB per request, so it walks into its 512 KiB
// memlimit about every thirty.
func realDemo(requests uint64, httpAddr string, gcWorkers int) error {
	routes := []string{"/zone0", "/zone1", "/zone2", "/memhog"}
	srv, err := serve.NewSharded(
		core.Config{Engine: core.EngineJITOpt, GCWorkers: gcWorkers},
		serve.Config{Shards: 1},
		[]serve.TenantConfig{
			{Route: routes[0]}, {Route: routes[1]}, {Route: routes[2]},
			// ShedFraction -1 disables the graceful high-water shed: the
			// kernel's memlimit kill is the isolation boundary under test.
			{Route: routes[3], Hog: true, MemKB: 512, ShedFraction: -1},
		})
	if err != nil {
		return err
	}
	if httpAddr != "" {
		addr, err := srv.ServeTelemetry(httpAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "servbench: telemetry on http://%s (/metrics /procs /ps /spans /trace /audit /debug/pprof)\n", addr)
	}
	if _, err := srv.Start("127.0.0.1:0"); err != nil {
		return err
	}
	vm := srv.VMs()[0]
	start := vm.Sched.NowMillis()
	var wg sync.WaitGroup
	for _, route := range routes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); i < requests; i++ {
				srv.Do(route, []byte("payload"))
			}
		}()
	}
	wg.Wait()
	ms := vm.Sched.NowMillis() - start
	rows := srv.Rows()
	if err := closeAndAudit(srv); err != nil {
		return err
	}

	fmt.Printf("real KaffeOS VM: 3 servlet zones + 1 MemHog (512 KiB memlimit)\n")
	fmt.Printf("  virtual time: %d ms for %d requests per zone\n", ms, requests)
	var hogRestarts, neighbourBad uint64
	for _, r := range rows {
		fmt.Printf("  %-8s %-8s handled=%-6d restarts=%d\n", r.Name, r.Role, r.OK, r.Restarts)
		if r.Role == "memhog" {
			hogRestarts = r.Restarts
		} else {
			neighbourBad += r.Requests - r.OK
		}
	}
	fmt.Printf("  kernel heap after the dust settles: %d bytes; post-close audit ok\n", vm.KernelHeap.Bytes())
	if hogRestarts == 0 {
		return fmt.Errorf("memhog never hit its memlimit — isolation not demonstrated")
	}
	if neighbourBad > 0 {
		return fmt.Errorf("neighbours saw %d non-200 answers — isolation violated", neighbourBad)
	}
	fmt.Println("  MemHog was killed by its memlimit and restarted; neighbours answered every request with 200.")
	return nil
}
