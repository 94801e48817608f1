package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/serve"
)

// serveCmd runs the network serving plane: each route is an isolated
// KaffeOS process with its own heap and memlimit, fed by real HTTP
// traffic, spread over N engine shards (one VM per shard). Ctrl-C shuts
// down, prints per-tenant statistics, and audits every shard's books.
func serveCmd(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "TCP listen address")
	routes := fs.String("routes", "/zone0,/zone1,/zone2,/memhog:hog:1024",
		"route spec: path[:hog|servlet|warm|wide|dispatch][:template][:lazy][:memKiB][:norestart], comma-separated")
	shards := fs.Int("shards", runtime.GOMAXPROCS(0),
		"engine shards, one VM per shard (default GOMAXPROCS); tenants spread least-loaded")
	work := fs.Int("work", 100, "per-request servlet work units")
	queueMax := fs.Int("queue", 0, "per-tenant request queue bound (0 = default 64)")
	inflight := fs.Int("inflight", 0, "per-tenant concurrent requests (0 = default 8)")
	engine := fs.String("engine", "jit-opt", engineUsage)
	codeCache := fs.Bool("codecache", false,
		"share JIT-compiled code across tenant processes: one content-addressed\n"+
			"artifact per (module, engine) pair, each sharer charged its full size")
	faultSpec := fs.String("faults", "", `arm fault injection (e.g. "seed=7,serve.dispatch=@100")`)
	telAddr := fs.String("http", "", "also serve the aggregated telemetry endpoint on this address")
	spans := fs.Bool("spans", false, "record per-request cost spans (view at /spans or with kaffeos trace)")
	memBudget := fs.String("membudget", "",
		"global memory budget (e.g. 64M): turn on the MemBalancer controller, which\n"+
			"redistributes the budget across tenant memlimits by the square-root rule\n"+
			"instead of keeping every tenant at its static per-route limit")
	flightDir := fs.String("flight", "", "write flight-recorder post-mortems to this directory on tenant death/shed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tenants, err := serve.ParseRoutes(*routes)
	if err != nil {
		return err
	}
	for i := range tenants {
		if tenants[i].WorkUnits == 0 {
			tenants[i].WorkUnits = *work
		}
		tenants[i].QueueMax = *queueMax
		tenants[i].MaxInflight = *inflight
	}
	vmCfg, err := vmConfig(*engine, "", *faultSpec)
	if err != nil {
		return err
	}
	vmCfg.CodeCache = *codeCache
	if *flightDir != "" {
		if err := os.MkdirAll(*flightDir, 0o755); err != nil {
			return err
		}
	}
	var budget uint64
	if *memBudget != "" {
		budget, err = parseSize(*memBudget)
		if err != nil {
			return fmt.Errorf("-membudget: %w", err)
		}
	}
	srv, err := serve.NewSharded(
		vmCfg,
		serve.Config{Shards: *shards, FlightDir: *flightDir, MemBudget: budget},
		tenants)
	if err != nil {
		return err
	}
	if *spans {
		for _, vm := range srv.VMs() {
			vm.Tel.Spans.SetEnabled(true)
		}
	}
	if *telAddr != "" {
		bound, err := srv.ServeTelemetry(*telAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "kaffeos: telemetry on http://%s (/metrics /procs /ps /spans /trace /audit /debug/pprof)\n", bound)
	}
	// Catch the signal before serving, so an interrupt that arrives as
	// soon as the address is announced still shuts down cleanly.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	bound, err := srv.Start(*addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "kaffeos: serving on http://%s (/serve for stats), %d shard(s)\n", bound, srv.Shards())
	for _, row := range srv.Rows() {
		fmt.Fprintf(os.Stderr, "kaffeos:   %-16s %-8s shard %d\n", row.Route, row.Role, row.Shard)
	}
	<-sig
	fmt.Fprintln(os.Stderr, "kaffeos: shutting down")
	if err := srv.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%-16s %-8s %5s %8s %8s %8s %8s %8s %10s %10s\n",
		"ROUTE", "ROLE", "SHARD", "REQS", "OK", "SHED", "ERRS", "RESTARTS", "P50", "P99")
	for _, row := range srv.Rows() {
		fmt.Fprintf(os.Stderr, "%-16s %-8s %5d %8d %8d %8d %8d %8d %9dus %9dus\n",
			row.Route, row.Role, row.Shard, row.Requests, row.OK, row.Shed, row.Errors,
			row.Restarts, row.P50Ns/1000, row.P99Ns/1000)
	}
	for i, vm := range srv.VMs() {
		if rep := vm.Audit(true); !rep.OK() {
			return fmt.Errorf("post-shutdown audit failed on shard %d:\n%s", i, rep)
		}
	}
	fmt.Fprintf(os.Stderr, "kaffeos: post-shutdown audit ok on %d shard(s)\n", srv.Shards())
	return nil
}

// parseSize parses a byte size with an optional K/M/G suffix (KiB units).
func parseSize(s string) (uint64, error) {
	mult := uint64(1)
	switch {
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		mult, s = 1<<20, s[:len(s)-1]
	case strings.HasSuffix(s, "G"), strings.HasSuffix(s, "g"):
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return n * mult, nil
}
