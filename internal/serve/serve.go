// Package serve is the network serving plane: a TCP/HTTP front end that
// multiplexes real client traffic onto KaffeOS processes, one servlet
// process per tenant, spread across N engine shards.
//
// The paper's servlet experiment (§5.2, Figure 4) drives requests
// in-process; here the same isolation story is told over an actual socket.
// Each URL route maps to a tenant: an isolated KaffeOS process with its own
// heap and memlimit running a request-driven servlet. An HTTP request is
// marshalled into the tenant's heap (the bytes are charged to its
// memlimit), handled by a fresh green thread of the tenant's process, and
// answered from the thread's result. Admission control sheds load with
// HTTP 503 when a tenant's request queue or memlimit is saturated; a
// tenant killed by its memlimit (the MemHog case) fails only its own
// in-flight requests, is restarted with exponential backoff, and never
// disturbs its neighbours.
//
// Concurrency model: a VM's green-thread scheduler is single-threaded by
// design (deterministic CPU accounting), so one engine goroutine owns each
// VM exclusively. To use more than one core, the plane runs N shards, each
// a full VM — scheduler, heap registry, GC workers, supervisor, flight
// recorder — with tenants assigned to shards at route registration (hash
// by default, load-aware via Config.Place) and an explicit migration path
// for hot tenants (Server.Migrate: quiesce, drain, restart on the target
// shard). OS-side socket goroutines talk to a shard through its bounded
// submit channel and per-request response channels; nothing else touches
// a shard's scheduler, processes, or heaps. Every accepted request is
// guaranteed a response — completion, 5xx on tenant death, or 503 shed —
// so clients never hang on a killed servlet.
package serve

import (
	"context"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/jserv"
	"repro/internal/object"
	"repro/internal/telemetry"
)

// TenantConfig describes one route → servlet-process mapping.
type TenantConfig struct {
	// Route is the URL path served by this tenant (e.g. "/zone0").
	Route string
	// Name is the process name (defaults to the route without the slash).
	Name string
	// Hog selects the request-driven MemHog program instead of the
	// well-behaved servlet.
	Hog bool
	// MemKB is the tenant process' memlimit in KiB (default 4096).
	MemKB int
	// QueueMax bounds the tenant's request queue; arrivals beyond it are
	// shed with 503 (default 64).
	QueueMax int
	// MaxInflight bounds the requests executing concurrently inside the
	// tenant process, one green thread each (default 8).
	MaxInflight int
	// WorkUnits is the per-request compute passed to the servlet's handle
	// method (default 100).
	WorkUnits int
	// ShedFraction sheds new requests once the tenant's accounted memory
	// exceeds this fraction of its memlimit (default 0.9). Negative
	// disables the high-water check entirely, leaving the memlimit kill
	// as the only backstop — the paper's MemHog scenario.
	ShedFraction float64
	// NoRestart disables the supervisor: a dead tenant stays dead and its
	// route sheds until the server closes.
	NoRestart bool
	// Warm selects the expensive-startup servlet: a <clinit>-built lookup
	// table that makes every cold start pay a long warmup — the workload
	// the template path exists for.
	Warm bool
	// Wide selects the compile-heavy servlet: a wide method surface with
	// no clinit, so cold start is dominated by per-process JIT
	// compilation — the workload the shared code cache
	// (core.Config.CodeCache) exists for.
	Wide bool
	// Template starts incarnations by forking a checkpointed zygote
	// instead of re-initializing from bytecode: the first start on a shard
	// warms a quiescent process once, checkpoints it into an immutable
	// template, and every (re)start after that stamps out a clone by heap
	// copy — microsecond cold starts, shared per program shape across the
	// shard's tenants.
	Template bool
	// Lazy defers the tenant's first start until a request arrives
	// (scale-from-zero): the route is registered but no process exists
	// until traffic shows up. Combined with Template, the first request
	// pays one fork, not a full init.
	Lazy bool
}

// program is what a tenant process runs: the servlet's entry class, its
// module, and the role name TenantRow.Role and the serve.role scope
// annotation report.
type program struct {
	class  string
	module func() *bytecode.Module
	role   string
}

// program maps the (mutually exclusive) kind flags to the servlet they
// select.
func (c *TenantConfig) program() program {
	switch {
	case c.Hog:
		return program{jserv.NetHogClass, jserv.NetHogModule, "memhog"}
	case c.Warm:
		return program{jserv.NetWarmClass, jserv.NetWarmModule, "warm"}
	case c.Wide:
		return program{jserv.NetWideClass, jserv.NetWideModule, "wide"}
	}
	return program{jserv.NetServletClass, jserv.NetServletModule, "servlet"}
}

func (c *TenantConfig) fill() error {
	if c.Route == "" || c.Route[0] != '/' || c.Route == "/serve" || c.Route == "/healthz" {
		return fmt.Errorf("serve: invalid route %q", c.Route)
	}
	if c.Name == "" {
		c.Name = c.Route[1:]
	}
	if c.Name == "" {
		return fmt.Errorf("serve: route %q yields an empty tenant name", c.Route)
	}
	if c.MemKB <= 0 {
		c.MemKB = 4096
	}
	if c.QueueMax <= 0 {
		c.QueueMax = 64
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 8
	}
	if c.WorkUnits <= 0 {
		c.WorkUnits = 100
	}
	if c.ShedFraction == 0 {
		c.ShedFraction = 0.9
	}
	kinds := 0
	for _, k := range []bool{c.Hog, c.Warm, c.Wide} {
		if k {
			kinds++
		}
	}
	if kinds > 1 {
		return fmt.Errorf("serve: route %q: hog, warm, and wide are mutually exclusive", c.Route)
	}
	if c.Lazy && c.NoRestart {
		return fmt.Errorf("serve: route %q: lazy needs the supervisor (norestart set)", c.Route)
	}
	return nil
}

// ShardLoad is one shard's load summary, fed to the placement hook and
// reported by Server.Loads.
type ShardLoad struct {
	Shard int `json:"shard"`
	// Tenants currently assigned to the shard.
	Tenants int `json:"tenants"`
	// Queue and Inflight are the shard-wide sums of the per-tenant gauges.
	Queue    uint64 `json:"queue"`
	Inflight uint64 `json:"inflight"`
	// Cycles is the shard VM's virtual clock — total cycles it has
	// executed across all its tenants.
	Cycles uint64 `json:"cycles"`
}

// LeastLoaded is a placement hook that picks the shard with the least
// work: fewest queued+executing requests, then fewest tenants, then
// fewest executed cycles. Use it to spread tenants evenly at
// registration; the default (nil) placement hashes the route instead.
func LeastLoaded(route string, loads []ShardLoad) int {
	best := 0
	for i := 1; i < len(loads); i++ {
		a, b := loads[i], loads[best]
		qa, qb := a.Queue+a.Inflight, b.Queue+b.Inflight
		switch {
		case qa != qb:
			if qa < qb {
				best = i
			}
		case a.Tenants != b.Tenants:
			if a.Tenants < b.Tenants {
				best = i
			}
		case a.Cycles < b.Cycles:
			best = i
		}
	}
	return best
}

// hashShard is the default placement: stable FNV-1a hash of the route.
func hashShard(route string, n int) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(route))
	return int(h.Sum32()) % n
}

// Config parameterizes the server.
type Config struct {
	// Shards is how many engine shards the server runs, each with its own
	// VM, scheduler, heap registry and GC workers (default GOMAXPROCS).
	// One shard is the single-VM plane.
	Shards int
	// Place chooses the shard for each route at registration time; nil
	// hash-assigns routes (stable across restarts). See LeastLoaded.
	Place func(route string, loads []ShardLoad) int
	// RequestTimeout is the per-request wall-clock deadline. Whatever
	// happens to the tenant, the client hears back within it
	// (default 30s).
	RequestTimeout time.Duration
	// RestartBackoff is the supervisor's initial restart delay, doubled
	// per consecutive death up to maxBackoff (default 10ms).
	RestartBackoff time.Duration

	// MemBudget, when nonzero, turns on the MemBalancer controller: the
	// budget is split evenly across shards (each shard VM runs its own
	// controller over the tenants it hosts) and continuously redistributed
	// across tenant memlimits by the square-root rule, instead of every
	// tenant keeping its static MemKB ceiling. Tenant MemKB still sets the
	// initial limit a process starts with before the first rebalance round.
	MemBudget uint64

	// FlightDir, when non-empty, enables the flight recorder: on every
	// tenant death (and on shed storms, throttled to one dump per
	// flightMinGap) the owning shard's engine writes a post-mortem JSON
	// artifact there with the tenant's last spans, its recent trace
	// events, and its lifetime counters.
	FlightDir string
}

// Engine constants: limits nobody has needed to choose differently.
const (
	// sliceCycles is the scheduler budget per engine-loop iteration (one
	// quantum, 0.2 virtual ms): small enough that new arrivals are
	// admitted promptly while requests execute.
	sliceCycles = 100_000
	// submitBuffer bounds each shard's socket→engine handoff channel; a
	// full buffer sheds with 503 at the HTTP layer.
	submitBuffer = 256
	// maxBackoff is the ceiling of the supervisor's restart-delay ladder.
	maxBackoff = 2 * time.Second
	// maxBody caps the request body size.
	maxBody = 1 << 20
	// flightSpans / flightEvents bound how many spans and events one
	// flight dump carries.
	flightSpans  = 256
	flightEvents = 512
	// flightMinGap throttles shed-triggered dumps per tenant. Death dumps
	// are never throttled.
	flightMinGap = 5 * time.Second
)

func (c *Config) fill() {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.RestartBackoff <= 0 {
		c.RestartBackoff = 10 * time.Millisecond
	}
}

// response is what an engine loop sends back to a waiting HTTP handler.
type response struct {
	status int
	body   string
	pid    int32
}

// request is one in-flight HTTP request crossing the socket/engine
// boundary. The owning shard's engine loop owns every field except resp,
// which the HTTP handler drains; resp is buffered so the single send
// never blocks.
type request struct {
	tn       *tenant
	body     []byte
	resp     chan response
	enq      time.Time
	deadline time.Time
	th       *interp.Thread
	done     bool

	// Request-scoped cost attribution (nil/zero when spans are off).
	// id stamps the thread, its dispatch quanta, and the GC pauses it
	// triggers; span is the live ledger, owned by the engine goroutine
	// from submission until finishSpan copies it into the recorder.
	id           uint64
	span         *telemetry.Span
	t0           time.Time // wall-clock accept (body read start)
	dispatchedAt time.Time // wall-clock entry into the VM
}

// tenant is one route's servlet process plus its supervisor state. Queue,
// process and supervisor fields belong to the owning shard's engine
// goroutine; the aggregate counters are atomic so the HTTP introspection
// side reads them freely. The owning shard itself is an atomic pointer:
// the HTTP layer loads it to find the submit channel, and Migrate swaps
// it when the tenant moves.
type tenant struct {
	cfg  TenantConfig
	prog program
	sh   atomic.Pointer[shard]

	mu   sync.Mutex // guards proc/scope swap (engine writes, HTTP reads)
	proc *core.Process

	queue    []*request
	inflight []*request
	arrCls   *object.Class // "[I" in the current incarnation's namespace

	down        bool
	migrating   bool // quiesced for migration: shed arrivals, no restarts
	deaths      int  // consecutive deaths (resets on first OK after restart)
	nextRestart time.Time

	// Lifetime aggregates across restarts and migrations.
	reqs, okCount, shed, errs, restarts, migrations telemetry.Counter
	latency                                         telemetry.Histogram
	qdepth, infl                                    telemetry.Gauge

	// Mirrors into the current process incarnation's telemetry scope, so
	// `kaffeos ps`/`top` and /metrics show serving stats per pid.
	// Written in startTenant under mu (finishSpan may read from an HTTP
	// goroutine on the socket-shed path).
	scope *telemetry.Scope

	// Flight-recorder state (owning engine goroutine only).
	flightSeq      int
	flightLastShed time.Time
}

// proc reads the tenant's current process (HTTP-side safe).
func (t *tenant) currentProc() *core.Process {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.proc
}

func (t *tenant) pid() int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.proc == nil {
		return 0
	}
	return int32(t.proc.ID)
}

// currentScope reads the tenant's telemetry scope (safe from any
// goroutine; the owning engine swaps it on restart).
func (t *tenant) currentScope() *telemetry.Scope {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.scope
}

// Server is the serving plane: listener, HTTP front end, and N engine
// shards, each owning one VM. The Server itself only dispatches: requests
// go to the owning shard's submit channel, introspection aggregates
// across shards.
type Server struct {
	cfg     Config
	shards  []*shard
	tenants []*tenant
	byRoute map[string]*tenant

	ln   net.Listener
	hsrv *http.Server

	closing   atomic.Bool
	closeOnce sync.Once

	migrateMu sync.Mutex // serializes Migrate calls
}

// NewSharded builds a server with cfg.Shards engine shards (default
// GOMAXPROCS), creating one VM per shard from vmCfg; callers reach them
// through VMs. vmCfg.Telemetry must be nil: every shard gets its own hub,
// and the introspection surface (ServeTelemetry) aggregates them under a
// shard label. Tenants are assigned to shards by cfg.Place (hash of the
// route when nil).
func NewSharded(vmCfg core.Config, cfg Config, tenants []TenantConfig) (*Server, error) {
	cfg.fill()
	if vmCfg.Telemetry != nil {
		return nil, fmt.Errorf("serve: NewSharded needs one telemetry hub per shard; leave vmCfg.Telemetry nil")
	}
	if len(tenants) == 0 {
		return nil, fmt.Errorf("serve: no tenants")
	}
	if cfg.MemBudget > 0 {
		// Each shard VM runs its own controller over an even slice of the
		// budget; the engine goroutine drives it from the Charge hook, so
		// no cross-shard coordination is needed.
		vmCfg.MemBudget = cfg.MemBudget / uint64(cfg.Shards)
	}
	s := &Server{
		cfg:     cfg,
		byRoute: make(map[string]*tenant),
	}
	for i := 0; i < cfg.Shards; i++ {
		vm, err := core.NewVM(vmCfg)
		if err != nil {
			return nil, fmt.Errorf("serve: shard %d VM: %w", i, err)
		}
		s.shards = append(s.shards, newShard(i, vm, cfg))
	}
	// Placement: hash by default, cfg.Place for load-aware assignment.
	// Loads are rebuilt after each assignment so a least-loaded hook sees
	// the tenants it already placed.
	for _, tc := range tenants {
		if err := tc.fill(); err != nil {
			return nil, err
		}
		if _, dup := s.byRoute[tc.Route]; dup {
			return nil, fmt.Errorf("serve: duplicate route %q", tc.Route)
		}
		var idx int
		if cfg.Place != nil {
			idx = cfg.Place(tc.Route, s.Loads())
			if idx < 0 || idx >= len(s.shards) {
				return nil, fmt.Errorf("serve: placement hook put route %q on shard %d of %d", tc.Route, idx, len(s.shards))
			}
		} else {
			idx = hashShard(tc.Route, len(s.shards))
		}
		tn := &tenant{cfg: tc, prog: tc.program()}
		tn.sh.Store(s.shards[idx])
		s.shards[idx].tenants = append(s.shards[idx].tenants, tn)
		s.tenants = append(s.tenants, tn)
		s.byRoute[tc.Route] = tn
	}
	return s, nil
}

// Start spawns every tenant process on its shard (lazy tenants stay cold
// until their first request), binds addr (":0" picks a free port), and
// launches the accept loop and one engine loop per shard. It returns the
// bound address.
func (s *Server) Start(addr string) (string, error) {
	for _, sh := range s.shards {
		for _, tn := range sh.tenants {
			if tn.cfg.Lazy {
				// Scale-from-zero: registered but cold. The supervisor
				// starts it when the first request queues up behind it
				// (the zero-valued nextRestart is already due).
				tn.down = true
				continue
			}
			if err := sh.startTenant(tn); err != nil {
				return "", err
			}
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.hsrv = &http.Server{Handler: s.handler()}
	for _, sh := range s.shards {
		go sh.loop()
	}
	go func() { _ = s.hsrv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Shards reports how many engine shards the server runs.
func (s *Server) Shards() int { return len(s.shards) }

// VMs returns each shard's VM, indexed by shard. Callers use it to enable
// span recording or run per-shard audits; touching a VM's scheduler or
// processes while the server runs is not safe.
func (s *Server) VMs() []*core.VM {
	out := make([]*core.VM, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.vm
	}
	return out
}

// ServeTelemetry starts the HTTP introspection surface over every shard's
// VM on addr (see telemetry.Handler for the endpoints) and returns the
// bound address.
func (s *Server) ServeTelemetry(addr string) (string, error) {
	sources := make([]telemetry.Source, len(s.shards))
	for i, sh := range s.shards {
		sources[i] = sh.vm.TelemetrySource()
	}
	return telemetry.Serve(addr, sources)
}

// ShardOf reports which shard currently owns route (-1 if unknown).
func (s *Server) ShardOf(route string) int {
	tn := s.byRoute[route]
	if tn == nil {
		return -1
	}
	return tn.sh.Load().id
}

// Loads snapshots every shard's load (safe from any goroutine: gauges
// and the virtual clock are atomic, shard assignment is an atomic
// pointer).
func (s *Server) Loads() []ShardLoad {
	out := make([]ShardLoad, len(s.shards))
	for i, sh := range s.shards {
		out[i] = ShardLoad{Shard: i, Cycles: sh.vm.Sched.Now()}
	}
	for _, tn := range s.tenants {
		i := tn.sh.Load().id
		out[i].Tenants++
		out[i].Queue += tn.qdepth.Value()
		out[i].Inflight += tn.infl.Value()
	}
	return out
}

// Close stops accepting, fails every pending request, kills and reclaims
// every tenant process on every shard, and waits for all engine loops to
// exit. The VMs are quiescent afterwards, so callers may run
// authoritative audits. Safe to call more than once and during in-flight
// traffic: every request already accepted is answered (200/502/503),
// never hung.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.closing.Store(true)
		for _, sh := range s.shards {
			close(sh.quit)
		}
		for _, sh := range s.shards {
			<-sh.loopDone
		}
		// The engines are gone, but handler goroutines may have raced
		// requests into the submit buffers after the final engine drain.
		// Answer those stragglers 503 until the HTTP server has shut down
		// (all handlers returned), so no client ever hangs on Close.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for _, sh := range s.shards {
			wg.Add(1)
			go func(sh *shard) {
				defer wg.Done()
				for {
					select {
					case r := <-sh.submit:
						sh.respond(r, http.StatusServiceUnavailable, "shed: server shutting down\n")
					case <-stop:
						return
					}
				}
			}(sh)
		}
		if s.hsrv != nil {
			ctx, cancel := context.WithTimeout(context.Background(), s.cfg.RequestTimeout)
			if err := s.hsrv.Shutdown(ctx); err != nil {
				_ = s.hsrv.Close()
			}
			cancel()
		}
		close(stop)
		wg.Wait()
	})
	return nil
}

// Migrate moves a route's tenant to the target shard — the hot-tenant
// escape hatch. The protocol is quiesce → drain → move:
//
//  1. Quiesce: the owning shard marks the tenant migrating; new arrivals
//     shed 503 while already-admitted requests keep executing.
//  2. Drain: the shard finishes the tenant's queue and in-flight
//     requests (bounded by RequestTimeout — stragglers past it fail as
//     on any death), kills the old incarnation, and waits for its heap
//     to merge back.
//  3. Move: ownership swaps to the target shard, which starts a fresh
//     incarnation there; traffic resumes.
//
// The route is briefly unavailable (sheds, never hangs) while draining;
// neighbours on both shards are untouched. Blocks until the move
// completes.
func (s *Server) Migrate(route string, target int) error {
	s.migrateMu.Lock()
	defer s.migrateMu.Unlock()
	tn := s.byRoute[route]
	if tn == nil {
		return fmt.Errorf("serve: migrate: unknown route %q", route)
	}
	if target < 0 || target >= len(s.shards) {
		return fmt.Errorf("serve: migrate: no shard %d (have %d)", target, len(s.shards))
	}
	from, to := tn.sh.Load(), s.shards[target]
	if from == to {
		return nil
	}

	// 1. Quiesce on the owning shard.
	if err := from.do(func() { tn.migrating = true }); err != nil {
		return err
	}

	// 2. Drain: poll the owning engine until the tenant has no queued or
	// executing requests and its old incarnation is fully reclaimed. A
	// request that outlives RequestTimeout is answered by the engine's
	// expire pass, and killing the process fails any true straggler the
	// way any tenant death would.
	deadline := time.Now().Add(s.cfg.RequestTimeout + s.cfg.RequestTimeout/2)
	killed := false
	for {
		var quiet, reclaimed bool
		err := from.do(func() {
			quiet = len(tn.queue) == 0 && len(tn.inflight) == 0
			p := tn.proc
			if quiet && !killed {
				if p != nil && p.State() == core.ProcRunning {
					p.Kill(nil)
				}
				killed = true
			}
			reclaimed = p == nil || p.State() == core.ProcReclaimed
		})
		if err != nil {
			return err
		}
		if quiet && killed && reclaimed {
			break
		}
		if !quiet && time.Now().After(deadline) {
			// Stragglers past the deadline: kill the incarnation; the
			// engine's reap fails their requests 502 like any death.
			err := from.do(func() {
				if p := tn.proc; p != nil && p.State() == core.ProcRunning {
					p.Kill(nil)
				}
				killed = true
			})
			if err != nil {
				return err
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	if err := from.do(func() { from.removeTenant(tn) }); err != nil {
		return err
	}

	// 3. Move: swap ownership, adopt on the target, restart there.
	tn.sh.Store(to)
	var startErr error
	err := to.do(func() {
		to.tenants = append(to.tenants, tn)
		tn.migrating = false
		tn.deaths = 0
		startErr = to.startTenant(tn)
		if startErr != nil {
			// Adopted but not started: let the supervisor keep trying.
			tn.down = true
			tn.nextRestart = time.Now().Add(to.cfg.RestartBackoff)
		}
	})
	if err != nil {
		return err
	}
	tn.migrations.Inc()
	if sc := tn.currentScope(); sc != nil {
		sc.Counter(telemetry.MServeMigrations).Inc()
	}
	to.vm.Tel.Emit(telemetry.Event{
		Kind: telemetry.EvServeMigrate, Pid: tn.pid(),
		A: uint64(from.id), B: uint64(to.id), Detail: tn.cfg.Route,
	})
	return startErr
}
