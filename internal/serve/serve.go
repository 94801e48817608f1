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
// recorder — with each tenant placed on one shard at route registration
// (fewest tenants first, or Config.Place), where it stays for the
// server's life. OS-side socket goroutines talk to a shard through its
// bounded submit channel and per-request response channels; nothing else
// touches a shard's scheduler, processes, or heaps. Every accepted
// request is guaranteed a response — completion, 5xx on tenant death, or
// 503 shed — so clients never hang on a killed servlet.
package serve

import (
	"context"
	"fmt"
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
	// Route is the URL path served by this tenant (e.g. "/zone0"). The
	// route without its slash names the tenant and its processes.
	Route string
	// Hog selects the request-driven MemHog program instead of the
	// well-behaved servlet. It is a program choice like Program, and the
	// two are exclusive.
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
	// Program selects the servlet the tenant process runs (default
	// Servlet).
	Program Program
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

// Program names a request-driven servlet program from internal/jserv.
// Its value is the word ParseRoutes reads for it ("servlet" for the
// zero value).
type Program string

const (
	// Servlet is the well-behaved request handler (jserv.NetServlet).
	Servlet Program = ""
	// Warm is the expensive-startup servlet: a <clinit>-built lookup
	// table that makes every cold start pay a long warmup — the workload
	// the template path exists for.
	Warm Program = "warm"
	// Wide is the compile-heavy servlet: a wide method surface with no
	// clinit, so cold start is dominated by per-process JIT compilation —
	// the workload the shared code cache (core.Config.CodeCache) exists
	// for.
	Wide Program = "wide"
	// Dispatch hosts every servlet and the MemHog in one process, the
	// body choosing which runs (jserv.NetDispatch): Figure 4's IBM/n
	// deployment, where the hog's OutOfMemoryError kills them all.
	Dispatch Program = "dispatch"
)

// program is what a tenant process runs: the servlet's entry class, its
// module, and the role name TenantRow.Role and the serve.role scope
// annotation report.
type program struct {
	class  string
	module func() *bytecode.Module
	role   string
}

// programs maps each Program to what it runs; Hog runs hogProgram.
var (
	programs = map[Program]program{
		Servlet:  {jserv.NetServletClass, jserv.NetServletModule, "servlet"},
		Warm:     {jserv.NetWarmClass, jserv.NetWarmModule, "warm"},
		Wide:     {jserv.NetWideClass, jserv.NetWideModule, "wide"},
		Dispatch: {jserv.NetDispatchClass, jserv.NetDispatchModule, "dispatch"},
	}
	hogProgram = program{jserv.NetHogClass, jserv.NetHogModule, "memhog"}
)

// program is the servlet the (validated) config selects.
func (c *TenantConfig) program() program {
	if c.Hog {
		return hogProgram
	}
	return programs[c.Program]
}

func (c *TenantConfig) fill() error {
	if c.Route == "" || c.Route[0] != '/' || c.Route == "/serve" || c.Route == "/healthz" {
		return fmt.Errorf("serve: invalid route %q", c.Route)
	}
	if c.Route == "/" {
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
	if _, ok := programs[c.Program]; !ok {
		return fmt.Errorf("serve: route %q: unknown program %q", c.Route, c.Program)
	}
	if c.Hog && c.Program != Servlet {
		return fmt.Errorf("serve: route %q: two programs (hog and %s)", c.Route, c.Program)
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

// LeastLoaded is the default placement: the shard with the fewest
// tenants, the first one on ties. Placement runs before Start, when no
// shard has queued, executed or run anything, so tenant count is the only
// load there is.
func LeastLoaded(route string, loads []ShardLoad) int {
	best := 0
	for i := 1; i < len(loads); i++ {
		if loads[i].Tenants < loads[best].Tenants {
			best = i
		}
	}
	return best
}

// Config parameterizes the server.
type Config struct {
	// Shards is how many engine shards the server runs, each with its own
	// VM, scheduler, heap registry and GC workers (default GOMAXPROCS).
	// One shard is the single-VM plane.
	Shards int
	// Place chooses the shard for each route at registration time; a
	// tenant never leaves it (nil: LeastLoaded).
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
	// yieldEvery is how long a busy engine loop runs before it yields
	// its P to the goroutines it readied.
	yieldEvery = time.Millisecond
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
	if c.Place == nil {
		c.Place = LeastLoaded
	}
}

// response is what an engine loop sends back to a waiting HTTP handler.
type response struct {
	status int
	body   string
	pid    int32
	caught bool
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

	// caught: the request shared a death of its tenant's process (see
	// shard.catch).
	caught bool
}

// tenant is one route's servlet process plus its supervisor state. Queue,
// process and supervisor fields belong to the owning shard's engine
// goroutine; the aggregate counters are atomic so the HTTP introspection
// side reads them freely. The owning shard is set by NewSharded before
// any goroutine starts and never changes, so every goroutine reads it
// without synchronization.
type tenant struct {
	cfg  TenantConfig
	name string // the route without its slash
	prog program
	sh   *shard

	mu   sync.Mutex // guards proc/scope swap (engine writes, HTTP reads)
	proc *core.Process

	queue    []*request
	inflight []*request
	arrCls   *object.Class // "[I" in the current incarnation's namespace

	down        bool
	deaths      int // consecutive deaths (resets on first OK after restart)
	nextRestart time.Time

	// Lifetime aggregates across restarts.
	reqs, okCount, shed, errs, restarts, caught telemetry.Counter
	latency                                     telemetry.Histogram
	qdepth, infl                                telemetry.Gauge

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
}

// NewSharded builds a server with cfg.Shards engine shards (default
// GOMAXPROCS), creating one VM per shard from vmCfg; callers reach them
// through VMs. Every shard VM has its own telemetry hub; the introspection
// surface (ServeTelemetry) aggregates them under a shard label. Each
// tenant is placed on one shard by cfg.Place (LeastLoaded when nil) and
// stays there.
func NewSharded(vmCfg core.Config, cfg Config, tenants []TenantConfig) (*Server, error) {
	cfg.fill()
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
	// Loads are rebuilt after each assignment so the hook sees the
	// tenants it already placed.
	for _, tc := range tenants {
		if err := tc.fill(); err != nil {
			return nil, err
		}
		if _, dup := s.byRoute[tc.Route]; dup {
			return nil, fmt.Errorf("serve: duplicate route %q", tc.Route)
		}
		idx := cfg.Place(tc.Route, s.Loads())
		if idx < 0 || idx >= len(s.shards) {
			return nil, fmt.Errorf("serve: placement hook put route %q on shard %d of %d", tc.Route, idx, len(s.shards))
		}
		sh := s.shards[idx]
		tn := &tenant{cfg: tc, name: tc.Route[1:], prog: tc.program(), sh: sh}
		sh.tenants = append(sh.tenants, tn)
		s.tenants = append(s.tenants, tn)
		s.byRoute[tc.Route] = tn
	}
	pacer.acquire(s)
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
	s.ln = ln // Close reads a nil ln as "no engine loop to stop"
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

// Loads snapshots every shard's load (safe from any goroutine: gauges
// and the virtual clock are atomic, and a tenant's shard never changes).
func (s *Server) Loads() []ShardLoad {
	out := make([]ShardLoad, len(s.shards))
	for i, sh := range s.shards {
		out[i] = ShardLoad{Shard: i, Cycles: sh.vm.Sched.Now()}
	}
	for _, tn := range s.tenants {
		i := tn.sh.id
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
// never hung. It also tears down a server whose Start never ran or failed,
// and releases the Go GC pacing NewSharded took in every case.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.closing.Store(true)
		for _, sh := range s.shards {
			close(sh.quit)
			if s.ln == nil {
				// Start never launched the engine loops (it was not called,
				// or it failed): tear the shard down on this goroutine,
				// killing and reclaiming any tenant it already started.
				sh.shutdown()
				close(sh.loopDone)
			}
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
		pacer.release(s)
	})
	return nil
}
