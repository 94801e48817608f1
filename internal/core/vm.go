// Package core implements the KaffeOS virtual machine and its process
// abstraction — the paper's primary contribution.
//
// A VM hosts many processes. Each process is the unit of resource
// ownership and control: it has its own garbage-collected heap, its own
// memlimit, its own class namespace (reloaded library classes included),
// its own interned strings, and its own green threads, whose CPU cycles
// are charged to it — including cycles the collector spends on its heap.
// Killing a process cannot damage the system: termination is deferred in
// kernel mode, monitors release during unwinding, and the process' heap
// merges into the kernel heap where the next kernel collection reclaims
// every byte.
package core

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/barrier"
	"repro/internal/bytecode"
	"repro/internal/classlib"
	"repro/internal/codecache"
	"repro/internal/faults"
	"repro/internal/heap"
	"repro/internal/interp"
	"repro/internal/loader"
	"repro/internal/membal"
	"repro/internal/memlimit"
	"repro/internal/object"
	"repro/internal/sched"
	"repro/internal/shared"
	"repro/internal/telemetry"
	"repro/internal/vmaddr"
)

// EngineKind selects the execution engine, reproducing the platform spread
// of the paper's Figure 3.
type EngineKind string

const (
	// EngineInterp is the switch interpreter (Kaffe00-class with fast
	// exceptions and thin locks).
	EngineInterp EngineKind = "interp"
	// EngineInterpSpill is the interpreter with the Kaffe-1.0b4-style
	// naive-codegen simulation: redundant per-instruction decode and
	// register spill/reload traffic (the Kaffe99 class of engine).
	EngineInterpSpill EngineKind = "interp-spill"
	// EngineJITOpt overlays compiled statements on the interpreter
	// (IBM-class).
	EngineJITOpt EngineKind = "jit-opt"

	// EngineJIT is the interpreter: the plain closure compiler it once
	// named is gone. bench/ still names it.
	//
	// Deprecated: use EngineInterp.
	EngineJIT = EngineInterp
)

// Config parameterizes a VM.
type Config struct {
	// Barrier selects the write-barrier implementation (§4.1). Defaults to
	// NoHeapPointer, the configuration KaffeOS shipped with.
	Barrier barrier.Barrier
	// Engine selects the execution engine. Defaults to EngineInterp,
	// matching KaffeOS's Kaffe 1.0b4 base.
	Engine EngineKind
	// FastExceptions enables table-based exception dispatch (the Kaffe00
	// improvement KaffeOS integrated). Defaults true.
	FastExceptions *bool
	// ThinLocks enables header-word locking (Kaffe00's lightweight
	// locking). Defaults false, matching Kaffe 1.0b4.
	ThinLocks bool
	// TotalMemory is the root memlimit (default 256 MiB — the paper's
	// testbed RAM).
	TotalMemory uint64
	// KernelMemory is the hard reservation for the kernel heap (default
	// 32 MiB).
	KernelMemory uint64
	// MemBudget, when nonzero, runs the MemBalancer controller
	// (internal/membal) over every process heap: the budget is
	// redistributed across all process memlimits every MemBalInterval
	// cycles by the square-root rule, and each process' GC trigger tracks
	// its controller-computed limit instead of the local rule. This turns
	// the paper's static memlimit tree into a continuous admission/
	// autoscaling policy for overcommitted serving.
	MemBudget uint64
	// MemBalInterval is the controller period in virtual cycles
	// (default 500k = 1 virtual ms).
	MemBalInterval uint64
	// CodeCache enables the shared JIT code cache (internal/codecache):
	// modules are compiled once per engine configuration and the
	// immutable artifact is shared read-only by every process loading
	// identical bytecode, each sharer charged the full artifact size
	// (the paper's full-charging rule applied to code residency).
	// Interpreter engines compile nothing, so the cache is a no-op for
	// them. Off by default.
	CodeCache bool
	// Stdout is where process output goes unless a process overrides it.
	Stdout io.Writer
	// Faults, when set, arms the deterministic fault-injection plane across
	// every subsystem (heap allocation, GC mid-mark, barrier stores,
	// memlimit debits, scheduler dispatch, spawn/terminate races). Nil —
	// the default — injects nothing and costs one nil check per site.
	Faults *faults.Plane
}

func (c *Config) fill() {
	if c.Barrier == nil {
		c.Barrier = barrier.NoHeapPointer
	}
	if c.Engine == "" {
		c.Engine = EngineInterp
	}
	if c.FastExceptions == nil {
		v := true
		c.FastExceptions = &v
	}
	if c.TotalMemory == 0 {
		c.TotalMemory = 256 << 20
	}
	if c.KernelMemory == 0 {
		c.KernelMemory = 32 << 20
	}
	if c.MemBalInterval == 0 {
		c.MemBalInterval = 500_000
	}
	if c.Stdout == nil {
		c.Stdout = io.Discard
	}
}

// The adaptive GC trigger's two constants. A process heap is collected
// once it outgrows live + √(live × alloc-rate × gcSqrtHorizon), the
// square-root rule (Kirisame et al., MemBalancer).
const (
	// gcSqrtHorizon is the virtual-cycle window whose expected allocation
	// volume is balanced against the live size (≈ 134 virtual ms). Larger
	// means laxer triggers: fewer collections, more memory.
	gcSqrtHorizon = 1 << 26
	// gcMinHeap is the floor below which the trigger never fires, so
	// short-lived or tiny processes are never collected preemptively. It
	// is also the memory controller's per-process floor.
	gcMinHeap = 256 << 10
)

// Pid identifies a process within a VM.
type Pid int32

// VM is one KaffeOS virtual machine.
type VM struct {
	Cfg Config

	Space      *vmaddr.Space
	Reg        *heap.Registry
	RootLimit  *memlimit.Limit
	KernelHeap *heap.Heap
	Shared     *loader.Loader
	SharedMgr  *shared.Manager
	// CodeMgr is the shared JIT code cache (nil unless Cfg.CodeCache is
	// set and the engine compiles).
	CodeMgr *codecache.Manager
	Sched   *sched.Scheduler
	Lib     *classlib.Library
	Env     *interp.Env
	Stats   *barrier.Stats
	// Tel routes every subsystem's telemetry: metrics update always, the
	// event ring fills only while tracing is enabled.
	Tel *telemetry.Hub

	engine interp.Engine
	// engineJIT is the engine downcast to the optimizing JIT when it is
	// one (the code-cache compile/install path needs its Variant and
	// Program surface); nil for interpreter engines.
	engineJIT *interp.JIT

	// ctl is the MemBalancer controller (nil unless Cfg.MemBudget is
	// set). It and lastRebalance are touched only by the goroutine
	// driving the scheduler — the same ownership rule as the VM itself.
	ctl           *membal.Controller
	lastRebalance uint64

	mu        sync.Mutex
	procs     map[Pid]*Process
	templates map[Pid]*Template
	nextPid   Pid
	nextTid   int32
	programs  map[string]*bytecode.Module
	kernelGC  uint64 // kernel collections performed
}

// NewVM builds a VM: address space, kernel heap, shared system loader with
// the class library, and the scheduler.
func NewVM(cfg Config) (*VM, error) {
	cfg.fill()
	vm := &VM{
		Cfg:       cfg,
		Space:     vmaddr.NewSpace(),
		Stats:     &barrier.Stats{},
		procs:     make(map[Pid]*Process),
		templates: make(map[Pid]*Template),
		programs:  make(map[string]*bytecode.Module),
	}
	vm.Tel = telemetry.NewHub(0)
	vm.Reg = heap.NewRegistry(vm.Space, heap.Config{HeaderExtra: cfg.Barrier.HeaderExtra()})
	vm.Reg.Telemetry = vm.Tel
	vm.Stats.Sink = vm.Tel
	vm.RootLimit = memlimit.NewRoot("vm", cfg.TotalMemory)
	vm.RootLimit.SetSink(vm.Tel)
	if cfg.Faults != nil {
		vm.Reg.Faults = cfg.Faults
		vm.Reg.OnFaultKill = func(h *heap.Heap) {
			if p, ok := h.Owner.(*Process); ok {
				p.Kill(ErrInjectedFault)
			}
		}
		vm.Stats.Faults = cfg.Faults
		vm.RootLimit.SetFaults(cfg.Faults)
	}
	kernelLimit, err := vm.RootLimit.NewChild("kernel", cfg.KernelMemory, true)
	if err != nil {
		return nil, fmt.Errorf("core: kernel reservation: %w", err)
	}
	vm.KernelHeap = vm.Reg.NewHeap(heap.KindKernel, "kernel", kernelLimit)
	sharedBase, err := vm.RootLimit.NewChild("shared-heaps", memlimit.Unlimited, false)
	if err != nil {
		return nil, err
	}
	vm.SharedMgr = shared.NewManager(vm.Reg, sharedBase)
	vm.SharedMgr.Telemetry = vm.Tel

	switch cfg.Engine {
	case EngineInterp, EngineInterpSpill:
		vm.engine = interp.Interpreter{}
	case EngineJITOpt:
		vm.engineJIT = &interp.JIT{}
		vm.engine = vm.engineJIT
	default:
		return nil, fmt.Errorf("core: unknown engine %q", cfg.Engine)
	}

	if cfg.CodeCache && vm.engineJIT != nil {
		// The cache's residency lives under its own soft child of the
		// root, mirroring the shared-heap base: artifacts are kernel
		// state, charged to no process (sharers additionally pay full
		// size against their own limits on attach).
		codeBase, err := vm.RootLimit.NewChild("codecache", memlimit.Unlimited, false)
		if err != nil {
			return nil, err
		}
		vm.SharedMgr.Metrics = vm.Tel.Reg.Kernel()
		vm.SharedMgr.Faults = cfg.Faults
		vm.CodeMgr = codecache.NewManager(&vm.SharedMgr.Ledger, codeBase)
	}

	vm.Lib = classlib.New()
	vm.Shared = loader.NewShared(vm.KernelHeap)
	vm.Shared.RegisterNatives(vm.Lib.Natives, vm.Lib.Kernel)
	vm.Shared.RegisterNatives(vm.kernelNatives())
	if err := vm.Shared.DefineModule(vm.Lib.SharedModule); err != nil {
		return nil, fmt.Errorf("core: defining shared library: %w", err)
	}
	if err := vm.Shared.DefineModule(kernelModule()); err != nil {
		return nil, fmt.Errorf("core: defining kernel classes: %w", err)
	}

	if cfg.MemBudget > 0 {
		vm.ctl = &membal.Controller{
			Budget: cfg.MemBudget,
			Floor:  gcMinHeap,
			Sink:   vm.Tel,
			Scope:  vm.Tel.Reg.Kernel(),
			Faults: cfg.Faults,
		}
	}

	vm.Sched = sched.New(vm.engine)
	vm.Sched.OnExit = vm.onThreadExit
	vm.Sched.Telemetry = vm.Tel
	if cfg.Faults != nil {
		vm.Sched.Faults = cfg.Faults
		vm.Sched.FaultKill = func(t *interp.Thread) {
			if p, ok := t.Owner.(*Process); ok {
				p.Kill(ErrInjectedFault)
			}
		}
	}
	vm.Tel.SetClock(vm.Sched.Now)
	vm.Sched.Charge = func(t *interp.Thread, cycles uint64) {
		if vm.ctl != nil {
			// The memory balancer runs on the scheduler's cadence: once
			// per MemBalInterval of virtual time it re-reads every live
			// heap and redistributes the budget. Same goroutine as the
			// scheduler, so it may touch processes and limits freely.
			if now := vm.Sched.Now(); now-vm.lastRebalance >= vm.Cfg.MemBalInterval {
				vm.lastRebalance = now
				vm.Rebalance()
			}
		}
		if p, ok := t.Owner.(*Process); ok {
			p.chargeCPU(cycles)
			if p.cpuLimit > 0 && p.CPUCycles() > p.cpuLimit && p.State() == ProcRunning {
				p.Kill(ErrCPULimit)
			}
			// Adaptive trigger: collect a heap that outgrew its computed
			// limit (square-root rule or controller-set), instead of
			// waiting for an allocation failure. Runs on the scheduler goroutine, so the process'
			// mutators are quiescent; the cycles are charged to the
			// process through the normal path.
			if p.State() == ProcRunning && p.Heap.Bytes() > p.gcTrigger.Load() {
				p.ctrGCAdaptive.Inc()
				vm.collectHeapFor(t, p.Heap)
			}
		}
	}

	vm.Env = vm.buildEnv()

	// Shared-library <clinit>s run on a bootstrap kernel thread.
	if err := vm.runClinits(nil, vm.Shared.PendingClinits()); err != nil {
		return nil, fmt.Errorf("core: shared clinit: %w", err)
	}
	return vm, nil
}

// buildEnv wires the interp environment to VM services. Thread ownership
// (t.Owner) identifies the process for all per-process behaviour.
func (vm *VM) buildEnv() *interp.Env {
	fe := *vm.Cfg.FastExceptions
	env := &interp.Env{
		Reg:            vm.Reg,
		Barrier:        vm.Cfg.Barrier,
		BarrierStats:   vm.Stats,
		FastExceptions: fe,
		ThinLocks:      vm.Cfg.ThinLocks,
		SpillSim:       vm.Cfg.Engine == EngineInterpSpill,
	}
	env.Throwable = func(t *interp.Thread, className, msg string) (*object.Object, error) {
		return vm.newThrowable(t, className, msg)
	}
	env.Intern = func(t *interp.Thread, s string) (*object.Object, error) {
		return vm.intern(t, s)
	}
	env.NewString = func(t *interp.Thread, s string) (*object.Object, error) {
		return vm.newString(t, s)
	}
	env.CollectHeap = func(t *interp.Thread, h *heap.Heap) {
		vm.collectHeapFor(t, h)
	}
	env.Spawn = func(t *interp.Thread, threadObj *object.Object) error {
		p, ok := t.Owner.(*Process)
		if !ok {
			return fmt.Errorf("core: spawn from ownerless thread")
		}
		return p.spawnThreadObject(threadObj)
	}
	env.SleepMillis = func(t *interp.Thread, ms int64) {
		if ms < 0 {
			ms = 0
		}
		vm.Sched.Sleep(t, uint64(ms)*sched.CyclesPerMs)
	}
	env.YieldThread = func(t *interp.Thread) { vm.Sched.Yield(t) }
	env.JoinThread = func(t *interp.Thread, threadObj *object.Object) {
		p, ok := t.Owner.(*Process)
		if !ok || threadObj == nil {
			return
		}
		target, started := p.threadFor[threadObj]
		if !started || !target.Alive() {
			return
		}
		interp.ParkUntil(t, func() bool { return !target.Alive() })
	}
	env.ThreadAlive = func(t *interp.Thread, threadObj *object.Object) bool {
		p, ok := t.Owner.(*Process)
		if !ok || threadObj == nil {
			return false
		}
		target, started := p.threadFor[threadObj]
		return started && target.Alive()
	}
	env.Stdout = func(t *interp.Thread) io.Writer {
		if p, ok := t.Owner.(*Process); ok {
			inner := p.Out
			if inner == nil {
				inner = vm.Cfg.Stdout
			}
			return &accountedWriter{p: p, inner: inner}
		}
		return vm.Cfg.Stdout
	}
	env.NowMillis = func() int64 { return int64(vm.Sched.NowMillis()) }
	env.NowCycles = func() uint64 { return vm.Sched.Now() }
	env.RandFor = func(t *interp.Thread) *rand.Rand {
		if p, ok := t.Owner.(*Process); ok {
			return p.rng
		}
		return nil
	}
	return env
}

// newThrowable builds a throwable in the thread's namespace. The object is
// allocated on the thread's allocation heap when possible; when that fails
// (the very OOM we are reporting), it falls back to the kernel heap so the
// error can still be delivered.
func (vm *VM) newThrowable(t *interp.Thread, className, msg string) (*object.Object, error) {
	var cls *object.Class
	var err error
	if p, ok := t.Owner.(*Process); ok {
		cls, err = p.Loader.Class(className)
	} else {
		cls, err = vm.Shared.Class(className)
	}
	if err != nil {
		return nil, err
	}
	o, aerr := t.AllocHeap().Alloc(cls)
	if aerr != nil {
		o, aerr = vm.KernelHeap.Alloc(cls)
		if aerr != nil {
			return nil, aerr
		}
	}
	o.Data = msg
	return o, nil
}

// intern returns the per-process interned string for s (§3.3: interning is
// per process so user code cannot exhaust a global kernel table).
func (vm *VM) intern(t *interp.Thread, s string) (*object.Object, error) {
	p, ok := t.Owner.(*Process)
	if !ok {
		return vm.newString(t, s)
	}
	if o, hit := p.intern[s]; hit {
		return o, nil
	}
	o, err := vm.newString(t, s)
	if err != nil {
		return nil, err
	}
	p.intern[s] = o
	return o, nil
}

// newString allocates a string object charged with its character storage.
func (vm *VM) newString(t *interp.Thread, s string) (*object.Object, error) {
	var cls *object.Class
	var err error
	if p, ok := t.Owner.(*Process); ok {
		cls, err = p.Loader.Class("java/lang/String")
	} else {
		cls, err = vm.Shared.Class("java/lang/String")
	}
	if err != nil {
		return nil, err
	}
	h := t.AllocHeap()
	o, err := h.AllocExtra(cls, uint64(len(s)))
	if err != nil {
		if !isMemExceeded(err) {
			return nil, err
		}
		vm.collectHeapFor(t, h)
		o, err = h.AllocExtra(cls, uint64(len(s)))
		if err != nil {
			obj, terr := vm.newThrowable(t, interp.ClsOutOfMemory, err.Error())
			if terr != nil {
				return nil, terr
			}
			return nil, &interp.Thrown{Obj: obj}
		}
	}
	o.Data = s
	return o, nil
}

// collectHeapFor runs a collection of h, charging the GC cycles to the
// triggering thread (and hence its process): precise CPU accounting covers
// time spent garbage collecting a process' heap.
func (vm *VM) collectHeapFor(t *interp.Thread, h *heap.Heap) {
	if t != nil && t.ReqID != 0 {
		// Attribute the pause to the request whose thread triggered it —
		// the same full-charging rule process accounting uses (a pause is
		// never split across overlapping requests; DESIGN.md §11).
		h.SetRequester(t.ReqID)
		defer h.SetRequester(0)
	}
	res := vm.CollectHeap(h)
	if t != nil {
		t.Fuel -= int64(res.Cycles)
		t.Cycles += res.Cycles
		if t.Span != nil {
			t.Span.GCCycles += res.Cycles
		}
		// Record who paid: the gc.charged counter of the collected heap's
		// scope must, in a complete accounting, equal the gc.cycles the
		// pause histogram saw (asserted by TestGCAccountingComplete).
		if owner, ok := h.Owner.(*Process); ok {
			owner.ctrGCCharged.Add(res.Cycles)
		} else {
			vm.Tel.Reg.Kernel().Counter(telemetry.MGCCharged).Add(res.Cycles)
		}
	}
}

// CollectHeap collects any heap with the correct root set.
func (vm *VM) CollectHeap(h *heap.Heap) heap.GCResult {
	if h == vm.KernelHeap {
		return vm.CollectKernel()
	}
	if owner, ok := h.Owner.(*Process); ok {
		owner.pin()
		defer owner.unpin()
		res := h.Collect(owner.gcRoots())
		owner.resetGCTrigger()
		vm.reconcileShared(owner)
		return res
	}
	return h.Collect(vm.allStackRoots())
}

// CollectAll collects every live process heap on a pool of GOMAXPROCS
// worker goroutines, so independent collections overlap
// instead of queueing, then charges each owner, reconciles shared-heap
// accounting, and finishes with a kernel collection. It must only be
// called while the scheduler is idle (between Run calls): a heap's own
// mutator threads must be quiescent during its collection, which the
// worker pool does not arrange — it only exploits that different
// processes' heaps are independent.
func (vm *VM) CollectAll() []heap.GCResult {
	procs := vm.Processes()
	reqs := make([]heap.CollectRequest, len(procs))
	for i, p := range procs {
		// Unpinned on return: a kill inside a worker's collection reclaims
		// here, on the caller's goroutine, once every collection is done.
		p.pin()
		defer p.unpin()
		reqs[i] = heap.CollectRequest{Heap: p.Heap, Roots: p.gcRoots()}
	}
	results := vm.Reg.CollectConcurrent(reqs, 0)
	for i, p := range procs {
		res := results[i]
		p.chargeCPU(res.Cycles)
		p.ctrGCCharged.Add(res.Cycles)
		p.resetGCTrigger()
		vm.reconcileShared(p)
	}
	vm.CollectKernel()
	return results
}

// Rebalance runs one MemBalancer controller round: every running
// process' (live, alloc-rate) reading feeds the square-root rule, the
// global MemBudget is redistributed across their memlimits, and each
// process' GC trigger is retargeted to its new limit. No-op unless
// Cfg.MemBudget is set. Must be called from the goroutine driving the
// scheduler (the Charge hook calls it on its own every MemBalInterval
// cycles; tests and benchmarks may call it directly between Run slices).
func (vm *VM) Rebalance() []membal.Applied {
	if vm.ctl == nil {
		return nil
	}
	procs := vm.Processes()
	targets := make([]membal.Target, 0, len(procs))
	byPid := make(map[int32]*Process, len(procs))
	for _, p := range procs {
		if p.State() != ProcRunning {
			continue
		}
		targets = append(targets, membal.Target{
			ID:         int32(p.ID),
			Limit:      p.Limit,
			Live:       p.Heap.Bytes(),
			AllocBytes: p.Heap.Stats().AllocBytes,
		})
		byPid[int32(p.ID)] = p
	}
	applied := vm.ctl.Rebalance(vm.Sched.Now(), targets)
	for _, a := range applied {
		p := byPid[a.ID]
		p.setControlledTrigger(a.Trigger)
		vm.Tel.Reg.Proc(a.ID).Gauge(telemetry.MMemLimit).Set(a.Max)
	}
	// Kernel memory pressure evicts orphaned code artifacts: when the
	// processes' live bytes plus the cache's residency overrun the
	// controller's budget, zero-sharer artifacts are dropped (artifacts
	// with live sharers are never touched — a process' installed code
	// cannot vanish underneath it).
	if vm.CodeMgr != nil {
		var live uint64
		for _, t := range targets {
			live += t.Live
		}
		if live+vm.CodeMgr.ResidentBytes() > vm.Cfg.MemBudget {
			vm.CodeMgr.EvictOrphans()
		}
	}
	return applied
}

// Controller exposes the VM's memory balancer (nil unless Cfg.MemBudget
// is set) — read-only introspection for tests and the serving plane.
func (vm *VM) Controller() *membal.Controller { return vm.ctl }

// CollectKernel merges orphaned shared heaps, then collects the kernel
// heap. Kernel roots: shared-library statics, the process table, and every
// live thread's stack (stacks can hold kernel references directly).
func (vm *VM) CollectKernel() heap.GCResult {
	vm.SharedMgr.ReclaimOrphans(vm.KernelHeap)
	vm.mu.Lock()
	vm.kernelGC++
	vm.mu.Unlock()
	return vm.KernelHeap.Collect(func(visit func(*object.Object)) {
		vm.Shared.StaticsRoots(visit)
		vm.allStackRoots()(visit)
	})
}

// allStackRoots visits roots of every thread of every process.
func (vm *VM) allStackRoots() heap.RootFunc {
	return func(visit func(*object.Object)) {
		vm.mu.Lock()
		procs := make([]*Process, 0, len(vm.procs))
		for _, p := range vm.procs {
			procs = append(procs, p)
		}
		vm.mu.Unlock()
		for _, p := range procs {
			p.stackAndStaticRoots(visit)
		}
	}
}

// KernelGCs reports the number of kernel collections (test/metric hook).
func (vm *VM) KernelGCs() uint64 {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	return vm.kernelGC
}

// TelemetrySource is this VM's seat on the HTTP introspection surface
// (telemetry.Handler): its hub, its process table, and advisory invariant
// audits — numeric checks only, since a served VM may be mid-mutation.
func (vm *VM) TelemetrySource() telemetry.Source {
	return telemetry.Source{
		Hub:      vm.Tel,
		Snapshot: vm.Snapshot,
		Audit: func() (any, bool) {
			rep := vm.Audit(false)
			return rep, rep.OK()
		},
	}
}

// Snapshot captures a point-in-time telemetry view of the VM: the virtual
// clock, one row per process the VM has ever created (reclaimed processes
// keep their final metrics), and kernel-wide totals. Safe to call from any
// goroutine while the VM runs; live fields (state, threads, heap bytes)
// are joined in for processes still in the table.
func (vm *VM) Snapshot() telemetry.Snapshot {
	rows := vm.Tel.Reg.Rows(func(pid int32) (string, int, uint64, uint64, uint64, bool) {
		p, ok := vm.Process(Pid(pid))
		if !ok {
			if t, tok := vm.Template(Pid(pid)); tok {
				return "template", 0, t.Heap.Bytes(), t.Limit.Use(), vm.SharedMgr.BytesFor(t, shared.KindCode), true
			}
			return "", 0, 0, 0, 0, false
		}
		return p.State().String(), p.Threads(), p.HeapBytes(), p.MemUse(), vm.SharedMgr.BytesFor(p, shared.KindCode), true
	})
	return telemetry.Snapshot{
		NowCycles:    vm.Sched.Now(),
		NowMillis:    vm.Sched.NowMillis(),
		Procs:        rows,
		KernelGCs:    vm.KernelGCs(),
		Events:       vm.Tel.Trace.Total(),
		GCFastHits:   vm.Tel.Reg.Kernel().Counter(telemetry.MGCFastHits).Value(),
		GCFastMisses: vm.Tel.Reg.Kernel().Counter(telemetry.MGCFastMisses).Value(),
		GCOverlap:    uint64(vm.Reg.MaxConcurrentGCs()),
	}
}

// RegisterProgram makes a module spawnable by name via the Kernel.spawn
// syscall and Process creation.
func (vm *VM) RegisterProgram(name string, m *bytecode.Module) {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	vm.programs[name] = m
}

// Program looks up a registered program module.
func (vm *VM) Program(name string) (*bytecode.Module, bool) {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	m, ok := vm.programs[name]
	return m, ok
}

// Processes lists live processes sorted by pid.
func (vm *VM) Processes() []*Process {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	out := make([]*Process, 0, len(vm.procs))
	for _, p := range vm.procs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Process resolves a pid.
func (vm *VM) Process(pid Pid) (*Process, bool) {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	p, ok := vm.procs[pid]
	return p, ok
}

// Run drives the scheduler until no non-daemon threads remain or maxCycles
// elapse (0 = unbounded).
func (vm *VM) Run(maxCycles uint64) error {
	return vm.Sched.Run(maxCycles)
}

// RunUntil drives the scheduler until cond holds.
func (vm *VM) RunUntil(cond func() bool) error {
	return vm.Sched.RunUntil(cond)
}

// runClinits executes class initializers on a fresh bootstrap thread owned
// by p (nil = kernel bootstrap, kernel heap allocations).
func (vm *VM) runClinits(p *Process, clinits []*object.Method) error {
	if len(clinits) == 0 {
		return nil
	}
	t := vm.newThread(p)
	if p == nil {
		t.Heap = vm.KernelHeap
		t.EnterKernel()
		defer t.ExitKernel()
	}
	for _, m := range clinits {
		if err := t.PushFrame(m, nil); err != nil {
			return err
		}
		for t.Alive() {
			t.Fuel = 1 << 20
			res := vm.engine.Step(t)
			if res == interp.StepFinished {
				break
			}
			if res == interp.StepKilled {
				return fmt.Errorf("core: <clinit> of %s died: %v", m.Class.Name, t.Err)
			}
			if res == interp.StepBlocked {
				return fmt.Errorf("core: <clinit> of %s blocked", m.Class.Name)
			}
		}
		t.State = interp.StateRunnable // reuse for the next clinit
	}
	return nil
}

// newThread builds a thread owned by p (or the kernel when p is nil).
func (vm *VM) newThread(p *Process) *interp.Thread {
	vm.mu.Lock()
	vm.nextTid++
	id := vm.nextTid
	vm.mu.Unlock()
	t := &interp.Thread{
		ID:    id,
		Env:   vm.Env,
		State: interp.StateRunnable,
	}
	if p != nil {
		t.Owner = p
		t.Heap = p.Heap
	} else {
		t.Heap = vm.KernelHeap
	}
	return t
}

// onThreadExit is the scheduler's exit hook: it removes the thread from
// its process and reclaims the process when the last thread dies.
func (vm *VM) onThreadExit(t *interp.Thread, res interp.StepResult) {
	p, ok := t.Owner.(*Process)
	if !ok {
		return
	}
	p.threadExited(t, res)
}

func isMemExceeded(err error) bool {
	var ex *memlimit.ErrExceeded
	return errorsAs(err, &ex)
}
