package core

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/bytecode"
	"repro/internal/faults"
	"repro/internal/heap"
	"repro/internal/interp"
	"repro/internal/loader"
	"repro/internal/membal"
	"repro/internal/memlimit"
	"repro/internal/object"
	"repro/internal/telemetry"
)

// ProcState is a process' lifecycle state.
type ProcState uint8

const (
	ProcRunning ProcState = iota + 1
	ProcExited            // all threads returned normally
	ProcKilled            // terminated by Kill or a fatal error
	ProcReclaimed
)

func (s ProcState) String() string {
	switch s {
	case ProcRunning:
		return "running"
	case ProcExited:
		return "exited"
	case ProcKilled:
		return "killed"
	case ProcReclaimed:
		return "reclaimed"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// ProcessOptions configure process creation.
type ProcessOptions struct {
	// MemLimit caps the process' memory (objects, statics, interned
	// strings, entry/exit items, shared-heap charges). Default 16 MiB.
	MemLimit uint64
	// HardLimit reserves the memory up front instead of sharing the root
	// pool (a hard memlimit, §2 "Hierarchical memory management").
	HardLimit bool
	// CPULimit, when nonzero, kills the process once it has consumed this
	// many simulated cycles (including GC of its heap) — the OS-style
	// "CPU limits can be placed on the process" from the paper's §1.
	CPULimit uint64
	// IOLimit, when nonzero, caps the bytes the process may write to its
	// output stream. The paper leaves bandwidth control as future work
	// ("we plan to address other resources such as network bandwidth");
	// this is the accounting skeleton for it.
	IOLimit uint64
	// Out receives the process' System.out (default: the VM's Stdout).
	Out io.Writer
	// Seed seeds the per-process deterministic random source.
	Seed int64
}

// ErrCPULimit is the exit reason of a process that exceeded its CPU limit.
var ErrCPULimit = errors.New("core: CPU limit exceeded")

// ErrInjectedFault is the exit reason of a process killed by the fault-
// injection plane (Config.Faults).
var ErrInjectedFault = errors.New("core: injected fault")

// Process is one KaffeOS process.
type Process struct {
	ID   Pid
	Name string
	VM   *VM

	Limit  *memlimit.Limit
	Heap   *heap.Heap
	Loader *loader.Loader
	Out    io.Writer

	// state is atomic and nthreads mirrors len(threads) so that external
	// pollers (kaffeos top, the HTTP introspection endpoint) can read
	// State/Threads/CPUCycles/IOBytes without racing the running VM. The
	// threads/threadFor maps are mutated only on the scheduling goroutine
	// but read by Kill, which may run on any goroutine — mu guards every
	// map access and orders the state/exitErr/uncaught writes.
	mu        sync.Mutex
	state     atomic.Uint32 // holds a ProcState
	exitErr   error
	uncaught  *object.Object
	threads   map[*interp.Thread]struct{}
	threadFor map[*object.Object]*interp.Thread // java/lang/Thread objects
	nthreads  atomic.Int32
	// pins counts kernel sections in flight that need the heap and
	// namespace intact — collections of the heap, class initialization —
	// and reclaimPending records a kill that found the process threadless
	// while one ran. Reclamation merges the heap, which needs the gcMu an
	// in-flight collection holds, so the kernel defers it to the last
	// section's exit (§2, "Safe termination of processes"). Both under mu.
	pins           int
	reclaimPending bool
	intern         map[string]*object.Object
	// modules records every module defined into the namespace, in load
	// order, so Checkpoint can replay the namespace into forks.
	modules   []*bytecode.Module
	rng       *rand.Rand
	cpuCycles atomic.Uint64
	cpuLimit  uint64
	ioBytes   atomic.Uint64
	ioLimit   uint64

	// Cached per-process telemetry counters: the scheduler's charge hook
	// and the accounted writer bump these with one atomic add each.
	ctrCPU        *telemetry.Counter
	ctrIO         *telemetry.Counter
	ctrGCCharged  *telemetry.Counter
	ctrGCAdaptive *telemetry.Counter

	// gcTrigger is the heap size past which the scheduler's charge hook
	// collects the heap adaptively. Rearmed after every collection — from
	// the controller's target when one governs this process, else by the
	// local square-root rule; never below gcMinHeap. Read every quantum.
	gcTrigger atomic.Uint64
	// ctlTrigger, when nonzero, is the memory-balancer controller's limit
	// for this heap: resetGCTrigger uses it instead of computing a local
	// target, so the controller's budget split survives collections until
	// the next rebalance round overwrites it.
	ctlTrigger atomic.Uint64
	// lastGCAlloc/lastGCCycles checkpoint the heap's cumulative allocation
	// counter and the virtual clock at the previous trigger reset, giving
	// the local square-root rule its allocation-rate estimate.
	lastGCAlloc  atomic.Uint64
	lastGCCycles atomic.Uint64
	// forkMu serializes reclamation against Checkpoint: a checkpoint of a
	// dying process either completes from the still-live heap and namespace
	// before reclamation proceeds, or observes the process dead and aborts.
	// Order: forkMu → (heap gcMu → crossMu → mu → memlimit → Space).
	forkMu sync.Mutex
	// reclaiming admits exactly one reclaimer (threadExited's scheduler
	// path vs Kill's inline threadless path).
	reclaiming atomic.Bool
	// handles other processes hold on this one do not keep its heap
	// alive; the process table entry is the only kernel-side state.
}

// NewProcess creates a process: its own memlimit, heap, namespace (with
// the reloaded library classes defined and initialized), and interning
// table. No threads run yet; use Spawn to start one.
func (vm *VM) NewProcess(name string, opts ProcessOptions) (*Process, error) {
	if opts.MemLimit == 0 {
		opts.MemLimit = 16 << 20
	}
	lim, err := vm.RootLimit.NewChild("proc:"+name, opts.MemLimit, opts.HardLimit)
	if err != nil {
		return nil, fmt.Errorf("core: memlimit for %q: %w", name, err)
	}
	vm.mu.Lock()
	vm.nextPid++
	pid := vm.nextPid
	vm.mu.Unlock()

	p := &Process{
		ID:        pid,
		Name:      name,
		VM:        vm,
		Limit:     lim,
		Out:       opts.Out,
		threads:   make(map[*interp.Thread]struct{}),
		threadFor: make(map[*object.Object]*interp.Thread),
		intern:    make(map[string]*object.Object),
		rng:       rand.New(rand.NewSource(opts.Seed + int64(pid))),
		cpuLimit:  opts.CPULimit,
		ioLimit:   opts.IOLimit,
	}
	p.state.Store(uint32(ProcRunning))
	p.gcTrigger.Store(gcMinHeap)
	scope := vm.Tel.Reg.Proc(int32(pid))
	p.ctrCPU = scope.Counter(telemetry.MCPUCycles)
	p.ctrIO = scope.Counter(telemetry.MIOBytes)
	p.ctrGCCharged = scope.Counter(telemetry.MGCCharged)
	p.ctrGCAdaptive = scope.Counter(telemetry.MGCAdaptive)
	scope.Gauge(telemetry.MMemLimit).Set(opts.MemLimit)
	// The process object itself is large and lives on the *new* heap; the
	// kernel keeps only the small process-table entry (§2, "Precise memory
	// and CPU accounting").
	p.Heap = vm.Reg.NewOwnedHeap(heap.KindUser, fmt.Sprintf("proc:%s#%d", name, pid), lim, p, int32(pid))
	p.emit(telemetry.EvProcCreate, opts.MemLimit, 0, name)
	p.Loader = loader.NewProcess(fmt.Sprintf("%s#%d", name, pid), p.Heap, vm.Shared)
	p.Loader.RegisterNatives(vm.Lib.Natives, vm.Lib.Kernel)

	if err := vm.defineModule(p, vm.Lib.ReloadedModule); err != nil {
		p.releaseEarly()
		return nil, fmt.Errorf("core: reloaded library for %q: %w", name, err)
	}
	if err := p.initClasses(); err != nil {
		p.releaseEarly()
		return nil, fmt.Errorf("core: library clinit for %q: %w", name, err)
	}
	p.modules = append(p.modules, vm.Lib.ReloadedModule)
	if err := vm.attachCachedCode(p, p.Limit, vm.Lib.ReloadedModule); err != nil {
		p.releaseEarly()
		return nil, fmt.Errorf("core: code cache for %q: %w", name, err)
	}

	vm.mu.Lock()
	vm.procs[pid] = p
	vm.mu.Unlock()
	return p, nil
}

// releaseEarly tears down a half-built process (creation failure); a
// no-op when a kill during creation already reclaimed it.
func (p *Process) releaseEarly() {
	if !p.reclaiming.CompareAndSwap(false, true) {
		return
	}
	p.VM.SharedMgr.DetachAll(p)
	_ = p.Heap.MergeInto(p.VM.KernelHeap)
	p.Limit.Release()
	p.state.Store(uint32(ProcReclaimed))
	p.emit(telemetry.EvProcReclaim, 0, 0, "creation failed")
}

// emit forwards a lifecycle event, stamped with this process' pid, to the
// VM's telemetry hub.
func (p *Process) emit(k telemetry.Kind, a, b uint64, detail string) {
	p.VM.Tel.Emit(telemetry.Event{Kind: k, Pid: int32(p.ID), A: a, B: b, Detail: detail})
}

// TelemetryPid lets layers that hold the process as an opaque owner
// (scheduler, shared-heap manager) recover its pid for event stamping.
func (p *Process) TelemetryPid() int32 { return int32(p.ID) }

// State reports the lifecycle state. Safe to call from any goroutine.
func (p *Process) State() ProcState { return ProcState(p.state.Load()) }

// ExitError reports why the process died (nil for a normal exit).
func (p *Process) ExitError() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.exitErr
}

// Uncaught reports the throwable that killed the process, if any.
func (p *Process) Uncaught() *object.Object {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.uncaught
}

// CPUCycles reports the simulated cycles charged to this process,
// including GC of its heap. Safe to call from any goroutine.
func (p *Process) CPUCycles() uint64 { return p.cpuCycles.Load() }

// chargeCPU adds cycles to the process' CPU account and telemetry.
func (p *Process) chargeCPU(cycles uint64) {
	p.cpuCycles.Add(cycles)
	p.ctrCPU.Add(cycles)
}

// IOBytes reports the bytes the process has written to its output stream.
// Safe to call from any goroutine.
func (p *Process) IOBytes() uint64 { return p.ioBytes.Load() }

// accountedWriter wraps a process' output: every byte is accounted, and
// an IOLimit overrun kills the writer at its next safepoint.
type accountedWriter struct {
	p     *Process
	inner io.Writer
}

func (w *accountedWriter) Write(b []byte) (int, error) {
	total := w.p.ioBytes.Add(uint64(len(b)))
	w.p.ctrIO.Add(uint64(len(b)))
	if w.p.ioLimit > 0 && total > w.p.ioLimit && w.p.State() == ProcRunning {
		w.p.Kill(ErrIOLimit)
		return len(b), nil // the write that crossed the line is dropped downstream
	}
	if w.inner == nil {
		return len(b), nil
	}
	return w.inner.Write(b)
}

// ErrIOLimit is the exit reason of a process that exceeded its I/O limit.
var ErrIOLimit = errors.New("core: I/O limit exceeded")

// HeapBytes reports the process heap's live bytes.
func (p *Process) HeapBytes() uint64 { return p.Heap.Bytes() }

// MemUse reports the process' total accounted memory (heap + charges).
func (p *Process) MemUse() uint64 { return p.Limit.Use() }

// Threads reports the number of live threads. Safe to call from any
// goroutine.
func (p *Process) Threads() int { return int(p.nthreads.Load()) }

// Load defines a program module into the process namespace and runs its
// class initializers.
func (p *Process) Load(m *bytecode.Module) error {
	if s := p.State(); s != ProcRunning {
		return fmt.Errorf("core: load into %s process", s)
	}
	if err := p.VM.defineModule(p, m); err != nil {
		return err
	}
	if err := p.initClasses(); err != nil {
		return err
	}
	p.mu.Lock()
	p.modules = append(p.modules, m)
	p.mu.Unlock()
	// Attach (or compile into) the shared code cache last: the module is
	// already defined and recorded, so a failed attach — memlimit, or
	// the codecache.attach fault site — leaves a consistent namespace
	// with no cached code and no residual charge; the error tells the
	// caller the load did not complete as configured.
	if err := p.VM.attachCachedCode(p, p.Limit, m); err != nil {
		return err
	}
	return nil
}

// initClasses runs the namespace's pending class initializers as one
// pinned kernel section: a kill landing meanwhile (say, a heap.mark fault
// in a clinit-time collection) takes effect when the section ends, and the
// initialization reports it.
func (p *Process) initClasses() error {
	p.pin()
	err := p.VM.runClinits(p, p.Loader.PendingClinits())
	if s := p.State(); err == nil && s != ProcRunning {
		err = fmt.Errorf("core: process %s during class initialization", s)
	}
	p.unpin()
	return err
}

// pin enters a kernel section that needs p's heap and namespace intact.
func (p *Process) pin() {
	p.mu.Lock()
	p.pins++
	p.mu.Unlock()
}

// unpin leaves one; the last to leave runs a reclamation a kill deferred.
func (p *Process) unpin() {
	p.mu.Lock()
	p.pins--
	run := p.pins == 0 && p.reclaimPending
	if run {
		p.reclaimPending = false
	}
	p.mu.Unlock()
	if run {
		p.reclaim()
	}
}

// LoadProgram loads a program registered with the VM.
func (p *Process) LoadProgram(name string) error {
	m, ok := p.VM.Program(name)
	if !ok {
		return fmt.Errorf("core: no program %q", name)
	}
	return p.Load(m)
}

// Spawn starts a thread executing cls.method (a static method taking no
// arguments or a single int).
func (p *Process) Spawn(cls, methodKey string, args ...interp.Slot) (*interp.Thread, error) {
	return p.spawn(cls, methodKey, false, args)
}

// SpawnDaemon is Spawn for daemon threads: the thread belongs to the
// process (it is killed and reclaimed with it) but does not keep the
// scheduler running on its own. The serving plane uses it for per-tenant
// keep-alive threads, so an idle server leaves the VM with no runnable
// work instead of a spinning sleep loop.
func (p *Process) SpawnDaemon(cls, methodKey string, args ...interp.Slot) (*interp.Thread, error) {
	return p.spawn(cls, methodKey, true, args)
}

func (p *Process) spawn(cls, methodKey string, daemon bool, args []interp.Slot) (*interp.Thread, error) {
	if s := p.State(); s != ProcRunning {
		return nil, fmt.Errorf("core: spawn in %s process", s)
	}
	c, err := p.Loader.Class(cls)
	if err != nil {
		return nil, err
	}
	m, ok := c.MethodByKey(methodKey)
	if !ok {
		return nil, fmt.Errorf("core: no method %s.%s", cls, methodKey)
	}
	t := p.VM.newThread(p)
	t.Daemon = daemon
	if err := t.PushFrame(m, args); err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.threads[t] = struct{}{}
	p.mu.Unlock()
	p.nthreads.Add(1)
	p.VM.Sched.Add(t)
	p.emit(telemetry.EvThreadSpawn, uint64(t.ID), 0, cls+"."+methodKey)
	if p.VM.Cfg.Faults.Fire(faults.SiteProcSpawn) {
		// Race a kill against the newborn thread: it must die at its first
		// safepoint and the process must still reclaim fully.
		p.Kill(ErrInjectedFault)
	}
	return t, nil
}

// spawnThreadObject implements java/lang/Thread.start: run the object's
// run()V on a new green thread of the same process.
func (p *Process) spawnThreadObject(threadObj *object.Object) error {
	m, ok := threadObj.Class.MethodByKey("run()V")
	if !ok {
		return fmt.Errorf("core: %s has no run()V", threadObj.Class.Name)
	}
	t := p.VM.newThread(p)
	if err := t.PushFrame(m, []interp.Slot{interp.RefSlot(threadObj)}); err != nil {
		return err
	}
	if df, ok := threadObj.Class.FieldByName("daemon"); ok && !df.Ref {
		t.Daemon = threadObj.Prims[df.Slot] != 0
	}
	p.mu.Lock()
	p.threads[t] = struct{}{}
	p.threadFor[threadObj] = t
	p.mu.Unlock()
	p.nthreads.Add(1)
	p.VM.Sched.Add(t)
	p.emit(telemetry.EvThreadSpawn, uint64(t.ID), 0, threadObj.Class.Name+".run()V")
	if p.VM.Cfg.Faults.Fire(faults.SiteProcSpawn) {
		p.Kill(ErrInjectedFault)
	}
	return nil
}

// Kill requests termination of every thread. User-mode code dies at its
// next safepoint; kernel-mode sections finish first (§2, "Safe termination
// of processes"). Reclamation happens when the last thread exits.
//
// Kill is idempotent and safe to call from any goroutine, concurrently
// with itself: the state CAS admits exactly one caller, so exactly one
// EvProcKill is emitted per process, and the thread set is snapshotted
// under mu so a concurrent spawn or exit cannot race the iteration.
func (p *Process) Kill(reason error) {
	if !p.transition(ProcRunning, ProcKilled, reason, nil) {
		return
	}
	why := ""
	if reason != nil {
		why = reason.Error()
	}
	p.emit(telemetry.EvProcKill, 0, 0, why)
	p.mu.Lock()
	ts := make([]*interp.Thread, 0, len(p.threads))
	for t := range p.threads {
		ts = append(ts, t)
	}
	// A threadless process has no exit hook left to reclaim it (nothing
	// will ever call threadExited): reclaim inline, so killing an idle
	// warmed process — e.g. a checkpoint origin between Run slices — is
	// deterministic rather than leaking until VM teardown. Inside a pinned
	// section (the kill may come from the process' own collector) the
	// section's exit reclaims instead.
	deferred := len(ts) == 0 && p.pins > 0
	if deferred {
		p.reclaimPending = true
	}
	p.mu.Unlock()
	for _, t := range ts {
		t.Kill()
	}
	if len(ts) == 0 && !deferred {
		p.reclaim()
	}
}

// transition moves the process from one state to another, recording the
// exit reason on the first terminal transition. It reports whether the
// transition happened (false if the state was not `from`).
func (p *Process) transition(from, to ProcState, reason error, uncaught *object.Object) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.state.CompareAndSwap(uint32(from), uint32(to)) {
		return false
	}
	if p.exitErr == nil {
		p.exitErr = reason
	}
	if p.uncaught == nil {
		p.uncaught = uncaught
	}
	return true
}

// threadExited is called by the scheduler's exit hook.
func (p *Process) threadExited(t *interp.Thread, res interp.StepResult) {
	if p.VM.Cfg.Faults.Fire(faults.SiteProcTerminate) {
		// Race a kill against this thread's own exit: if it was the last
		// thread, the process reclaims as killed rather than exited, and
		// either way every invariant must hold.
		p.Kill(ErrInjectedFault)
	}
	p.mu.Lock()
	delete(p.threads, t)
	for obj, th := range p.threadFor {
		if th == t {
			delete(p.threadFor, obj)
		}
	}
	remaining := len(p.threads)
	p.mu.Unlock()
	p.nthreads.Add(-1)
	if res == interp.StepKilled && p.transition(ProcRunning, ProcKilled, t.Err, t.Uncaught) {
		// An uncaught throwable (or VM fault) in any thread kills the
		// whole process, like an uncaught signal.
		why := ""
		if t.Err != nil {
			why = t.Err.Error()
		}
		p.emit(telemetry.EvProcKill, uint64(t.ID), 0, why)
		p.mu.Lock()
		others := make([]*interp.Thread, 0, len(p.threads))
		for other := range p.threads {
			others = append(others, other)
		}
		p.mu.Unlock()
		for _, other := range others {
			other.Kill()
		}
	}
	if remaining == 0 {
		if p.transition(ProcRunning, ProcExited, nil, nil) {
			p.emit(telemetry.EvProcExit, 0, 0, "")
		}
		p.reclaim()
	}
}

// reclaim implements full reclamation of memory (§2): merge the process
// heap into the kernel heap, destroy exit items, unload the namespace,
// release shared-heap charges, and let the kernel collector take it all.
func (p *Process) reclaim() {
	if !p.reclaiming.CompareAndSwap(false, true) {
		return
	}
	// Serialize against Checkpoint: a checkpoint holding forkMu finishes
	// its copy of the heap and namespace before we tear them down.
	p.forkMu.Lock()
	defer p.forkMu.Unlock()
	finalState := p.State()
	if finalState == ProcReclaimed {
		return
	}
	vm := p.VM
	vm.SharedMgr.DetachAll(p)
	vm.SharedMgr.UnfrozenOwnedBy(p.Limit, vm.KernelHeap)
	p.intern = make(map[string]*object.Object)
	p.Loader.Unload()
	merged := p.Heap.Bytes()
	if err := p.Heap.MergeInto(vm.KernelHeap); err != nil {
		// Merging can only fail if the kernel cannot absorb the bytes;
		// collect the kernel heap and retry once.
		vm.CollectKernel()
		_ = p.Heap.MergeInto(vm.KernelHeap)
	}
	p.state.Store(uint32(ProcReclaimed))
	p.emit(telemetry.EvProcReclaim, merged, 0, finalState.String())

	vm.mu.Lock()
	delete(vm.procs, p.ID)
	vm.mu.Unlock()

	// The kernel collection reclaims everything the process left behind,
	// including user/kernel garbage cycles.
	vm.CollectKernel()
	if p.Limit.Use() == 0 {
		p.Limit.Release()
	}
}

// gcRoots enumerates the process heap's roots: thread stacks, statics of
// its namespace, interned strings, and the kernel-side process handle.
func (p *Process) gcRoots() heap.RootFunc {
	return func(visit func(*object.Object)) {
		p.stackAndStaticRoots(visit)
		for _, o := range p.intern {
			visit(o)
		}
	}
}

func (p *Process) stackAndStaticRoots(visit func(*object.Object)) {
	for t := range p.threads {
		t.Roots(visit)
	}
	p.Loader.StaticsRoots(visit)
}

// Collect runs a GC of this process' heap. The cycles are charged to the
// process directly — even externally-triggered collections of a heap are
// paid for by its owner, so CPU accounting stays complete (§2, "Precise
// memory and CPU accounting").
func (p *Process) Collect() heap.GCResult {
	p.pin()
	defer p.unpin()
	res := p.Heap.Collect(p.gcRoots())
	p.resetGCTrigger()
	p.chargeCPU(res.Cycles)
	p.ctrGCCharged.Add(res.Cycles)
	return res
}

// CollectAttributed is Collect with the pause's telemetry stamped with a
// request id: the serving plane uses it for collections a request forces
// outside thread execution (admission-pressure and marshal-retry GCs), so
// those pauses land in the same ledger as trigger-driven ones.
func (p *Process) CollectAttributed(req uint64) heap.GCResult {
	if req != 0 {
		p.Heap.SetRequester(req)
		defer p.Heap.SetRequester(0)
	}
	return p.Collect()
}

// setControlledTrigger installs the memory-balancer controller's limit as
// this process' GC trigger. Called from the VM's Rebalance (scheduler
// goroutine); read from resetGCTrigger on the same goroutine and from
// external pollers via the atomic.
func (p *Process) setControlledTrigger(t uint64) {
	if t < gcMinHeap {
		t = gcMinHeap
	}
	p.ctlTrigger.Store(t)
	p.gcTrigger.Store(t)
}

// resetGCTrigger rearms the adaptive collection trigger after a collection
// of this process' heap. When the memory-balancer controller governs this
// process, its last target stands until the next rebalance round. Otherwise
// the local square-root rule applies: live + √(live × rate × horizon), the
// single-heap MemBalancer limit, degrading to the classic 2× growth trigger
// when no allocation rate is known yet. Never below gcMinHeap.
func (p *Process) resetGCTrigger() {
	next := p.ctlTrigger.Load()
	if next == 0 {
		live := p.Heap.Bytes()
		alloc := p.Heap.Stats().AllocBytes
		now := p.VM.Sched.Now()
		lastAlloc := p.lastGCAlloc.Swap(alloc)
		lastCycles := p.lastGCCycles.Swap(now)
		var rate float64
		if lastCycles != 0 && now > lastCycles && alloc >= lastAlloc {
			rate = float64(alloc-lastAlloc) / float64(now-lastCycles)
		}
		next = live + membal.SqrtExtra(live, rate, gcSqrtHorizon)
	}
	if next < gcMinHeap {
		next = gcMinHeap
	}
	p.gcTrigger.Store(next)
}

// errorsAs adapts errors.As for the vm.go helper.
func errorsAs(err error, target any) bool {
	switch t := target.(type) {
	case **memlimit.ErrExceeded:
		return errors.As(err, t)
	}
	return false
}
