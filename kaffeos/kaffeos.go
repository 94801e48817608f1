// Package kaffeos is the public API of the KaffeOS reproduction: a Java-
// style virtual machine with an operating-system process model.
//
// A VM hosts isolated processes. Each process has its own garbage-
// collected heap under a hierarchical memory limit, its own class
// namespace and interned strings, and green threads whose CPU cycles —
// including garbage-collection time — are charged to it. Processes can be
// killed at any time without corrupting the system: their memory is fully
// reclaimed by merging their heap into the kernel heap. Processes
// communicate through frozen shared heaps, with every sharer charged the
// full size of what it holds.
//
// Programs are written in the textual bytecode accepted by the assembler
// (see package repro/internal/bytecode) and run against a miniature Java
// class library. The quickstart:
//
//	vm, _ := kaffeos.New(kaffeos.Config{})
//	p, _ := vm.NewProcess("hello", kaffeos.ProcessConfig{MemLimit: 1 << 20})
//	_ = p.LoadSource(src)
//	_, _ = p.Start("app/Main")
//	_ = vm.Run()
package kaffeos

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/audit"
	"repro/internal/barrier"
	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/interp"
	"repro/internal/telemetry"
)

// Engine names an execution engine.
type Engine string

// The two engines, spanning the paper's platform spectrum.
const (
	// Interp is the switch interpreter (Kaffe00-class). Default.
	Interp Engine = "interp"
	// JITOpt overlays compiled statements on the interpreter
	// (commercial-JIT class).
	JITOpt Engine = "jit-opt"
)

// WriteBarrier names a write-barrier implementation from the paper's §4.1.
type WriteBarrier string

const (
	// NoWriteBarrier disables cross-heap checking (unsafe baseline; only
	// sensible for benchmarking).
	NoWriteBarrier WriteBarrier = "NoWriteBarrier"
	// HeapPointer finds an object's heap from a header word (25 cycles,
	// +4 bytes per object).
	HeapPointer WriteBarrier = "HeapPointer"
	// NoHeapPointer finds it from the page table (41 cycles, no space
	// cost). The default, as shipped in KaffeOS.
	NoHeapPointer WriteBarrier = "NoHeapPointer"
	// FakeHeapPointer is NoHeapPointer plus 4 bytes of padding, isolating
	// the space cost of HeapPointer.
	FakeHeapPointer WriteBarrier = "FakeHeapPointer"
)

// Config parameterizes a VM.
type Config struct {
	// Engine selects the execution engine (default Interp).
	Engine Engine
	// Barrier selects the write barrier (default NoHeapPointer).
	Barrier WriteBarrier
	// TotalMemory is the whole VM's memory budget (default 256 MiB).
	TotalMemory uint64
	// KernelMemory is reserved for the kernel heap (default 32 MiB).
	KernelMemory uint64
	// GCWorkers bounds the pool used to collect independent process heaps
	// concurrently (0 = GOMAXPROCS).
	GCWorkers int
	// Stdout receives process output by default.
	Stdout io.Writer
	// Faults, when non-empty, arms the deterministic fault-injection plane
	// with a plan spec such as "seed=7,heap.alloc=0.01,sched.kill=@50" or
	// "all=0.005" (see repro/internal/faults for the grammar). Injected
	// faults surface only through paths real failures use — allocation
	// failures, segmentation violations, kills at safepoints — so the VM
	// must stay fully consistent under them (verify with Audit). Empty
	// disables injection at zero cost.
	Faults string
	// MemBudget, when nonzero, turns on the MemBalancer memory controller:
	// the budget is periodically redistributed across all process memlimits
	// in proportion to √(live × allocation-rate), instead of every process
	// keeping its static MemLimit ceiling.
	MemBudget uint64
	// MemBalInterval is the controller period in virtual cycles
	// (default 500,000 = 1 virtual ms). Only meaningful with MemBudget.
	MemBalInterval uint64
	// CodeCache, with a compiling engine, shares JIT-compiled code across
	// processes: one immutable artifact per (module content, engine
	// configuration) pair, each sharing process charged the artifact's
	// full size against its memlimit. No-op for interpreter engines.
	CodeCache bool
}

// ProcessConfig parameterizes process creation.
type ProcessConfig struct {
	// MemLimit caps the process' total memory (default 16 MiB).
	MemLimit uint64
	// Reserve makes the limit a hard reservation, set aside up front.
	Reserve bool
	// CPULimit, when nonzero, kills the process after it has consumed
	// this many simulated cycles (500,000 cycles = 1 virtual ms).
	CPULimit uint64
	// IOLimit, when nonzero, kills the process after it has written this
	// many bytes to its output stream.
	IOLimit uint64
	// Stdout overrides the VM default for this process.
	Stdout io.Writer
	// Seed seeds the process' deterministic random source.
	Seed int64
}

func (cfg ProcessConfig) options() core.ProcessOptions {
	return core.ProcessOptions{
		MemLimit:  cfg.MemLimit,
		HardLimit: cfg.Reserve,
		CPULimit:  cfg.CPULimit,
		IOLimit:   cfg.IOLimit,
		Out:       cfg.Stdout,
		Seed:      cfg.Seed,
	}
}

// VM is a KaffeOS virtual machine.
type VM struct {
	inner *core.VM
}

// New creates a VM.
func New(cfg Config) (*VM, error) {
	var bar barrier.Barrier = barrier.NoHeapPointer
	if cfg.Barrier != "" {
		b, ok := barrier.ByName(string(cfg.Barrier))
		if !ok {
			return nil, fmt.Errorf("kaffeos: unknown write barrier %q", cfg.Barrier)
		}
		bar = b
	}
	eng := core.EngineInterp
	switch cfg.Engine {
	case "", Interp:
	case JITOpt:
		eng = core.EngineJITOpt
	default:
		return nil, fmt.Errorf("kaffeos: unknown engine %q", cfg.Engine)
	}
	var plane *faults.Plane
	if cfg.Faults != "" {
		plan, perr := faults.ParsePlan(cfg.Faults)
		if perr != nil {
			return nil, fmt.Errorf("kaffeos: %w", perr)
		}
		plane = faults.NewPlane(plan)
	}
	inner, err := core.NewVM(core.Config{
		Engine:         eng,
		Barrier:        bar,
		TotalMemory:    cfg.TotalMemory,
		KernelMemory:   cfg.KernelMemory,
		GCWorkers:      cfg.GCWorkers,
		Stdout:         cfg.Stdout,
		Faults:         plane,
		MemBudget:      cfg.MemBudget,
		MemBalInterval: cfg.MemBalInterval,
		CodeCache:      cfg.CodeCache,
	})
	if err != nil {
		return nil, err
	}
	return &VM{inner: inner}, nil
}

// Core exposes the underlying VM for advanced use (benchmark harnesses).
func (vm *VM) Core() *core.VM { return vm.inner }

// NewProcess creates an isolated process.
func (vm *VM) NewProcess(name string, cfg ProcessConfig) (*Process, error) {
	p, err := vm.inner.NewProcess(name, cfg.options())
	if err != nil {
		return nil, err
	}
	return &Process{inner: p}, nil
}

// RegisterProgram makes an assembled module spawnable by name through the
// kaffeos/Kernel.spawn system call.
func (vm *VM) RegisterProgram(name, source string) error {
	m, err := bytecode.Assemble(source)
	if err != nil {
		return err
	}
	vm.inner.RegisterProgram(name, m)
	return nil
}

// Run drives the scheduler until every non-daemon thread exits.
func (vm *VM) Run() error { return vm.inner.Run(0) }

// RunFor drives the scheduler for at most the given number of simulated
// CPU cycles (500,000 cycles = 1 virtual millisecond).
func (vm *VM) RunFor(cycles uint64) error { return vm.inner.Run(cycles) }

// RunUntil drives the scheduler until cond reports true.
func (vm *VM) RunUntil(cond func() bool) error { return vm.inner.RunUntil(cond) }

// NowMillis reports the virtual clock.
func (vm *VM) NowMillis() uint64 { return vm.inner.Sched.NowMillis() }

// Telemetry exposes the VM's telemetry hub: the always-on metrics
// registry plus the opt-in event tracer. See package
// repro/internal/telemetry for the event and metric taxonomy.
func (vm *VM) Telemetry() *telemetry.Hub { return vm.inner.Tel }

// SetTracing switches event tracing on or off. Metrics accumulate either
// way; the trace ring fills only while tracing is on.
func (vm *VM) SetTracing(on bool) { vm.inner.Tel.SetTracing(on) }

// Snapshot captures a point-in-time view of every process (reclaimed ones
// included) plus kernel totals. Safe to call from any goroutine.
func (vm *VM) Snapshot() telemetry.Snapshot { return vm.inner.Snapshot() }

// GCAll collects every live process heap on the VM's GC worker pool
// (Config.GCWorkers wide), then the kernel heap. It must be called
// between Run calls, while no thread executes.
func (vm *VM) GCAll() { vm.inner.CollectAll() }

// ServeTelemetry starts the HTTP introspection endpoint on addr (":0"
// picks a free port) and returns the bound address. Routes: /metrics
// (Prometheus), /procs and /audit (JSON), /trace and /spans (JSON lines),
// /ps (plain-text table), /debug/pprof/ — see telemetry.Handler.
func (vm *VM) ServeTelemetry(addr string) (string, error) {
	return telemetry.Serve(addr, []telemetry.Source{vm.inner.TelemetrySource()})
}

// Audit re-derives the kernel's accounting books from a globally
// consistent snapshot — heaps, entry/exit items, the memlimit tree, the
// page table, and the sharing ledger — and reports every invariant that
// does not hold. graph additionally checks the object graph (cross-heap
// legality, exit-item backing, no dangling references) and requires the
// scheduler to be idle. A healthy VM reports no violations no matter what
// the fault plane has injected.
func (vm *VM) Audit(graph bool) *audit.Report { return vm.inner.Audit(graph) }

// FaultSummary renders the fault plane's per-site hit/fire counters, or ""
// when injection is disabled.
func (vm *VM) FaultSummary() string {
	if vm.inner.Cfg.Faults == nil {
		return ""
	}
	return vm.inner.Cfg.Faults.Summary()
}

// KernelHeapBytes reports live bytes on the kernel heap.
func (vm *VM) KernelHeapBytes() uint64 { return vm.inner.KernelHeap.Bytes() }

// BarriersExecuted reports the number of write-barrier checks performed.
func (vm *VM) BarriersExecuted() uint64 { return vm.inner.Stats.Executed.Load() }

// Processes lists live processes.
func (vm *VM) Processes() []*Process {
	inner := vm.inner.Processes()
	out := make([]*Process, len(inner))
	for i, p := range inner {
		out[i] = &Process{inner: p}
	}
	return out
}

// Checkpoint freezes a warmed, quiescent process (loaded modules, run
// clinits, no live threads) into an immutable template. The origin keeps
// running — or can be killed — independently; the template stands on its
// own until Release.
func (vm *VM) Checkpoint(p *Process, name string) (*Template, error) {
	tpl, err := vm.inner.Checkpoint(p.inner, name)
	if err != nil {
		return nil, err
	}
	return &Template{inner: tpl, vm: vm}, nil
}

// Templates lists live templates.
func (vm *VM) Templates() []*Template {
	inner := vm.inner.Templates()
	out := make([]*Template, len(inner))
	for i, tpl := range inner {
		out[i] = &Template{inner: tpl, vm: vm}
	}
	return out
}

// Template is a frozen process image: the heap snapshot, loaded classes
// and initialized statics of a checkpointed process. Fork stamps out
// fresh, fully isolated processes from it without re-running class
// initialization — the warmup is paid once, at checkpoint time.
type Template struct {
	inner *core.Template
	vm    *VM
}

// Pid reports the template's id (templates share the pid space with
// processes; `kaffeos ps` shows them in state "template").
func (t *Template) Pid() int32 { return int32(t.inner.ID) }

// Name reports the template name.
func (t *Template) Name() string { return t.inner.Name }

// Bytes reports the frozen image's heap size — also exactly what every
// fork charges its clone's memory limit up front.
func (t *Template) Bytes() uint64 { return t.inner.Bytes() }

// Fork stamps out a new isolated process from the template: new pid,
// fresh memlimit charged in full for the copied image, own class
// namespace bound to the copied statics. The clone starts quiescent;
// Start/StartMethod run code in it like any other process.
func (t *Template) Fork(name string, cfg ProcessConfig) (*Process, error) {
	p, err := t.inner.Fork(name, cfg.options())
	if err != nil {
		return nil, err
	}
	return &Process{inner: p}, nil
}

// Release destroys the template and returns every byte it held.
// Idempotent; forked processes are unaffected.
func (t *Template) Release() error { return t.inner.Release() }

// Process is one isolated KaffeOS process.
type Process struct {
	inner *core.Process
}

// Pid reports the process id.
func (p *Process) Pid() int32 { return int32(p.inner.ID) }

// Name reports the process name.
func (p *Process) Name() string { return p.inner.Name }

// LoadSource assembles and loads a program into the process namespace.
func (p *Process) LoadSource(src string) error {
	m, err := bytecode.Assemble(src)
	if err != nil {
		return err
	}
	return p.inner.Load(m)
}

// LoadModule loads a pre-assembled module.
func (p *Process) LoadModule(m *bytecode.Module) error { return p.inner.Load(m) }

// Start spawns a thread running the static, argumentless main()V (or
// main()I) of the given class.
func (p *Process) Start(mainClass string) (*Thread, error) {
	for _, key := range []string{"main()V", "main()I", "run()I", "run()V"} {
		th, err := p.inner.Spawn(mainClass, key)
		if err == nil {
			return &Thread{inner: th}, nil
		}
	}
	return nil, fmt.Errorf("kaffeos: %s has no runnable entry point (main()V/main()I/run()I/run()V)", mainClass)
}

// StartMethod spawns a thread on an explicit method key, e.g. "work(I)I".
func (p *Process) StartMethod(cls, methodKey string, args ...int64) (*Thread, error) {
	slots := make([]interp.Slot, len(args))
	for i, a := range args {
		slots[i] = interp.IntSlot(a)
	}
	th, err := p.inner.Spawn(cls, methodKey, slots...)
	if err != nil {
		return nil, err
	}
	return &Thread{inner: th}, nil
}

// Kill terminates the process at the next safepoint of each of its
// threads; kernel-mode sections complete first. Memory is fully reclaimed.
func (p *Process) Kill() { p.inner.Kill(errors.New("killed")) }

// Alive reports whether the process is still running.
func (p *Process) Alive() bool { return p.inner.State() == core.ProcRunning }

// Exited reports whether the process ended normally.
func (p *Process) Exited() bool {
	return p.inner.State() == core.ProcReclaimed && p.inner.ExitError() == nil && p.inner.Uncaught() == nil
}

// FailureClass reports the class name of the uncaught throwable that
// killed the process, or "".
func (p *Process) FailureClass() string {
	if u := p.inner.Uncaught(); u != nil {
		return u.Class.Name
	}
	return ""
}

// MemUse reports accounted bytes (heap + shared-heap charges + metadata).
func (p *Process) MemUse() uint64 { return p.inner.MemUse() }

// HeapBytes reports live heap bytes.
func (p *Process) HeapBytes() uint64 { return p.inner.HeapBytes() }

// CPUCycles reports simulated cycles charged to the process, including
// collection of its heap.
func (p *Process) CPUCycles() uint64 { return p.inner.CPUCycles() }

// IOBytes reports bytes the process has written to its output stream.
func (p *Process) IOBytes() uint64 { return p.inner.IOBytes() }

// GC forces a collection of the process heap.
func (p *Process) GC() { p.inner.Collect() }

// Thread is a green thread.
type Thread struct {
	inner *interp.Thread
}

// Done reports whether the thread has finished or been killed.
func (t *Thread) Done() bool { return !t.inner.Alive() }

// Result returns the thread's integer return value (entry methods
// returning I).
func (t *Thread) Result() int64 { return t.inner.Result.I }

// Err reports the error that killed the thread, if any.
func (t *Thread) Err() error { return t.inner.Err }
