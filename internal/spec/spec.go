// Package spec contains the synthetic SPEC-JVM98-like workload suite used
// to reproduce the paper's Figure 3 (wall-clock across platforms) and
// Table 1 (write barriers executed per benchmark).
//
// SPEC JVM98 is licensed material we cannot ship, so each workload is a
// from-scratch bytecode program shaped to its namesake's published
// characteristics — most importantly the *write-barrier density* profile
// of Table 1 (compress executes almost no pointer stores; db by far the
// most; jack raises many exceptions, which is why fast exception dispatch
// "shows up strongly in jack") and the broad computation style (array
// number-crunching vs. pointer-structure building).
//
// Every workload returns a checksum, verified across engines and barrier
// configurations: an engine bug cannot masquerade as a speedup.
package spec

import (
	"fmt"
	"time"

	"repro/internal/barrier"
	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/interp"
)

// Workload is one benchmark program.
type Workload struct {
	// Name matches the SPEC benchmark it is shaped after.
	Name string
	// MainClass holds the static method run()I returning the checksum.
	MainClass string
	// Checksum is the expected result on every platform.
	Checksum int64
	// Source is the assembly text (kept for cmd/kaffeos disassembly use).
	Source string
}

// Module assembles the workload.
func (w *Workload) Module() *bytecode.Module { return bytecode.MustAssemble(w.Source) }

// All returns the seven workloads in SPEC's customary order.
func All() []*Workload {
	return []*Workload{
		Compress(), Jess(), DB(), Javac(), MpegAudio(), Mtrt(), Jack(),
	}
}

// ByName finds a workload.
func ByName(name string) (*Workload, bool) {
	for _, w := range All() {
		if w.Name == name {
			return w, true
		}
	}
	return nil, false
}

// Platform is one configuration of Figure 3.
type Platform struct {
	// Name as the figure legends it.
	Name string
	// Engine, exception dispatch and locking reproduce the platform's
	// implementation generation.
	Engine         core.EngineKind
	FastExceptions bool
	ThinLocks      bool
	// Barrier is the write-barrier configuration (NoBarrier for the
	// non-KaffeOS platforms and the "No Write Barrier" baseline).
	Barrier barrier.Barrier
}

// Config is the VM configuration the platform names: its engine,
// exception dispatch, locking and barrier, on the paper's 256 MiB machine.
// Every VM built for a platform is built from it.
func (p Platform) Config() core.Config {
	fe := p.FastExceptions
	return core.Config{
		Engine:         p.Engine,
		Barrier:        p.Barrier,
		FastExceptions: &fe,
		ThinLocks:      p.ThinLocks,
		TotalMemory:    256 << 20,
	}
}

// Platforms returns the seven configurations of Figure 3, in its order.
func Platforms() []Platform {
	return []Platform{
		{Name: "IBM", Engine: core.EngineJITOpt, FastExceptions: true, ThinLocks: true, Barrier: barrier.NoBarrier},
		{Name: "Kaffe00", Engine: core.EngineInterp, FastExceptions: true, ThinLocks: true, Barrier: barrier.NoBarrier},
		{Name: "Kaffe99", Engine: core.EngineInterpSpill, FastExceptions: false, ThinLocks: false, Barrier: barrier.NoBarrier},
		{Name: "KaffeOS-NoWriteBarrier", Engine: core.EngineInterpSpill, FastExceptions: true, ThinLocks: false, Barrier: barrier.NoBarrier},
		{Name: "KaffeOS-HeapPointer", Engine: core.EngineInterpSpill, FastExceptions: true, ThinLocks: false, Barrier: barrier.HeapPointer},
		{Name: "KaffeOS-NoHeapPointer", Engine: core.EngineInterpSpill, FastExceptions: true, ThinLocks: false, Barrier: barrier.NoHeapPointer},
		{Name: "KaffeOS-FakeHeapPointer", Engine: core.EngineInterpSpill, FastExceptions: true, ThinLocks: false, Barrier: barrier.FakeHeapPointer},
	}
}

// PlatformByName finds a platform configuration.
func PlatformByName(name string) (Platform, bool) {
	for _, p := range Platforms() {
		if p.Name == name {
			return p, true
		}
	}
	return Platform{}, false
}

// Result is one (workload, platform) measurement.
type Result struct {
	Workload string
	Platform string
	Wall     time.Duration
	Cycles   uint64 // simulated cycles consumed by the workload thread
	Barriers uint64 // write barriers executed
	Checksum int64
	GCs      uint64
}

// Run executes workload w on platform p and verifies the checksum.
func Run(w *Workload, p Platform) (Result, error) {
	vm, err := core.NewVM(p.Config())
	if err != nil {
		return Result{}, err
	}
	proc, err := vm.NewProcess(w.Name, core.ProcessOptions{MemLimit: 64 << 20})
	if err != nil {
		return Result{}, err
	}
	if err := proc.Load(w.Module()); err != nil {
		return Result{}, err
	}
	th, err := proc.Spawn(w.MainClass, "run()I")
	if err != nil {
		return Result{}, err
	}
	barriersBefore := vm.Stats.Executed.Load()
	start := time.Now()
	if err := vm.Run(0); err != nil {
		return Result{}, err
	}
	wall := time.Since(start)
	if th.State != interp.StateFinished {
		return Result{}, fmt.Errorf("spec: %s on %s died: %v (uncaught %v)", w.Name, p.Name, th.Err, th.Uncaught)
	}
	if th.Result.I != w.Checksum {
		return Result{}, fmt.Errorf("spec: %s on %s checksum %d, want %d", w.Name, p.Name, th.Result.I, w.Checksum)
	}
	return Result{
		Workload: w.Name,
		Platform: p.Name,
		Wall:     wall,
		Cycles:   th.Cycles,
		Barriers: vm.Stats.Executed.Load() - barriersBefore,
		Checksum: th.Result.I,
		GCs:      proc.Heap.Stats().GCs,
	}, nil
}
