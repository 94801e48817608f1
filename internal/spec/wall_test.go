package spec

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/barrier"
	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/interp"
)

// The spec wall runs every (engine, workload) cell once — fresh, forked
// and cache-hit — and the fork and cache wall tests below each assert one
// axis of the shared result:
//
//   - TestForkedCloneIndistinguishable: two generations of clones forked
//     from a checkpointed zygote match the fresh process;
//   - TestCodeCacheIndistinguishable: a process whose compiled code came
//     from the shared cache matches the fresh process.
//
// Every run compares checksum, simulated cycles, barriers, collections and
// final heap bytes, and every VM the cell built passes the full audit.
// Cells run on the default VM configuration, the fat-lock configuration
// the KaffeOS platforms ship, in parallel and at most once per test
// binary, whichever test asks first. TestSimulatedCostEngineIndependent
// holds spec.Run, the path the benchmarks take, to the pinned cost table.

// wallEngines are the engines a wall test covers. Under -short the fork and
// cache axes keep only the engine whose compiled code is shared.
func wallEngines() []core.EngineKind {
	if testing.Short() {
		return []core.EngineKind{core.EngineJITOpt}
	}
	return []core.EngineKind{core.EngineInterp, core.EngineInterpSpill, core.EngineJITOpt}
}

// wallConfig is the default VM configuration on engine.
func wallConfig(engine core.EngineKind, codeCache bool) core.Config {
	return core.Config{Engine: engine, TotalMemory: 512 << 20, CodeCache: codeCache}
}

// benchPlatform is the benchmark platform (NoHeapPointer barrier, fast
// exceptions, thin locks) on engine, which the pinned costs were recorded
// on.
func benchPlatform(engine core.EngineKind) Platform {
	return Platform{
		Name: "bench-" + string(engine), Engine: engine,
		FastExceptions: true, ThinLocks: true, Barrier: barrier.NoHeapPointer,
	}
}

// simCost is what a program costs in the simulation: none of it may depend
// on the engine that ran the program.
type simCost struct {
	cycles, barriers, gcs uint64
	checksum              int64
}

// pinnedCost is every workload's cost on the benchmark platform, recorded
// on the switch interpreter. mtrt is the sensitive row: it runs two
// threads, so an engine that moved a single yield point shifts its cycle
// count.
var pinnedCost = map[string]simCost{
	"compress":  {6_836_757, 0, 0, compressChecksum},
	"jess":      {15_056_052, 67_500, 2, jessChecksum},
	"db":        {105_463_423, 307_098, 0, dbChecksum},
	"javac":     {34_594_423, 147_312, 1, javacChecksum},
	"mpegaudio": {40_282_934, 27_000, 0, mpegChecksum},
	"mtrt":      {4_400_022, 25_649, 0, mtrtChecksum},
	"jack":      {20_324_220, 80_001, 3, jackChecksum},
}

// holdSrc keeps a process alive after its workload thread finishes, so the
// wall can read final heap state before reclamation. The daemon spinner
// allocates nothing and is never compared.
const holdSrc = `
.class diff/Hold
.method spin ()V static
.locals 0
.stack 1
L0:	goto L0
.end
.end`

// runShape is the observable fingerprint of one run of a workload.
type runShape struct {
	simCost
	heapBytes uint64
}

func (s runShape) String() string {
	return fmt.Sprintf("checksum=%d cycles=%d barriers=%d gcs=%d heap=%d",
		s.checksum, s.cycles, s.barriers, s.gcs, s.heapBytes)
}

// measure runs w.MainClass.run()I on p and captures its shape. The process
// is left killed and reclaimed.
func measure(vm *core.VM, p *core.Process, w *Workload) (runShape, error) {
	if err := p.Load(bytecode.MustAssemble(holdSrc)); err != nil {
		return runShape{}, err
	}
	if _, err := p.SpawnDaemon("diff/Hold", "spin()V"); err != nil {
		return runShape{}, err
	}
	th, err := p.Spawn(w.MainClass, "run()I")
	if err != nil {
		return runShape{}, err
	}
	barriers, gcs := vm.Stats.Executed.Load(), p.Heap.Stats().GCs
	if err := vm.Run(0); err != nil {
		return runShape{}, err
	}
	if th.State != interp.StateFinished {
		return runShape{}, fmt.Errorf("%s died: %v (uncaught %v)", w.Name, th.Err, th.Uncaught)
	}
	s := runShape{
		simCost: simCost{
			cycles:   th.Cycles,
			barriers: vm.Stats.Executed.Load() - barriers,
			gcs:      p.Heap.Stats().GCs - gcs,
			checksum: th.Result.I,
		},
		heapBytes: p.HeapBytes(),
	}
	p.Kill(nil)
	return s, vm.Run(0)
}

// audit runs the full audit on vm.
func audit(vm *core.VM, after string) error {
	if rep := vm.Audit(true); !rep.OK() {
		return fmt.Errorf("audit after %s:\n%s", after, rep)
	}
	return nil
}

// cell is one (engine, workload) entry of the wall. Its three runs are
// memoized separately, so the axes that need different runs can compute
// them in parallel.
type cell struct {
	engine core.EngineKind
	w      *Workload

	freshOnce, forkOnce, cacheOnce sync.Once
	// fresh is a freshly initialized process in a VM without a code cache.
	fresh    runShape
	errFresh error
	// clone and clone2 are two successive forks of one checkpointed zygote.
	clone, clone2 runShape
	errFork       error
	// shared loaded the module second in a VM with a code cache, so every
	// compiled body it ran was a cache hit.
	shared   runShape
	errCache error
}

var wall = struct {
	sync.Mutex
	cells map[string]*cell
}{cells: make(map[string]*cell)}

// wallCell returns engine × w's cell, its fresh run done.
func wallCell(engine core.EngineKind, w *Workload) *cell {
	key := string(engine) + "/" + w.Name
	wall.Lock()
	c, ok := wall.cells[key]
	if !ok {
		c = &cell{engine: engine, w: w}
		wall.cells[key] = c
	}
	wall.Unlock()
	c.freshOnce.Do(func() { c.fresh, c.errFresh = runFresh(engine, w) })
	return c
}

func (c *cell) forked() error {
	c.forkOnce.Do(func() { c.clone, c.clone2, c.errFork = runForked(c.engine, c.w) })
	return c.errFork
}

func (c *cell) cacheHit() error {
	c.cacheOnce.Do(func() { c.shared, c.errCache = runCacheHit(c.engine, c.w) })
	return c.errCache
}

func newProcess(vm *core.VM, name string, w *Workload) (*core.Process, error) {
	p, err := vm.NewProcess(name+"-"+w.Name, core.ProcessOptions{MemLimit: 64 << 20})
	if err != nil {
		return nil, err
	}
	return p, p.Load(w.Module())
}

func runFresh(engine core.EngineKind, w *Workload) (runShape, error) {
	vm, err := core.NewVM(wallConfig(engine, false))
	if err != nil {
		return runShape{}, err
	}
	p, err := newProcess(vm, "fresh", w)
	if err != nil {
		return runShape{}, err
	}
	s, err := measure(vm, p, w)
	if err != nil {
		return s, err
	}
	if s.checksum != w.Checksum {
		return s, fmt.Errorf("checksum %d, want %d", s.checksum, w.Checksum)
	}
	return s, audit(vm, "fresh run")
}

// runForked warms a zygote once, checkpoints it and runs two clones in
// turn; the second proves the template did not degrade.
func runForked(engine core.EngineKind, w *Workload) (clone, clone2 runShape, err error) {
	vm, err := core.NewVM(wallConfig(engine, false))
	if err != nil {
		return
	}
	origin, err := newProcess(vm, "zygote", w)
	if err != nil {
		return
	}
	tpl, err := vm.Checkpoint(origin, w.Name)
	if err != nil {
		return
	}
	for i, dst := range []*runShape{&clone, &clone2} {
		p, err := tpl.Fork(fmt.Sprintf("clone%d-%s", i+1, w.Name), core.ProcessOptions{MemLimit: 64 << 20})
		if err != nil {
			return clone, clone2, err
		}
		if *dst, err = measure(vm, p, w); err != nil {
			return clone, clone2, err
		}
	}
	origin.Kill(nil)
	if err = vm.Run(0); err != nil {
		return
	}
	return clone, clone2, audit(vm, "forked runs")
}

// runCacheHit lets a warmer process compile and insert the module, then
// measures a second loader that attaches with pure cache hits. The audit
// holds the books to the full-charging rule after the attach/detach churn.
func runCacheHit(engine core.EngineKind, w *Workload) (runShape, error) {
	vm, err := core.NewVM(wallConfig(engine, true))
	if err != nil {
		return runShape{}, err
	}
	warmer, err := newProcess(vm, "warmer", w)
	if err != nil {
		return runShape{}, err
	}
	if err := warmer.Load(bytecode.MustAssemble(holdSrc)); err != nil {
		return runShape{}, err
	}
	p, err := newProcess(vm, "shared", w)
	if err != nil {
		return runShape{}, err
	}
	s, err := measure(vm, p, w)
	if err != nil {
		return s, err
	}
	warmer.Kill(nil)
	if err := vm.Run(0); err != nil {
		return s, err
	}
	if vm.CodeMgr == nil {
		if engine == core.EngineJITOpt {
			return s, fmt.Errorf("compiling engine has no code cache")
		}
	} else {
		vm.CodeMgr.EvictOrphans()
	}
	return s, audit(vm, "cache-hit run")
}

// forEachCell runs check on every cell of engines × All(), in parallel.
func forEachCell(t *testing.T, engines []core.EngineKind, check func(t *testing.T, w *Workload, c *cell)) {
	t.Parallel()
	for _, engine := range engines {
		engine := engine
		t.Run(string(engine), func(t *testing.T) {
			t.Parallel()
			for _, w := range All() {
				w := w
				t.Run(w.Name, func(t *testing.T) {
					t.Parallel()
					c := wallCell(engine, w)
					if c.errFresh != nil {
						t.Fatalf("fresh run: %v", c.errFresh)
					}
					check(t, w, c)
				})
			}
		})
	}
}

// TestForkedCloneIndistinguishable is the fork correctness wall's
// differential axis: a clone forked from a checkpointed warm process, and
// a second clone of the same template, run byte-identically to a freshly
// initialized process.
func TestForkedCloneIndistinguishable(t *testing.T) {
	forEachCell(t, wallEngines(), func(t *testing.T, w *Workload, c *cell) {
		if err := c.forked(); err != nil {
			t.Fatal(err)
		}
		if c.clone != c.fresh {
			t.Errorf("forked clone diverges:\n fresh: %v\n clone: %v", c.fresh, c.clone)
		}
		if c.clone2 != c.fresh {
			t.Errorf("second clone diverges:\n fresh: %v\n clone: %v", c.fresh, c.clone2)
		}
	})
}

// TestCodeCacheIndistinguishable is the shared-code-cache correctness
// wall: compiled bodies are relocatable and simulated costs are engine
// properties, so a process running pure cache hits must be byte-identical
// to one that compiled privately; sharing may change only host wall-clock.
func TestCodeCacheIndistinguishable(t *testing.T) {
	forEachCell(t, wallEngines(), func(t *testing.T, w *Workload, c *cell) {
		if err := c.cacheHit(); err != nil {
			t.Fatal(err)
		}
		if c.shared != c.fresh {
			t.Errorf("cache-on run diverges:\n off: %v\n  on: %v", c.fresh, c.shared)
		}
	})
}

// TestSimulatedCostEngineIndependent holds the engines to the cost model:
// every workload charges the same cycles, runs the same barriers and
// collections and returns the same checksum on the interpreter and the
// optimizing JIT, and all of it equals the pinned table.
func TestSimulatedCostEngineIndependent(t *testing.T) {
	t.Parallel()
	for _, e := range []core.EngineKind{core.EngineInterp, core.EngineJITOpt} {
		p := benchPlatform(e)
		t.Run(string(e), func(t *testing.T) {
			t.Parallel()
			for _, w := range All() {
				w := w
				t.Run(w.Name, func(t *testing.T) {
					t.Parallel()
					want, ok := pinnedCost[w.Name]
					if !ok {
						t.Fatalf("no pinned cost for %s", w.Name)
					}
					r, err := run(w, p)
					if err != nil {
						t.Fatal(err)
					}
					if got := (simCost{r.Cycles, r.Barriers, r.GCs, r.Checksum}); got != want {
						t.Errorf("%+v, want %+v", got, want)
					}
				})
			}
		})
	}
}
