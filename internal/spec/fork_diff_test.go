package spec

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/interp"
)

// holdSrc keeps a process alive after its workload thread finishes, so the
// differential harness can read final heap state before reclamation. The
// daemon spinner allocates nothing and is never compared.
const holdSrc = `
.class diff/Hold
.method spin ()V static
.locals 0
.stack 1
L0:	goto L0
.end
.end`

// runShape is the observable execution fingerprint the differential suite
// compares: a forked clone must be indistinguishable from a process that
// ran the same warmup (namespace definition + clinits) itself.
type runShape struct {
	result    int64
	cycles    uint64
	heapBytes uint64
}

func (s runShape) String() string {
	return fmt.Sprintf("result=%d cycles=%d heap=%d", s.result, s.cycles, s.heapBytes)
}

func diffVM(t *testing.T, engine core.EngineKind) *core.VM {
	t.Helper()
	vm, err := core.NewVM(core.Config{Engine: engine, TotalMemory: 512 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return vm
}

// measure runs w.MainClass.run()I on p and captures the shape. The process
// is left killed and reclaimed.
func measure(t *testing.T, vm *core.VM, p *core.Process, w *Workload) runShape {
	t.Helper()
	if err := p.Load(bytecode.MustAssemble(holdSrc)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.SpawnDaemon("diff/Hold", "spin()V"); err != nil {
		t.Fatal(err)
	}
	th, err := p.Spawn(w.MainClass, "run()I")
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(0); err != nil {
		t.Fatal(err)
	}
	if th.State != interp.StateFinished {
		t.Fatalf("%s died: %v (uncaught %v)", w.Name, th.Err, th.Uncaught)
	}
	shape := runShape{result: th.Result.I, cycles: th.Cycles, heapBytes: p.HeapBytes()}
	p.Kill(nil)
	if err := vm.Run(0); err != nil {
		t.Fatal(err)
	}
	return shape
}

// baselines memoizes the reference run of each engine × workload — a
// freshly initialized process in a VM without a code cache — which the
// fork and code-cache walls both compare against.
var baselines = struct {
	sync.Mutex
	shapes map[string]runShape
}{shapes: make(map[string]runShape)}

// baseline returns w's reference shape on engine, running it at most once
// per test binary.
func baseline(t *testing.T, engine core.EngineKind, w *Workload) runShape {
	t.Helper()
	key := string(engine) + "/" + w.Name
	baselines.Lock()
	defer baselines.Unlock()
	if s, ok := baselines.shapes[key]; ok {
		return s
	}
	vm := diffVM(t, engine)
	fresh, err := vm.NewProcess("fresh-"+w.Name, core.ProcessOptions{MemLimit: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Load(w.Module()); err != nil {
		t.Fatal(err)
	}
	s := measure(t, vm, fresh, w)
	if rep := vm.Audit(true); !rep.OK() {
		t.Fatalf("audit after baseline run:\n%s", rep)
	}
	baselines.shapes[key] = s
	return s
}

// TestForkedCloneIndistinguishable is the fork correctness wall's
// differential axis: on every engine, for every workload, a clone forked
// from a checkpointed warm process produces a byte-identical execution —
// same checksum, same simulated cycles, same final heap bytes — as a
// freshly-initialized process.
func TestForkedCloneIndistinguishable(t *testing.T) {
	engines := []core.EngineKind{core.EngineInterp, core.EngineInterpSpill, core.EngineJITOpt}
	if testing.Short() {
		// The engine whose clones share compiled code with the zygote.
		engines = []core.EngineKind{core.EngineJITOpt}
	}
	for _, engine := range engines {
		engine := engine
		t.Run(string(engine), func(t *testing.T) {
			for _, w := range All() {
				w := w
				t.Run(w.Name, func(t *testing.T) {
					// Fresh path: init everything the slow way.
					want := baseline(t, engine, w)
					vm := diffVM(t, engine)
					module := w.Module()

					// Fork path: warm once, checkpoint, stamp out a clone.
					origin, err := vm.NewProcess("zygote-"+w.Name, core.ProcessOptions{MemLimit: 64 << 20})
					if err != nil {
						t.Fatal(err)
					}
					if err := origin.Load(module); err != nil {
						t.Fatal(err)
					}
					tpl, err := vm.Checkpoint(origin, w.Name)
					if err != nil {
						t.Fatal(err)
					}
					clone, err := tpl.Fork("clone-"+w.Name, core.ProcessOptions{MemLimit: 64 << 20})
					if err != nil {
						t.Fatal(err)
					}
					got := measure(t, vm, clone, w)

					if got != want {
						t.Errorf("forked clone diverges:\n fresh: %v\n clone: %v", want, got)
					}

					// Second-generation clone: fork again after the first ran,
					// proving the template did not degrade.
					clone2, err := tpl.Fork("clone2-"+w.Name, core.ProcessOptions{MemLimit: 64 << 20})
					if err != nil {
						t.Fatal(err)
					}
					if got2 := measure(t, vm, clone2, w); got2 != want {
						t.Errorf("second clone diverges:\n fresh: %v\n clone: %v", want, got2)
					}

					origin.Kill(nil)
					if err := vm.Run(0); err != nil {
						t.Fatal(err)
					}
					if rep := vm.Audit(true); !rep.OK() {
						t.Fatalf("audit after differential run:\n%s", rep)
					}
				})
			}
		})
	}
}
