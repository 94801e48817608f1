package core

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/bytecode"
	"repro/internal/shared"
	"repro/internal/telemetry"
)

// TestSoakRandomLifecycles runs many rounds of creating, running, and
// killing processes with varied behaviours (compute, churn, hog, spin,
// share), then checks the global invariants: every process limit released,
// the kernel heap clean, exactly one live heap (the kernel's) in the
// registry, and no leaked shared heaps.
func TestSoakRandomLifecycles(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	vm := newTestVM(t)
	vm.Tel.SetTracing(true)
	rng := rand.New(rand.NewSource(7))

	// A concurrent observer hammers the introspection surface (the same
	// reads the HTTP handler and `kaffeos top` perform) while the
	// scheduler mutates everything — the race detector polices the pair.
	stop := make(chan struct{})
	var pollers sync.WaitGroup
	pollers.Add(1)
	go func() {
		defer pollers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := vm.Snapshot()
			telemetry.RenderTable(io.Discard, snap)
			vm.Tel.Trace.Snapshot()
			for _, p := range vm.Processes() {
				_ = p.State()
				_ = p.CPUCycles()
				_ = p.IOBytes()
				_ = p.Threads()
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	defer func() {
		close(stop)
		pollers.Wait()
	}()

	programs := map[string]string{
		"compute": `
.class app/Compute
.method main ()V static
.locals 2
.stack 3
	iconst 0
	istore 0
L0:	iload 0
	ldc 20000
	if_icmpge OUT
	iinc 0 1
	goto L0
OUT:	return
.end
.end`,
		"churn": `
.class app/Churn
.method main ()V static
.locals 1
.stack 2
	iconst 0
	istore 0
L0:	iload 0
	ldc 300
	if_icmpge OUT
	ldc 256
	newarray [I
	pop
	iinc 0 1
	goto L0
OUT:	return
.end
.end`,
		"hog": `
.class app/Hog
.static keep Ljava/util/Vector;
.method main ()V static
.locals 0
.stack 4
	new java/util/Vector
	dup
	invokespecial java/util/Vector.<init> ()V
	putstatic app/Hog.keep Ljava/util/Vector;
L0:	getstatic app/Hog.keep Ljava/util/Vector;
	ldc 1024
	newarray [I
	invokevirtual java/util/Vector.add (Ljava/lang/Object;)V
	goto L0
.end
.end`,
		"spin": `
.class app/Spin
.method main ()V static
.locals 0
.stack 1
L0:	goto L0
.end
.end`,
		"thrower": `
.class app/Thrower
.method main ()V static
.locals 0
.stack 2
	new java/lang/RuntimeException
	athrow
.end
.end`,
	}
	mains := map[string]string{
		"compute": "app/Compute", "churn": "app/Churn", "hog": "app/Hog",
		"spin": "app/Spin", "thrower": "app/Thrower",
	}
	mods := map[string]*bytecode.Module{}
	for name, src := range programs {
		mods[name] = bytecode.MustAssemble(src)
	}
	names := []string{"compute", "churn", "hog", "spin", "thrower"}

	var live []*Process
	var tpls []*Template
	for round := 0; round < 200; round++ {
		// Maybe mint a zygote: warm a quiescent process, checkpoint it,
		// kill the origin — the template must stand on its own.
		if len(tpls) < 3 && rng.Intn(8) == 0 {
			origin := warmProc(t, vm, fmt.Sprintf("zygote-%d", round))
			tpl, err := vm.Checkpoint(origin, fmt.Sprintf("tpl-%d", round))
			if err != nil {
				t.Fatalf("round %d: checkpoint: %v", round, err)
			}
			tpls = append(tpls, tpl)
			origin.Kill(nil)
		}
		// Maybe release a template out from under future forks.
		if len(tpls) > 0 && rng.Intn(12) == 0 {
			i := rng.Intn(len(tpls))
			if err := tpls[i].Release(); err != nil {
				t.Fatalf("round %d: release: %v", round, err)
			}
			tpls = append(tpls[:i], tpls[i+1:]...)
		}
		// Maybe fork a clone and point it at a regular workload: forked
		// processes must be full citizens (loadable, spawnable, killable).
		if len(tpls) > 0 && len(live) < 8 && rng.Intn(3) == 0 {
			tpl := tpls[rng.Intn(len(tpls))]
			kind := names[rng.Intn(len(names))]
			clone, err := tpl.Fork(fmt.Sprintf("fork-%s-%d", kind, round), ProcessOptions{
				MemLimit: uint64(rng.Intn(1<<20) + 256<<10),
			})
			if err != nil {
				t.Fatalf("round %d: fork: %v", round, err)
			}
			if err := clone.Load(mods[kind]); err != nil {
				t.Fatal(err)
			}
			if _, err := clone.Spawn(mains[kind], "main()V"); err != nil {
				t.Fatal(err)
			}
			live = append(live, clone)
		}
		// Maybe create a process.
		if len(live) < 8 {
			kind := names[rng.Intn(len(names))]
			p, err := vm.NewProcess(fmt.Sprintf("%s-%d", kind, round), ProcessOptions{
				MemLimit: uint64(rng.Intn(1<<20) + 256<<10),
				CPULimit: uint64(rng.Intn(3)) * 2_000_000, // 0 = unlimited
			})
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if err := p.Load(mods[kind]); err != nil {
				t.Fatal(err)
			}
			if _, err := p.Spawn(mains[kind], "main()V"); err != nil {
				t.Fatal(err)
			}
			live = append(live, p)
		}
		// Run a slice.
		if err := vm.Run(500_000); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		// Maybe kill a random live process.
		if len(live) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(live))
			live[i].Kill(nil)
		}
		// Compact the live list.
		keep := live[:0]
		for _, p := range live {
			if p.State() == ProcRunning {
				keep = append(keep, p)
			}
		}
		live = keep
		// Periodically audit every kernel invariant mid-churn. The
		// scheduler is paused between slices, so the graph walk is safe.
		if round%50 == 49 {
			if rep := vm.Audit(true); !rep.OK() {
				t.Fatalf("round %d: %s", round, rep)
			}
		}
	}

	// Teardown: kill everything, release every template, and drain.
	for _, p := range vm.Processes() {
		p.Kill(nil)
	}
	if err := vm.Run(0); err != nil {
		t.Fatal(err)
	}
	for _, tpl := range vm.Templates() {
		if err := tpl.Release(); err != nil {
			t.Fatalf("teardown release: %v", err)
		}
	}
	vm.CollectKernel()

	if got := len(vm.Processes()); got != 0 {
		t.Fatalf("%d processes survived teardown", got)
	}
	if heaps := vm.Reg.Heaps(); len(heaps) != 1 {
		for _, h := range heaps {
			t.Logf("surviving heap: %s (%s, %d bytes)", h.Name, h.Kind, h.Bytes())
		}
		t.Fatalf("%d heaps survive, want only the kernel heap", len(heaps))
	}
	if got := vm.KernelHeap.Bytes(); got > 64<<10 {
		t.Errorf("kernel heap retains %d bytes", got)
	}
	// Root accounting: only the kernel reservation and whatever the kernel
	// heap itself holds remain charged.
	rootUse := vm.RootLimit.Use()
	if rootUse != kernelMemory {
		t.Errorf("root use = %d, want only the kernel reservation %d", rootUse, kernelMemory)
	}
	vm.SharedMgr.Snapshot(func(entries []shared.ChargeInfo) {
		for _, e := range entries {
			if e.Kind == shared.KindHeap {
				t.Errorf("shared heap %q leaked", e.Name)
			}
		}
	})
	// Address-space accounting: with every process heap merged away, every
	// mapped page must belong to the kernel heap, and the page table must be
	// bounded — before chunk release, 200 rounds of process churn leaked a
	// page range per dead heap and this count grew without bound.
	if total, kernel := vm.Space.Pages(), vm.Space.PagesOwned(vm.KernelHeap.ID); total != kernel {
		t.Errorf("page table holds %d pages but the kernel heap owns only %d — dead heaps leaked pages", total, kernel)
	}
	if got := vm.Space.Pages(); got > 512 {
		t.Errorf("page table holds %d pages (%d KiB) after teardown, want a bounded residue", got, got<<2)
	}
	if got := vm.Tel.Trace.Total(); got == 0 {
		t.Error("tracing was on but no events reached the ring")
	}
	if rep := vm.Audit(true); !rep.OK() {
		t.Errorf("post-teardown audit: %s", rep)
	}
}
