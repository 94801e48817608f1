package repro

// The paper's own host-time benchmarks, plus ablations for the design
// choices DESIGN.md calls out and the two scaling benchmarks no probe
// measures.
//
//	BenchmarkFig3/...        Figure 3  — workloads across platforms (wall time)
//	BenchmarkTable1Counts    Table 1   — barriers executed per workload
//	BenchmarkBarrierMicro/.. §4.1      — cost of one barrier check
//	BenchmarkAblation*                 — exception dispatch, locking,
//	                                     GC separation, engines, memlimits,
//	                                     stack-scan crosstalk
//	BenchmarkGCParallel                — per-heap collections across cores
//	BenchmarkAllocParallel             — allocation under a shared memlimit
//
// Per-layer host times are bench/'s probes (go run ./bench -quick -trace 1).
// Regenerate the full paper-style tables with:
//
//	go run ./cmd/specbench -experiment fig3|table1|overhead|classes|micro
//	go run ./cmd/servbench

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/barrier"
	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/interp"
	"repro/internal/memlimit"
	"repro/internal/object"
	"repro/internal/spec"
	"repro/internal/vmaddr"
)

// BenchmarkFig3 runs each workload on each platform; b.N full runs each.
// This regenerates Figure 3's data as wall time per (platform, workload).
func BenchmarkFig3(b *testing.B) {
	for _, p := range spec.Platforms() {
		for _, w := range spec.All() {
			b.Run(p.Name+"/"+w.Name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := spec.Run(w, p)
					if err != nil {
						b.Fatal(err)
					}
					if res.Checksum != w.Checksum {
						b.Fatal("checksum mismatch")
					}
				}
			})
		}
	}
}

// BenchmarkTable1Counts reports the write barriers each workload executes
// (Table 1's first column) as a benchmark metric.
func BenchmarkTable1Counts(b *testing.B) {
	p, _ := spec.PlatformByName("KaffeOS-NoHeapPointer")
	for _, w := range spec.All() {
		b.Run(w.Name, func(b *testing.B) {
			var barriers uint64
			for i := 0; i < b.N; i++ {
				res, err := spec.Run(w, p)
				if err != nil {
					b.Fatal(err)
				}
				barriers = res.Barriers
			}
			b.ReportMetric(float64(barriers), "barriers")
			b.ReportMetric(float64(barriers*41), "barrier-cycles@41")
		})
	}
}

// benchWorld builds the minimal heap world for barrier microbenchmarks.
func benchWorld(b *testing.B, bar barrier.Barrier) (*heap.Registry, *heap.Heap, *object.Object, *object.Object) {
	b.Helper()
	space := vmaddr.NewSpace()
	reg := heap.NewRegistry(space, heap.Config{HeaderExtra: bar.HeaderExtra()})
	root := memlimit.NewRoot("root", memlimit.Unlimited)
	user := reg.NewHeap(heap.KindUser, "user", root.MustChild("user", memlimit.Unlimited, false))
	nC := benchNodeClass(b)
	holder, err := user.Alloc(nC)
	if err != nil {
		b.Fatal(err)
	}
	ref, err := user.Alloc(nC)
	if err != nil {
		b.Fatal(err)
	}
	return reg, user, holder, ref
}

// BenchmarkBarrierMicro measures one intra-heap barrier check per
// implementation (§4.1's 25-vs-41-cycle comparison, in host nanoseconds).
func BenchmarkBarrierMicro(b *testing.B) {
	for _, bar := range barrier.All() {
		b.Run(bar.Name(), func(b *testing.B) {
			reg, _, holder, ref := benchWorld(b, bar)
			var st barrier.Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bar.Write(reg, holder, ref, false, &st); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(bar.CheckCost()), "model-cycles")
		})
	}
}

// exceptionWorkload raises and catches n exceptions across a call frame.
const exceptionWorkload = `
.class t/E
.method thrower ()V static
.locals 0
.stack 2
	new java/lang/RuntimeException
	athrow
.end
.method run (I)I static
.locals 2
.stack 2
	iconst 0
	istore 1
L0:	iload 0
	ifle OUT
T0:	invokestatic t/E.thrower ()V
	goto NEXT
T1:	pop
	iinc 1 1
NEXT:	iinc 0 -1
	goto L0
.catch java/lang/RuntimeException T0 T1 T1
OUT:	iload 1
	ireturn
.end
.end`

// BenchmarkAblationExceptions compares fast (table) vs slow (Kaffe99-style
// walking) exception dispatch — the improvement that "shows up strongly in
// jack".
func BenchmarkAblationExceptions(b *testing.B) {
	for _, fast := range []bool{true, false} {
		name := "fast"
		if !fast {
			name = "slow"
		}
		b.Run(name, func(b *testing.B) {
			fe := fast
			vm, err := core.NewVM(core.Config{FastExceptions: &fe})
			if err != nil {
				b.Fatal(err)
			}
			p, err := vm.NewProcess("e", core.ProcessOptions{MemLimit: 32 << 20})
			if err != nil {
				b.Fatal(err)
			}
			if err := p.Load(bytecode.MustAssemble(exceptionWorkload)); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				th, err := p.Spawn("t/E", "run(I)I", interp.IntSlot(2000))
				if err != nil {
					b.Fatal(err)
				}
				if err := vm.Run(0); err != nil {
					b.Fatal(err)
				}
				if th.Result.I != 2000 {
					b.Fatalf("caught %d", th.Result.I)
				}
				b.StopTimer()
				p, err = vm.NewProcess("e", core.ProcessOptions{MemLimit: 32 << 20})
				if err != nil {
					b.Fatal(err)
				}
				if err := p.Load(bytecode.MustAssemble(exceptionWorkload)); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

const lockWorkload = `
.class t/L
.method run (I)I static
.locals 2
.stack 2
	new java/lang/Object
	astore 1
L0:	iload 0
	ifle OUT
	aload 1
	monitorenter
	aload 1
	monitorexit
	iinc 0 -1
	goto L0
OUT:	iconst 1
	ireturn
.end
.end`

// BenchmarkAblationLocks compares thin (header-word) vs heavyweight
// (monitor-record) locking — Kaffe00's "lightweight locking".
func BenchmarkAblationLocks(b *testing.B) {
	for _, thin := range []bool{true, false} {
		name := "thin"
		if !thin {
			name = "heavy"
		}
		b.Run(name, func(b *testing.B) {
			vm, err := core.NewVM(core.Config{ThinLocks: thin})
			if err != nil {
				b.Fatal(err)
			}
			mod := bytecode.MustAssemble(lockWorkload)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p, err := vm.NewProcess("l", core.ProcessOptions{MemLimit: 32 << 20})
				if err != nil {
					b.Fatal(err)
				}
				if err := p.Load(mod); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				th, err := p.Spawn("t/L", "run(I)I", interp.IntSlot(5000))
				if err != nil {
					b.Fatal(err)
				}
				if err := vm.RunUntil(func() bool { return !th.Alive() }); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(th.Cycles), "sim-cycles")
			}
		})
	}
}

// BenchmarkAblationGCSeparation demonstrates why per-process heaps matter
// for GC cost: collecting a small process heap is independent of how much
// the kernel (or anyone else) has allocated.
func BenchmarkAblationGCSeparation(b *testing.B) {
	build := func(b *testing.B, kernelObjects int) (*core.VM, *core.Process) {
		vm, err := core.NewVM(core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		objC, err := vm.Shared.Class("java/util/ListNode")
		if err != nil {
			b.Fatal(err)
		}
		// Keep kernel objects alive via a chain from a shared static.
		var prev *object.Object
		for i := 0; i < kernelObjects; i++ {
			o, err := vm.KernelHeap.Alloc(objC)
			if err != nil {
				b.Fatal(err)
			}
			o.SetRef(1, prev)
			prev = o
		}
		sys, err := vm.Shared.Class("java/lang/Thread")
		if err != nil {
			b.Fatal(err)
		}
		if sys.Statics == nil && prev != nil {
			// Pin the chain through an entry item instead.
			if err := vm.KernelHeap.RecordCrossRef(prev); err != nil {
				b.Fatal(err)
			}
		}
		p, err := vm.NewProcess("small", core.ProcessOptions{MemLimit: 8 << 20})
		if err != nil {
			b.Fatal(err)
		}
		cls, err := p.Loader.Class("java/util/ListNode")
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			if _, err := p.Heap.Alloc(cls); err != nil {
				b.Fatal(err)
			}
		}
		return vm, p
	}
	for _, kernelObjs := range []int{0, 50_000} {
		b.Run(fmt.Sprintf("kernelObjs=%d", kernelObjs), func(b *testing.B) {
			_, p := build(b, kernelObjs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Collect()
			}
		})
	}
}

// BenchmarkAblationEngines runs compress under each engine — the Figure 3
// platform spread in miniature.
func BenchmarkAblationEngines(b *testing.B) {
	w := spec.Compress()
	for _, cfg := range []struct {
		name string
		kind core.EngineKind
	}{
		{"interp-spill", core.EngineInterpSpill},
		{"interp", core.EngineInterp},
		{"jit-opt", core.EngineJITOpt},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			p := spec.Platform{Name: cfg.name, Engine: cfg.kind, FastExceptions: true, ThinLocks: true, Barrier: barrier.NoBarrier}
			for i := 0; i < b.N; i++ {
				if _, err := spec.Run(w, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMemlimits compares allocation through deep soft
// hierarchies vs a flat hard reservation.
func BenchmarkAblationMemlimits(b *testing.B) {
	for _, hard := range []bool{false, true} {
		name := "soft-chain"
		if hard {
			name = "hard-reservation"
		}
		b.Run(name, func(b *testing.B) {
			root := memlimit.NewRoot("root", memlimit.Unlimited)
			l1 := root.MustChild("l1", memlimit.Unlimited, hard)
			l2 := l1.MustChild("l2", memlimit.Unlimited, false)
			l3 := l2.MustChild("l3", memlimit.Unlimited, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l3.Debit(64); err != nil {
					b.Fatal(err)
				}
				l3.Credit(64)
			}
		})
	}
}

// BenchmarkAblationStackScanCrosstalk quantifies the "GC crosstalk" the
// paper accepts as the price of direct sharing (§2): every thread's stack
// can hold kernel- and shared-heap references, so the kernel collector
// scans all of them — and "a process could create many threads in an
// effort to get the system to scan them all". Process-local collections
// stay immune (their roots are their own threads only); the kernel
// collection degrades with the neighbour's thread count.
func BenchmarkAblationStackScanCrosstalk(b *testing.B) {
	for _, threads := range []int{1, 16, 128} {
		b.Run(fmt.Sprintf("neighbourThreads=%d", threads), func(b *testing.B) {
			vm, err := core.NewVM(core.Config{})
			if err != nil {
				b.Fatal(err)
			}
			mod := bytecode.MustAssemble(`
.class t/Spin
.method main ()V static
.locals 8
.stack 1
L0:	goto L0
.end
.end`)
			noisy, err := vm.NewProcess("noisy", core.ProcessOptions{MemLimit: 32 << 20})
			if err != nil {
				b.Fatal(err)
			}
			if err := noisy.Load(mod); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < threads; i++ {
				if _, err := noisy.Spawn("t/Spin", "main()V"); err != nil {
					b.Fatal(err)
				}
			}
			victim, err := vm.NewProcess("victim", core.ProcessOptions{MemLimit: 8 << 20})
			if err != nil {
				b.Fatal(err)
			}
			cls, err := victim.Loader.Class("java/util/ListNode")
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				if _, err := victim.Heap.Alloc(cls); err != nil {
					b.Fatal(err)
				}
			}
			b.Run("process-gc", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					victim.Collect()
				}
			})
			b.Run("kernel-gc", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					vm.CollectKernel()
				}
			})
		})
	}
}

// benchNodeClass builds the two-class world (Object + a linkable node)
// used by the barrier and GC scaling benchmarks.
func benchNodeClass(b *testing.B) *object.Class {
	b.Helper()
	mod := bytecode.MustAssemble(".class java/lang/Object\n.end\n.class t/N\n.field next Lt/N;\n.end")
	objDef, _ := mod.Class("java/lang/Object")
	objC, err := object.NewClass(objDef, nil, "b", true)
	if err != nil {
		b.Fatal(err)
	}
	nDef, _ := mod.Class("t/N")
	nC, err := object.NewClass(nDef, objC, "b", false)
	if err != nil {
		b.Fatal(err)
	}
	return nC
}

// buildGCBenchHeaps populates n user heaps with identical live graphs
// (chains reachable from explicit roots) so every collection marks the
// same amount of work, and returns ready-made collection requests.
func buildGCBenchHeaps(b *testing.B, n, objsPerHeap int) (*heap.Registry, []heap.CollectRequest) {
	b.Helper()
	space := vmaddr.NewSpace()
	reg := heap.NewRegistry(space, heap.Config{})
	root := memlimit.NewRoot("root", memlimit.Unlimited)
	nC := benchNodeClass(b)
	reqs := make([]heap.CollectRequest, n)
	for i := 0; i < n; i++ {
		h := reg.NewHeap(heap.KindUser, fmt.Sprintf("h%d", i), root.MustChild(fmt.Sprintf("h%d", i), memlimit.Unlimited, false))
		var keep []*object.Object
		var prev *object.Object
		for j := 0; j < objsPerHeap; j++ {
			o, err := h.Alloc(nC)
			if err != nil {
				b.Fatal(err)
			}
			o.SetRef(0, prev)
			prev = o
			if j%32 == 31 {
				keep = append(keep, o) // chain head: marks the 32 below it
				prev = nil
			}
		}
		roots := keep
		reqs[i] = heap.CollectRequest{Heap: h, Roots: func(visit func(*object.Object)) {
			for _, o := range roots {
				visit(o)
			}
		}}
	}
	return reg, reqs
}

// BenchmarkGCParallel measures collecting n fully live process heaps
// serially vs on the CollectConcurrent worker pool. Per-heap collections
// share no locks except short crossMu windows, so on a multi-core host
// the parallel variant scales with GOMAXPROCS; per-op time is for
// collecting ALL n heaps once.
func BenchmarkGCParallel(b *testing.B) {
	const objsPerHeap = 2000
	for _, n := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("heaps=%d/serial", n), func(b *testing.B) {
			_, reqs := buildGCBenchHeaps(b, n, objsPerHeap)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, r := range reqs {
					r.Heap.Collect(r.Roots)
				}
			}
		})
		b.Run(fmt.Sprintf("heaps=%d/parallel", n), func(b *testing.B) {
			reg, reqs := buildGCBenchHeaps(b, n, objsPerHeap)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reg.CollectConcurrent(reqs, 0)
			}
		})
	}
}

// BenchmarkAllocParallel measures allocation throughput from concurrent
// goroutines, each owning a heap under a shared memlimit root — the
// contention the per-heap lease exists to absorb. "nolease" disables the
// fast path (every allocation debits the shared limit tree); per-op time
// is one allocation. Goroutines collect their heap periodically so the
// workload stays bounded.
func BenchmarkAllocParallel(b *testing.B) {
	nC := benchNodeClass(b)
	for _, cfg := range []struct {
		name  string
		batch int
	}{{"lease", 0}, {"nolease", -1}} {
		for _, workers := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/goroutines=%d", cfg.name, workers), func(b *testing.B) {
				space := vmaddr.NewSpace()
				reg := heap.NewRegistry(space, heap.Config{LeaseBatch: cfg.batch})
				root := memlimit.NewRoot("root", 1<<40)
				heaps := make([]*heap.Heap, workers)
				for i := range heaps {
					heaps[i] = reg.NewHeap(heap.KindUser, fmt.Sprintf("h%d", i), root.MustChild(fmt.Sprintf("h%d", i), memlimit.Unlimited, false))
				}
				perG := b.N/workers + 1
				noRoots := func(func(*object.Object)) {}
				b.ResetTimer()
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(h *heap.Heap) {
						defer wg.Done()
						for i := 0; i < perG; i++ {
							if _, err := h.Alloc(nC); err != nil {
								b.Error(err)
								return
							}
							if i%50_000 == 49_999 {
								h.Collect(noRoots)
							}
						}
					}(heaps[w])
				}
				wg.Wait()
			})
		}
	}
}
