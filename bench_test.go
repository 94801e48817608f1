package repro

// The benchmark harness: one benchmark per table/figure of the paper's
// evaluation, plus ablations for the design choices DESIGN.md calls out.
//
//	BenchmarkFig3/...        Figure 3  — workloads across platforms (wall time)
//	BenchmarkTable1Counts    Table 1   — barriers executed per workload
//	BenchmarkBarrierMicro/.. §4.1      — cost of one barrier check
//	BenchmarkFig4Simulation  Figure 4  — servlet scaling curves (fluid model)
//	BenchmarkServletEngine   §4.2      — the real-VM servlet engine
//	BenchmarkAblation*                 — exception dispatch, locking,
//	                                     GC separation, engines, memlimits,
//	                                     process lifecycle
//
// Regenerate the full paper-style tables with:
//
//	go run ./cmd/specbench -experiment fig3|table1|overhead|classes
//	go run ./cmd/servbench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/barrier"
	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/interp"
	"repro/internal/jserv"
	"repro/internal/membal"
	"repro/internal/memlimit"
	"repro/internal/object"
	"repro/internal/serve"
	"repro/internal/spec"
	"repro/internal/telemetry"
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

// BenchmarkFig4Simulation regenerates all six Figure 4 curves.
func BenchmarkFig4Simulation(b *testing.B) {
	p := jserv.DefaultParams()
	for i := 0; i < b.N; i++ {
		curves := jserv.Figure4(p)
		if len(curves) != 6 {
			b.Fatal("missing curves")
		}
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
		{"jit", core.EngineJIT},
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
// used by the GC scaling benchmarks.
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

// BenchmarkSpanEmission prices the telemetry side of request tracing:
// "off" is the hot-path guard alone (one atomic load, the cost every
// accepted request pays when spans are disabled), "on" is the full
// finalization — mint an id, fill the ledger, record into the ring, and
// observe the five kernel phase histograms.
func BenchmarkSpanEmission(b *testing.B) {
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			rec := telemetry.NewSpanRecorder(0)
			rec.SetEnabled(on)
			k := telemetry.NewHub(0).Reg.Kernel()
			queue := k.Histogram(telemetry.MSpanQueueNs)
			marshal := k.Histogram(telemetry.MSpanMarshalNs)
			exec := k.Histogram(telemetry.MSpanExecCycles)
			gc := k.Histogram(telemetry.MSpanGCCycles)
			total := k.Histogram(telemetry.MSpanTotalNs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !rec.Enabled() {
					continue
				}
				sp := telemetry.Span{
					ID:         rec.NextID(),
					Route:      "/bench",
					Pid:        1,
					Status:     200,
					QueueNs:    120,
					MarshalNs:  40,
					ExecCycles: 2000,
					GCCycles:   500,
					GCNs:       telemetry.CyclesToNs(500),
					Quanta:     2,
					TotalNs:    5000,
				}
				rec.Record(sp)
				queue.Observe(uint64(sp.QueueNs))
				marshal.Observe(uint64(sp.MarshalNs))
				exec.Observe(sp.ExecCycles)
				gc.Observe(sp.GCCycles)
				total.Observe(uint64(sp.TotalNs))
			}
		})
	}
}

// BenchmarkServeThroughput measures one request through the serving
// plane's engine path (admission, dispatch, execution, reply — no TCP),
// with span recording off and on. The off/on gap is the end-to-end cost
// of tracing; the gate holds the off variant to the baseline.
func BenchmarkServeThroughput(b *testing.B) {
	for _, spans := range []bool{false, true} {
		name := "spans-off"
		if spans {
			name = "spans-on"
		}
		b.Run(name, func(b *testing.B) {
			srv, err := serve.NewSharded(core.Config{Engine: core.EngineJITOpt}, serve.Config{Shards: 1},
				[]serve.TenantConfig{{Route: "/b", WorkUnits: 20}})
			if err != nil {
				b.Fatal(err)
			}
			srv.VMs()[0].Tel.Spans.SetEnabled(spans)
			if _, err := srv.Start("127.0.0.1:0"); err != nil {
				b.Fatal(err)
			}
			body := []byte("bench-payload")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if status, _ := srv.Do("/b", body); status != 200 {
					b.Fatalf("status %d", status)
				}
			}
			b.StopTimer()
			if err := srv.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkServeShardedThroughput measures the engine path on a sharded
// plane at 1/2/4 shards: concurrent callers spread over one tenant per
// shard slot, so with N shards up to N requests execute in parallel on N
// VMs. The shards-1 case is the old single-engine plane; the scaling gap
// to shards-4 is what the shard refactor buys on a multi-core host (on a
// single core the variants should roughly tie — the gate's host line
// records which case the baseline measured).
func BenchmarkServeShardedThroughput(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			tenants := make([]serve.TenantConfig, 4)
			routes := make([]string, len(tenants))
			for i := range tenants {
				routes[i] = fmt.Sprintf("/b%d", i)
				tenants[i] = serve.TenantConfig{Route: routes[i], WorkUnits: 20}
			}
			srv, err := serve.NewSharded(
				core.Config{Engine: core.EngineJITOpt},
				serve.Config{Shards: shards, Place: serve.LeastLoaded},
				tenants)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := srv.Start("127.0.0.1:0"); err != nil {
				b.Fatal(err)
			}
			body := []byte("bench-payload")
			var rr atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				route := routes[int(rr.Add(1)-1)%len(routes)]
				for pb.Next() {
					status, _ := srv.Do(route, body)
					if status != 200 && status != 503 {
						b.Errorf("status %d", status)
						return
					}
				}
			})
			b.StopTimer()
			if err := srv.Close(); err != nil {
				b.Fatal(err)
			}
			for i, vm := range srv.VMs() {
				if rep := vm.Audit(true); !rep.OK() {
					b.Fatalf("shard %d post-run audit failed:\n%s", i, rep)
				}
			}
		})
	}
}

// BenchmarkProcessLifecycle measures the full create → run → kill →
// reclaim cycle — the cost of the paper's process abstraction itself.
func BenchmarkProcessLifecycle(b *testing.B) {
	vm, err := core.NewVM(core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	mod := bytecode.MustAssemble(`
.class t/P
.method main ()V static
.locals 0
.stack 1
L0:	goto L0
.end
.end`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := vm.NewProcess("cycle", core.ProcessOptions{MemLimit: 1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Load(mod); err != nil {
			b.Fatal(err)
		}
		if _, err := p.Spawn("t/P", "main()V"); err != nil {
			b.Fatal(err)
		}
		if err := vm.Run(200_000); err != nil {
			b.Fatal(err)
		}
		p.Kill(nil)
		if err := vm.Run(0); err != nil {
			b.Fatal(err)
		}
		if p.State() != core.ProcReclaimed {
			b.Fatal("not reclaimed")
		}
	}
}

// BenchmarkInitColdStart prices bringing a warm-servlet process to life
// the slow way: a fresh process whose module load runs the expensive
// NetWarm <clinit> (a 4096-entry lookup table, ~260k interpreted loop
// iterations). Paired with BenchmarkForkColdStart below — their ratio is
// the zygote speedup the serving plane's template tenants buy; see
// `servbench -net -coldstart` for the end-to-end HTTP version.
func BenchmarkInitColdStart(b *testing.B) {
	vm, err := core.NewVM(core.Config{Engine: core.EngineJITOpt})
	if err != nil {
		b.Fatal(err)
	}
	mod := jserv.NetWarmModule()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := vm.NewProcess("cold", core.ProcessOptions{MemLimit: 8 << 20})
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Load(mod); err != nil {
			b.Fatal(err)
		}
		p.Kill(nil)
		if err := vm.Run(0); err != nil {
			b.Fatal(err)
		}
		if p.State() != core.ProcReclaimed {
			b.Fatal("not reclaimed")
		}
	}
}

// BenchmarkForkColdStart prices the fast way: the same NetWarm warmup is
// paid once into a checkpointed template, then every incarnation is a
// Fork — a deep copy of the frozen heap into a fresh isolated process.
func BenchmarkForkColdStart(b *testing.B) {
	vm, err := core.NewVM(core.Config{Engine: core.EngineJITOpt})
	if err != nil {
		b.Fatal(err)
	}
	zygote, err := vm.NewProcess("zygote", core.ProcessOptions{MemLimit: 8 << 20})
	if err != nil {
		b.Fatal(err)
	}
	if err := zygote.Load(jserv.NetWarmModule()); err != nil {
		b.Fatal(err)
	}
	tpl, err := vm.Checkpoint(zygote, "bench")
	if err != nil {
		b.Fatal(err)
	}
	zygote.Kill(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clone, err := tpl.Fork("clone", core.ProcessOptions{MemLimit: 8 << 20})
		if err != nil {
			b.Fatal(err)
		}
		clone.Kill(nil)
		if err := vm.Run(0); err != nil {
			b.Fatal(err)
		}
		if clone.State() != core.ProcReclaimed {
			b.Fatal("not reclaimed")
		}
	}
	b.StopTimer()
	if err := tpl.Release(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkColdStartSharedCode prices the other cold-start tax: JIT
// compilation. The NetWide servlet has no clinit — its startup cost is
// translating a wide method surface (~12k instructions) — so the A/B
// isolates what the shared code cache buys: with the cache off, every
// process compiles the module privately before it can answer; with the
// cache on, the first process compiles once into an immutable artifact
// and every later process attaches (pure cache hits) and just executes.
// The hit/miss counters land in the -benchmem baseline via ReportMetric.
func BenchmarkColdStartSharedCode(b *testing.B) {
	mod := jserv.NetWideModule()
	for _, cache := range []bool{false, true} {
		name := "cache=off"
		if cache {
			name = "cache=on"
		}
		b.Run(name, func(b *testing.B) {
			vm, err := core.NewVM(core.Config{Engine: core.EngineJITOpt, CodeCache: cache})
			if err != nil {
				b.Fatal(err)
			}
			// One unmeasured run: records the expected result and, on the
			// cache arm, pays the one-time compile-and-insert — the role
			// the first tenant (or a primer) plays in a serving fleet.
			run := func(i int) int64 {
				p, err := vm.NewProcess(fmt.Sprintf("wide%d", i), core.ProcessOptions{MemLimit: 8 << 20})
				if err != nil {
					b.Fatal(err)
				}
				if err := p.Load(mod); err != nil {
					b.Fatal(err)
				}
				th, err := p.Spawn(jserv.NetWideClass, "selftest()I")
				if err != nil {
					b.Fatal(err)
				}
				if err := vm.Run(0); err != nil {
					b.Fatal(err)
				}
				if p.State() != core.ProcReclaimed {
					b.Fatal("not reclaimed")
				}
				return th.Result.I
			}
			want := run(-1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := run(i); got != want {
					b.Fatalf("selftest = %d, want %d", got, want)
				}
			}
			b.StopTimer()
			if cache {
				kernel := vm.Tel.Reg.Kernel()
				b.ReportMetric(float64(kernel.Counter(telemetry.MCodeHits).Value()), "cache-hits")
				b.ReportMetric(float64(kernel.Counter(telemetry.MCodeMisses).Value()), "cache-misses")
				vm.CodeMgr.EvictOrphans()
			}
			if rep := vm.Audit(true); !rep.OK() {
				b.Fatalf("post-bench audit failed:\n%s", rep)
			}
		})
	}
}

// BenchmarkMemBalRebalance prices one controller round: estimate every
// tenant's allocation rate, solve the square-root split of the budget,
// and apply the new limits through the memlimit tree. This runs on the
// engine goroutine between request quanta, so its cost is pure serving
// overhead; per-op time is one full round over all tenants.
func BenchmarkMemBalRebalance(b *testing.B) {
	for _, n := range []int{8, 64} {
		b.Run(fmt.Sprintf("tenants=%d", n), func(b *testing.B) {
			root := memlimit.NewRoot("root", memlimit.Unlimited)
			ctl := &membal.Controller{Budget: uint64(n) * (4 << 20)}
			targets := make([]membal.Target, n)
			for i := range targets {
				l := root.MustChild(fmt.Sprintf("t%d", i), 4<<20, false)
				live := uint64(256+(i%32)*64) << 10
				if err := l.Debit(live); err != nil {
					b.Fatal(err)
				}
				targets[i] = membal.Target{ID: int32(i), Limit: l, Live: live}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range targets {
					// Skewed allocation keeps the rate estimates (and thus
					// the split) changing every round.
					targets[j].AllocBytes += uint64(1+j%7) << 12
				}
				ctl.Rebalance(uint64(i+1)*100_000, targets)
			}
		})
	}
}

// BenchmarkServeOvercommit measures one request through an overcommitted
// plane — four tenants whose even-split share of the budget is tight —
// with static limits vs the memory controller redistributing the same
// budget. The controller's cost (rebalance rounds on the engine
// goroutine) and its benefit (fewer admission-pressure GCs) both land in
// the per-request time; the gate holds both variants.
func BenchmarkServeOvercommit(b *testing.B) {
	const budget = 4 << 20
	for _, controller := range []bool{false, true} {
		name := "static"
		if controller {
			name = "balanced"
		}
		b.Run(name, func(b *testing.B) {
			tenants := make([]serve.TenantConfig, 4)
			for i := range tenants {
				tenants[i] = serve.TenantConfig{
					Route:     fmt.Sprintf("/b%d", i),
					WorkUnits: 200,
					MemKB:     int(budget / 4 >> 10),
				}
			}
			cfg := serve.Config{}
			if controller {
				cfg.MemBudget = budget
			}
			srv, err := serve.NewSharded(
				core.Config{Engine: core.EngineJITOpt, TotalMemory: 32<<20 + budget},
				cfg, tenants)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := srv.Start("127.0.0.1:0"); err != nil {
				b.Fatal(err)
			}
			body := make([]byte, 8<<10)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				status, _ := srv.Do(fmt.Sprintf("/b%d", i%4), body)
				if status != 200 && status != 503 {
					b.Fatalf("status %d", status)
				}
			}
			b.StopTimer()
			if err := srv.Close(); err != nil {
				b.Fatal(err)
			}
			for i, vm := range srv.VMs() {
				if rep := vm.Audit(true); !rep.OK() {
					b.Fatalf("shard %d post-run audit failed:\n%s", i, rep)
				}
			}
		})
	}
}
