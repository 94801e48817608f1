package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/barrier"
	"repro/internal/bytecode"
	"repro/internal/codecache"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/interp"
	"repro/internal/jserv"
	"repro/internal/membal"
	"repro/internal/memlimit"
	"repro/internal/object"
	"repro/internal/shared"
	"repro/internal/spec"
	"repro/internal/telemetry"
	"repro/internal/vmaddr"
)

// perLayer names every per-layer metric, in the order BENCHMARK.json lists
// them. The README says which end-to-end metric each should move. Metrics
// taken from the workload itself read 0 on workloads that do not define
// them (serve.* on batch_*, the hog metrics off serve_hostile).
var perLayer = []string{
	// From the traced workload.
	"serve.do_p50_us", "serve.socket_p50_us", "serve.go_allocs_per_req", "serve.go_bytes_per_req",
	"serve.heap_growth_b_per_req", "serve.queue_p50_us", "serve.marshal_p50_us", "serve.exec_kcycles_p50",
	"serve.gc_kcycles_mean", "serve.restarts_per_s", "serve.hog_down_p50_ms", "serve.shed_share",
	"sched.quanta_per_req", "telemetry.trace_overhead_share", "go.gc_cpu_share", "go.allocs_per_kcycle",
	// From the layer probes, the same on every workload.
	"interp.ns_per_kcycle.jit-opt", "interp.ns_per_kcycle.jit", "interp.ns_per_kcycle.interp",
	"interp.call_ns", "interp.call_go_allocs", "interp.throw_catch_ns",
	"barrier.store_ns.none", "barrier.store_ns.heap-pointer", "barrier.store_ns.no-heap-pointer", "barrier.stores.db",
	"heap.alloc_ns", "heap.alloc_go_allocs", "heap.alloc_array_16k_ns", "heap.collect_ns_per_live_obj",
	"heap.collect_ns_per_dead_obj", "heap.copy_ns_per_obj", "heap.destroy_us",
	"memlimit.debit_ns", "memlimit.debit_lease_ns", "memlimit.lease_hit_share", "vmaddr.reserve_release_ns",
	"sched.step_ns",
	"core.proc_lifecycle_us", "core.init_coldstart_us", "core.fork_coldstart_us", "core.kill_reclaim_us", "audit.full_ms",
	"bytecode.assemble_us.spec", "loader.define_verify_us.netwide", "loader.define_preverified_us.netwide",
	"interp.compile_us.netwide", "codecache.load_hit_us.netwide", "codecache.hit_share",
	"membal.rebalance_ns_per_tenant", "shared.create_freeze_attach_us", "telemetry.span_on_ns", "telemetry.span_off_ns",
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	for _, u := range []struct{ tag, unit string }{
		{"_us", "us"}, {"_ms", "ms"}, {"_ns", "ns"}, {"ns_per", "ns"}, {"_share", "ratio"}, {"_per_s", "1/s"},
		{"bytes_per", "B"}, {"_b_per", "B"}, {"kcycles", "kcycles"},
	} {
		if strings.Contains(name, u.tag) {
			return u.unit
		}
	}
	return "count"
}

// measure runs batch repeatedly for about budget (at least three times)
// and returns the median time per operation in ns. batch reports how many
// operations it did and how long the timed part took.
func measure(budget time.Duration, batch func() (ops int, d time.Duration, err error)) (float64, error) {
	var per []float64
	start := time.Now()
	for len(per) < 3 || time.Since(start) < budget {
		ops, d, err := batch()
		if err != nil {
			return 0, err
		}
		per = append(per, float64(d.Nanoseconds())/float64(ops))
	}
	return median(per), nil
}

// loop times n back-to-back calls of op as one batch.
func loop(n int, op func() error) func() (int, time.Duration, error) {
	return func() (int, time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := op(); err != nil {
				return 0, 0, err
			}
		}
		return n, time.Since(t0), nil
	}
}

// goAllocs counts the Go heap allocations fn makes.
func goAllocs(fn func() error) (float64, error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err := fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), err
}

// prober runs the layer probes of one traced run.
type prober struct {
	o   options
	tr  *tracer
	res *result
}

// probe runs fn under a span named after the layer it calls into.
func (p *prober) probe(name string, fn func() error) error {
	s := p.tr.begin("probe."+name, 0)
	err := fn()
	p.tr.end(s)
	if err != nil {
		return fmt.Errorf("probe %s: %w", name, err)
	}
	return nil
}

// set measures one metric: median ns per operation of batch, divided by div.
func (p *prober) set(name string, div float64, batch func() (int, time.Duration, error)) error {
	ns, err := measure(p.o.probeDur, batch)
	p.res.set(name, ns/div)
	return err
}

// runProbes times calls into each package's public functions.
func runProbes(o options, tr *tracer, res *result) error {
	p := &prober{o: o, tr: tr, res: res}
	for _, pr := range []struct {
		name string
		fn   func() error
	}{
		{"interp", p.interp}, {"barrier", p.barrier}, {"heap", p.heap}, {"memlimit", p.memlimit},
		{"sched", p.sched}, {"core", p.core}, {"audit", p.audit}, {"loader", p.loader},
		{"codecache", p.codecache}, {"membal", p.membal}, {"shared", p.shared}, {"telemetry", p.telemetry},
	} {
		if err := p.probe(pr.name, pr.fn); err != nil {
			return err
		}
	}
	return nil
}

// newProbeVM builds a production-engine VM.
func newProbeVM(codeCache bool) (*core.VM, error) {
	cfg := vmConfig
	cfg.CodeCache = codeCache
	return core.NewVM(cfg)
}

// newResident starts a process that outlives its request threads the way a
// tenant does: the program plus the serving plane's keeper daemon.
func newResident(vm *core.VM, mod *bytecode.Module) (*core.Process, error) {
	proc, err := vm.NewProcess("probe", core.ProcessOptions{MemLimit: 32 << 20})
	if err != nil {
		return nil, err
	}
	for _, m := range []*bytecode.Module{mod, jserv.KeeperModule()} {
		if err := proc.Load(m); err != nil {
			return nil, err
		}
	}
	if _, err := proc.SpawnDaemon(jserv.KeeperClass, "main()V"); err != nil {
		return nil, err
	}
	return proc, nil
}

// runThread spawns one thread and times its run to completion.
func runThread(vm *core.VM, proc *core.Process, cls, key string, want int64, args ...interp.Slot) (time.Duration, error) {
	th, err := proc.Spawn(cls, key, args...)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := vm.Run(0); err != nil {
		return 0, err
	}
	d := time.Since(t0)
	if th.State != interp.StateFinished || th.Result.I != want {
		return 0, fmt.Errorf("%s.%s returned %d (state %v), want %d", cls, key, th.Result.I, th.State, want)
	}
	return d, nil
}

// throwSource raises and catches n exceptions across a call frame.
const throwSource = `
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

func (p *prober) interp() error {
	compress := spec.Compress()
	for _, e := range []struct {
		suffix string
		kind   core.EngineKind
	}{{"jit-opt", core.EngineJITOpt}, {"jit", core.EngineJIT}, {"interp", core.EngineInterp}} {
		plat := batchPlatform
		plat.Engine = e.kind
		err := p.set("interp.ns_per_kcycle."+e.suffix, 1, func() (int, time.Duration, error) {
			r, err := spec.Run(compress, plat)
			return int(r.Cycles / 1000), r.Wall, err
		})
		if err != nil {
			return err
		}
	}

	vm, err := newProbeVM(false)
	if err != nil {
		return err
	}
	const wideCalls = 96 // static calls selftest()I makes, one per stage
	wide, err := newResident(vm, jserv.NetWideModule())
	if err != nil {
		return err
	}
	first, err := wide.Spawn(jserv.NetWideClass, "selftest()I")
	if err != nil {
		return err
	}
	if err := vm.Run(0); err != nil {
		return err
	}
	want := first.Result.I
	selftest := func() (int, time.Duration, error) {
		d, err := runThread(vm, wide, jserv.NetWideClass, "selftest()I", want)
		return wideCalls, d, err
	}
	if err := p.set("interp.call_ns", 1, selftest); err != nil {
		return err
	}
	allocs, err := goAllocs(func() error { _, _, err := selftest(); return err })
	p.res.set("interp.call_go_allocs", allocs/wideCalls)
	if err != nil {
		return err
	}
	wide.Kill(nil)

	const throws = 2000
	thrower, err := newResident(vm, bytecode.MustAssemble(throwSource))
	if err != nil {
		return err
	}
	defer thrower.Kill(nil)
	return p.set("interp.throw_catch_ns", 1, func() (int, time.Duration, error) {
		d, err := runThread(vm, thrower, "t/E", "run(I)I", throws, interp.IntSlot(throws))
		return throws, d, err
	})
}

// heapWorld is the smallest world the heap, barrier and memlimit layers
// run in: an address space, a registry, one user heap, a linkable node
// class and an int-array class.
type heapWorld struct {
	reg  *heap.Registry
	root *memlimit.Limit
	user *heap.Heap
	node *object.Class
	ints *object.Class
}

func newHeapWorld(headerExtra int) (*heapWorld, error) {
	w := &heapWorld{
		reg:  heap.NewRegistry(vmaddr.NewSpace(), heap.Config{HeaderExtra: headerExtra}),
		root: memlimit.NewRoot("root", memlimit.Unlimited),
	}
	w.user = w.reg.NewHeap(heap.KindUser, "user", w.root.MustChild("user", memlimit.Unlimited, false))
	mod := bytecode.MustAssemble(".class java/lang/Object\n.end\n.class t/N\n.field next Lt/N;\n.end")
	objDef, _ := mod.Class("java/lang/Object")
	objC, err := object.NewClass(objDef, nil, "b", true)
	if err != nil {
		return nil, err
	}
	nDef, _ := mod.Class("t/N")
	if w.node, err = object.NewClass(nDef, objC, "b", false); err != nil {
		return nil, err
	}
	intDesc, err := bytecode.ParseDesc("I")
	if err != nil {
		return nil, err
	}
	w.ints = object.NewArrayClass("[I", intDesc, nil, objC, "b")
	return w, nil
}

func noRoots(func(*object.Object)) {}

// fill allocates n nodes in h, chained in runs of 32 when live, and
// returns the root set that keeps them all reachable.
func (w *heapWorld) fill(h *heap.Heap, n int, live bool) (heap.RootFunc, error) {
	var heads []*object.Object
	var prev *object.Object
	for i := 0; i < n; i++ {
		o, err := h.Alloc(w.node)
		if err != nil {
			return nil, err
		}
		if !live {
			continue
		}
		o.SetRef(0, prev)
		prev = o
		if i%32 == 31 || i == n-1 {
			heads = append(heads, o)
			prev = nil
		}
	}
	return func(visit func(*object.Object)) {
		for _, o := range heads {
			visit(o)
		}
	}, nil
}

func (p *prober) barrier() error {
	for _, b := range []struct {
		suffix string
		bar    barrier.Barrier
	}{{"none", barrier.NoBarrier}, {"heap-pointer", barrier.HeapPointer}, {"no-heap-pointer", barrier.NoHeapPointer}} {
		w, err := newHeapWorld(b.bar.HeaderExtra())
		if err != nil {
			return err
		}
		holder, err := w.user.Alloc(w.node)
		if err != nil {
			return err
		}
		ref, err := w.user.Alloc(w.node)
		if err != nil {
			return err
		}
		var st barrier.Stats
		err = p.set("barrier.store_ns."+b.suffix, 1, loop(100_000, func() error {
			return b.bar.Write(w.reg, holder, ref, false, &st)
		}))
		if err != nil {
			return err
		}
	}
	db, _ := spec.ByName("db")
	r, err := spec.Run(db, batchPlatform)
	p.res.set("barrier.stores.db", float64(r.Barriers))
	return err
}

func (p *prober) heap() error {
	const objs = 2000 // per heap, as in the repository's BenchmarkGCParallel
	w, err := newHeapWorld(0)
	if err != nil {
		return err
	}
	alloc := func() (int, time.Duration, error) {
		n, d, err := loop(20_000, func() error { _, err := w.user.Alloc(w.node); return err })()
		w.user.Collect(noRoots)
		return n, d, err
	}
	if err := p.set("heap.alloc_ns", 1, alloc); err != nil {
		return err
	}
	allocs, err := goAllocs(func() error { _, _, err := alloc(); return err })
	p.res.set("heap.alloc_go_allocs", allocs/20_000)
	if err != nil {
		return err
	}
	st := w.user.Stats()
	p.res.set("memlimit.lease_hit_share", float64(st.FastHits)/float64(st.FastHits+st.FastMisses))

	err = p.set("heap.alloc_array_16k_ns", 1, func() (int, time.Duration, error) {
		n, d, err := loop(100, func() error { _, err := w.user.AllocArray(w.ints, 4096); return err })()
		w.user.Collect(noRoots)
		return n, d, err
	})
	if err != nil {
		return err
	}

	roots, err := w.fill(w.user, objs, true)
	if err != nil {
		return err
	}
	err = p.set("heap.collect_ns_per_live_obj", 1, func() (int, time.Duration, error) {
		t0 := time.Now()
		w.user.Collect(roots)
		return objs, time.Since(t0), nil
	})
	if err != nil {
		return err
	}

	// Copy the live heap into a fresh one (what checkpoint and fork do),
	// then destroy the copy (what template release and a failed fork do).
	var copies, destroys []float64
	start := time.Now()
	for len(copies) < 3 || time.Since(start) < p.o.probeDur {
		lim := w.root.MustChild("copy", memlimit.Unlimited, false)
		dst := w.reg.NewHeap(heap.KindUser, "copy", lim)
		t0 := time.Now()
		_, err := w.user.CopyInto(dst, func(c *object.Class) (*object.Class, error) { return c, nil })
		t1 := time.Now()
		if err == nil {
			err = dst.Destroy()
		}
		t2 := time.Now()
		if err != nil {
			return err
		}
		lim.Release()
		copies = append(copies, float64(t1.Sub(t0).Nanoseconds())/objs)
		destroys = append(destroys, float64(t2.Sub(t1).Nanoseconds())/1e3)
	}
	p.res.set("heap.copy_ns_per_obj", median(copies))
	p.res.set("heap.destroy_us", median(destroys))

	dead := w.reg.NewHeap(heap.KindUser, "dead", w.root.MustChild("dead", memlimit.Unlimited, false))
	return p.set("heap.collect_ns_per_dead_obj", 1, func() (int, time.Duration, error) {
		if _, err := w.fill(dead, objs, false); err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		dead.Collect(noRoots)
		return objs, time.Since(t0), nil
	})
}

func (p *prober) memlimit() error {
	// A process limit sits three soft levels under the root.
	l := memlimit.NewRoot("root", memlimit.Unlimited).
		MustChild("l1", memlimit.Unlimited, false).
		MustChild("l2", memlimit.Unlimited, false).
		MustChild("l3", 64<<20, false)
	err := p.set("memlimit.debit_ns", 1, loop(100_000, func() error {
		err := l.Debit(64)
		l.Credit(64)
		return err
	}))
	if err != nil {
		return err
	}
	err = p.set("memlimit.debit_lease_ns", 1, loop(100_000, func() error {
		lease, err := l.DebitLease(64, 64<<10, 0)
		l.Credit(64 + lease)
		return err
	}))
	if err != nil {
		return err
	}
	space := vmaddr.NewSpace()
	id := space.NewHeapID()
	return p.set("vmaddr.reserve_release_ns", 1, loop(20_000, func() error {
		base, err := space.Reserve(id, 16)
		if err == nil {
			space.Release(id, base, 16)
		}
		return err
	}))
}

const yieldSource = `
.class t/Y
.method main ()V static
.locals 0
.stack 1
L0:	invokestatic java/lang/Thread.yield ()V
	goto L0
.end
.end`

func (p *prober) sched() error {
	vm, err := newProbeVM(false)
	if err != nil {
		return err
	}
	proc, err := newResident(vm, bytecode.MustAssemble(yieldSource))
	if err != nil {
		return err
	}
	defer proc.Kill(nil)
	for i := 0; i < 2; i++ {
		if _, err := proc.Spawn("t/Y", "main()V"); err != nil {
			return err
		}
	}
	return p.set("sched.step_ns", 1, loop(20_000, func() error {
		progressed, err := vm.Sched.Step()
		if err == nil && !progressed {
			err = fmt.Errorf("scheduler idle with two yielding threads")
		}
		return err
	}))
}

const spinSource = `
.class t/P
.method main ()V static
.locals 0
.stack 1
L0:	goto L0
.end
.end`

// reclaimed kills proc, runs its threads to their end and checks that the
// process gave everything back.
func reclaimed(vm *core.VM, proc *core.Process) error {
	proc.Kill(nil)
	if err := vm.Run(0); err != nil {
		return err
	}
	if proc.State() != core.ProcReclaimed {
		return fmt.Errorf("process %s not reclaimed: %v", proc.Name, proc.State())
	}
	return nil
}

func (p *prober) core() error {
	vm, err := newProbeVM(false)
	if err != nil {
		return err
	}
	spin := bytecode.MustAssemble(spinSource)
	err = p.set("core.proc_lifecycle_us", 1e3, loop(1, func() error {
		proc, err := vm.NewProcess("cycle", core.ProcessOptions{MemLimit: 1 << 20})
		if err != nil {
			return err
		}
		if err := proc.Load(spin); err != nil {
			return err
		}
		if _, err := proc.Spawn("t/P", "main()V"); err != nil {
			return err
		}
		if err := vm.Run(200_000); err != nil {
			return err
		}
		return reclaimed(vm, proc)
	}))
	if err != nil {
		return err
	}

	warm := jserv.NetWarmModule()
	opts := core.ProcessOptions{MemLimit: 8 << 20}
	err = p.set("core.init_coldstart_us", 1e3, loop(1, func() error {
		proc, err := vm.NewProcess("cold", opts)
		if err != nil {
			return err
		}
		if err := proc.Load(warm); err != nil {
			return err
		}
		return reclaimed(vm, proc)
	}))
	if err != nil {
		return err
	}
	zygote, err := vm.NewProcess("zygote", opts)
	if err != nil {
		return err
	}
	if err := zygote.Load(warm); err != nil {
		return err
	}
	tpl, err := vm.Checkpoint(zygote, "probe")
	if err != nil {
		return err
	}
	zygote.Kill(nil)
	err = p.set("core.fork_coldstart_us", 1e3, loop(1, func() error {
		clone, err := tpl.Fork("clone", opts)
		if err != nil {
			return err
		}
		return reclaimed(vm, clone)
	}))
	if err != nil {
		return err
	}
	if err := tpl.Release(); err != nil {
		return err
	}

	// A process holding 1 MiB of arrays, as the hog does when its memlimit
	// kills it: time the kill, the merge into the kernel heap and the
	// kernel collection that frees the bytes.
	return p.set("core.kill_reclaim_us", 1e3, func() (int, time.Duration, error) {
		proc, err := vm.NewProcess("hog", core.ProcessOptions{MemLimit: 2 << 20})
		if err != nil {
			return 0, 0, err
		}
		ints, err := proc.Loader.Class("[I")
		if err != nil {
			return 0, 0, err
		}
		for i := 0; i < 64; i++ {
			if _, err := proc.Heap.AllocArray(ints, 4096); err != nil {
				return 0, 0, err
			}
		}
		t0 := time.Now()
		err = reclaimed(vm, proc)
		return 1, time.Since(t0), err
	})
}

// audit times the full invariant audit (object graph included) of a VM
// loaded the way a serve_heavy shard is: four tenant processes, each with a
// servlet, a keeper and 256 KiB of request arrays on its heap.
func (p *prober) audit() error {
	vm, err := newProbeVM(false)
	if err != nil {
		return err
	}
	for i := 0; i < 4; i++ {
		proc, err := newResident(vm, jserv.NetServletModule())
		if err != nil {
			return err
		}
		ints, err := proc.Loader.Class("[I")
		if err != nil {
			return err
		}
		for j := 0; j < 16; j++ {
			if _, err := proc.Heap.AllocArray(ints, 4096); err != nil {
				return err
			}
		}
	}
	return p.set("audit.full_ms", 1e6, loop(1, func() error {
		if rep := vm.Audit(true); !rep.OK() {
			return fmt.Errorf("audit failed:\n%s", rep)
		}
		return nil
	}))
}

func (p *prober) loader() error {
	var sources []string
	for _, w := range spec.All() {
		sources = append(sources, w.Source)
	}
	err := p.set("bytecode.assemble_us.spec", 1e3, loop(1, func() error {
		for _, src := range sources {
			if _, err := bytecode.Assemble(src); err != nil {
				return err
			}
		}
		return nil
	}))
	if err != nil {
		return err
	}

	vm, err := newProbeVM(false)
	if err != nil {
		return err
	}
	wide := jserv.NetWideModule()
	define := func(def func(*core.Process) error) func() (int, time.Duration, error) {
		return func() (int, time.Duration, error) {
			proc, err := vm.NewProcess("define", core.ProcessOptions{MemLimit: 8 << 20})
			if err != nil {
				return 0, 0, err
			}
			t0 := time.Now()
			err = def(proc)
			d := time.Since(t0)
			proc.Kill(nil)
			return 1, d, err
		}
	}
	err = p.set("loader.define_verify_us.netwide", 1e3, define(func(proc *core.Process) error { return proc.Loader.DefineModule(wide) }))
	if err != nil {
		return err
	}
	err = p.set("loader.define_preverified_us.netwide", 1e3, define(func(proc *core.Process) error { return proc.Loader.DefinePreverified(wide) }))
	if err != nil {
		return err
	}

	proc, err := vm.NewProcess("compile", core.ProcessOptions{MemLimit: 8 << 20})
	if err != nil {
		return err
	}
	defer proc.Kill(nil)
	if err := proc.Loader.DefineModule(wide); err != nil {
		return err
	}
	var classes []*object.Class
	for _, def := range wide.Classes {
		c, err := proc.Loader.Class(def.Name)
		if err != nil {
			return err
		}
		classes = append(classes, c)
	}
	return p.set("interp.compile_us.netwide", 1e3, loop(1, func() error {
		_, err := (&interp.JIT{Fused: true, InlineCache: true}).CompileProgram(classes)
		return err
	}))
}

// codecache times a cold start served by the shared code cache: the first
// load compiles and inserts, every later load verifies nothing, compiles
// nothing and attaches.
func (p *prober) codecache() error {
	vm, err := newProbeVM(true)
	if err != nil {
		return err
	}
	wide := jserv.NetWideModule()
	load := func() (int, time.Duration, error) {
		proc, err := vm.NewProcess("wide", core.ProcessOptions{MemLimit: 8 << 20})
		if err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		err = proc.Load(wide)
		d := time.Since(t0)
		proc.Kill(nil)
		return 1, d, err
	}
	if _, _, err := load(); err != nil {
		return err
	}
	key := codecache.Key{ModuleHash: wide.Hash(), Variant: (&interp.JIT{Fused: true, InlineCache: true}).Variant()}
	if !vm.CodeMgr.Peek(key) {
		return fmt.Errorf("first load left no artifact in the code cache")
	}
	if err := p.set("codecache.load_hit_us.netwide", 1e3, load); err != nil {
		return err
	}
	k := vm.Tel.Reg.Kernel()
	hits, misses := k.Counter(telemetry.MCodeHits).Value(), k.Counter(telemetry.MCodeMisses).Value()
	p.res.set("codecache.hit_share", float64(hits)/float64(hits+misses))
	return nil
}

func (p *prober) membal() error {
	const tenants = 64
	root := memlimit.NewRoot("root", memlimit.Unlimited)
	ctl := &membal.Controller{Budget: tenants * (4 << 20)}
	targets := make([]membal.Target, tenants)
	for i := range targets {
		l := root.MustChild(fmt.Sprintf("t%d", i), 4<<20, false)
		live := uint64(256+(i%32)*64) << 10
		if err := l.Debit(live); err != nil {
			return err
		}
		targets[i] = membal.Target{ID: int32(i), Limit: l, Live: live}
	}
	var round uint64
	return p.set("membal.rebalance_ns_per_tenant", tenants, loop(1, func() error {
		for j := range targets {
			targets[j].AllocBytes += uint64(1+j%7) << 12 // skewed, so the split keeps moving
		}
		round++
		ctl.Rebalance(round*100_000, targets)
		return nil
	}))
}

func (p *prober) shared() error {
	w, err := newHeapWorld(0)
	if err != nil {
		return err
	}
	kernel := w.reg.NewHeap(heap.KindKernel, "kernel", w.root.MustChild("kernel", memlimit.Unlimited, false))
	mgr := shared.NewManager(w.reg, w.root.MustChild("shared-base", memlimit.Unlimited, false))
	creator := w.root.MustChild("creator", 1<<20, false)
	var n int
	return p.set("shared.create_freeze_attach_us", 1e3, loop(1, func() error {
		n++
		sh, err := mgr.Create(fmt.Sprintf("box%d", n), creator, 64<<10)
		if err != nil {
			return err
		}
		if sh.Root, err = sh.H.Alloc(w.node); err != nil {
			return err
		}
		if err := mgr.Freeze(sh); err != nil {
			return err
		}
		if err := mgr.Attach(sh, p, creator); err != nil {
			return err
		}
		mgr.Detach(sh, p)
		mgr.ReclaimOrphans(kernel)
		kernel.Collect(noRoots)
		return nil
	}))
}

func (p *prober) telemetry() error {
	for _, on := range []bool{true, false} {
		rec := telemetry.NewSpanRecorder(0)
		rec.SetEnabled(on)
		k := telemetry.NewHub(0).Reg.Kernel()
		queue, marshal := k.Histogram(telemetry.MSpanQueueNs), k.Histogram(telemetry.MSpanMarshalNs)
		exec, gc := k.Histogram(telemetry.MSpanExecCycles), k.Histogram(telemetry.MSpanGCCycles)
		total := k.Histogram(telemetry.MSpanTotalNs)
		name := "telemetry.span_off_ns"
		if on {
			name = "telemetry.span_on_ns"
		}
		// What the serving plane does per request: the enabled check, and
		// with spans on the ledger, the ring and five histograms.
		err := p.set(name, 1, loop(100_000, func() error {
			if !rec.Enabled() {
				return nil
			}
			sp := telemetry.Span{ID: rec.NextID(), Route: "/bench", Pid: 1, Status: 200, QueueNs: 120, MarshalNs: 40,
				ExecCycles: 2000, GCCycles: 500, GCNs: telemetry.CyclesToNs(500), Quanta: 2, TotalNs: 5000}
			rec.Record(sp)
			queue.Observe(uint64(sp.QueueNs))
			marshal.Observe(uint64(sp.MarshalNs))
			exec.Observe(sp.ExecCycles)
			gc.Observe(sp.GCCycles)
			total.Observe(uint64(sp.TotalNs))
			return nil
		}))
		if err != nil {
			return err
		}
	}
	return nil
}
