package core

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"
	"weak"

	"repro/internal/codecache"
	"repro/internal/faults"
	"repro/internal/interp"
	"repro/internal/object"
	"repro/internal/telemetry"
)

func newCacheVM(t testing.TB, cfg Config) *VM {
	t.Helper()
	cfg.CodeCache = true
	if cfg.Engine == "" {
		cfg.Engine = EngineJITOpt
	}
	vm, err := NewVM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return vm
}

// Two processes loading identical bytecode share one artifact: the
// second load hits the cache, both are charged the full size, and the
// books reconcile through attach/detach/kill churn.
func TestCodeCacheSharing(t *testing.T) {
	vm := newCacheVM(t, Config{})
	kernel := vm.Tel.Reg.Kernel()

	var out1, out2 bytes.Buffer
	p1 := mustProc(t, vm, "a", ProcessOptions{Out: &out1})
	load(t, p1, helloSrc)
	missesAfterFirst := kernel.Counter(telemetry.MCodeMisses).Value()

	p2 := mustProc(t, vm, "b", ProcessOptions{Out: &out2})
	load(t, p2, helloSrc)
	if got := kernel.Counter(telemetry.MCodeMisses).Value(); got != missesAfterFirst {
		t.Fatalf("second identical load compiled again: misses %d -> %d", missesAfterFirst, got)
	}
	if kernel.Counter(telemetry.MCodeHits).Value() == 0 {
		t.Fatal("second identical load did not hit the cache")
	}

	// Full charging: each sharer owes the whole artifact size.
	c1, c2 := vm.CodeMgr.BytesFor(p1), vm.CodeMgr.BytesFor(p2)
	if c1 == 0 || c1 != c2 {
		t.Fatalf("code charges %d/%d, want equal and nonzero", c1, c2)
	}
	auditClean(t, vm, "after shared loads")

	// Shared code must not change behaviour.
	spawn(t, p1, "app/Hello", "main()V")
	spawn(t, p2, "app/Hello", "main()V")
	if err := vm.Run(0); err != nil {
		t.Fatal(err)
	}
	if out1.String() != "hello, kaffeos\n" || out2.String() != "hello, kaffeos\n" {
		t.Fatalf("outputs %q / %q", out1.String(), out2.String())
	}

	// Both processes exited and reclaimed: every sharer charge is
	// credited back; the artifacts stay resident on the base limit.
	if got := vm.CodeMgr.BytesFor(p1); got != 0 {
		t.Fatalf("reclaimed process still charged %d", got)
	}
	if vm.CodeMgr.Len() == 0 {
		t.Fatal("artifacts vanished with their sharers (eviction is membal's job)")
	}
	auditClean(t, vm, "after reclamation")

	// Orphan eviction returns the residency and the books still balance.
	vm.CodeMgr.EvictOrphans()
	if got := vm.CodeMgr.ResidentBytes(); got != 0 {
		t.Fatalf("resident %d after orphan eviction", got)
	}
	auditClean(t, vm, "after eviction")
}

// The ps/top snapshot carries the CODE column for live processes.
func TestCodeCacheSnapshotColumn(t *testing.T) {
	vm := newCacheVM(t, Config{})
	p := mustProc(t, vm, "a", ProcessOptions{})
	load(t, p, helloSrc)
	var row *telemetry.ProcRow
	for i, r := range vm.Snapshot().Procs {
		if r.Pid == int32(p.ID) {
			row = &vm.Snapshot().Procs[i]
		}
	}
	if row == nil {
		t.Fatal("process missing from snapshot")
	}
	if row.CodeBytes != vm.CodeMgr.BytesFor(p) || row.CodeBytes == 0 {
		t.Fatalf("CODE column %d, manager says %d", row.CodeBytes, vm.CodeMgr.BytesFor(p))
	}
	var buf bytes.Buffer
	telemetry.RenderTable(&buf, vm.Snapshot())
	if !strings.Contains(buf.String(), "CODE-B") {
		t.Fatalf("rendered table lacks CODE-B column:\n%s", buf.String())
	}
	p.Kill(errors.New("done"))
}

// Fork shares the zygote's handles: the template pins the artifacts, a
// fork attaches to them (cache hits, no recompilation), and the clone
// still behaves identically — even after the origin dies.
func TestCodeCacheForkShares(t *testing.T) {
	vm := newCacheVM(t, Config{})
	kernel := vm.Tel.Reg.Kernel()

	origin := warmProc(t, vm, "zygote")
	tpl := mustCheckpoint(t, vm, origin, "warm")
	if got := vm.CodeMgr.BytesFor(tpl); got == 0 {
		t.Fatal("template holds no code handles")
	}
	origin.Kill(errors.New("origin retired"))
	auditClean(t, vm, "after origin death")

	// The template keeps the artifacts unevictable.
	if freed := vm.CodeMgr.EvictOrphans(); freed != 0 {
		t.Fatalf("eviction dropped %d bytes pinned by the template", freed)
	}

	missesBefore := kernel.Counter(telemetry.MCodeMisses).Value()
	clone := mustFork(t, tpl, "clone", ProcessOptions{})
	if got := kernel.Counter(telemetry.MCodeMisses).Value(); got != missesBefore {
		t.Fatalf("fork recompiled: misses %d -> %d", missesBefore, got)
	}
	if got := vm.CodeMgr.BytesFor(clone); got == 0 {
		t.Fatal("fork attached no code")
	}
	auditClean(t, vm, "after fork")

	// The clone answers from the warmed table without any clinit.
	th := spawn(t, clone, "app/Warm", "lookup(I)I", interp.IntSlot(7))
	if err := vm.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := th.Result.I; got != 49 {
		t.Fatalf("lookup(7) = %d, want 49", got)
	}

	if err := tpl.Release(); err != nil {
		t.Fatal(err)
	}
	auditClean(t, vm, "after release")
	vm.CodeMgr.EvictOrphans()
	if got := vm.CodeMgr.ResidentBytes(); got != 0 {
		t.Fatalf("resident %d after release+eviction", got)
	}
	auditClean(t, vm, "after final eviction")
}

// A codecache.attach fault mid-NewProcess unwinds the half-built
// process: zero leaked bytes, zero refcounts, clean audit, and the next
// creation succeeds.
func TestCodeCacheAttachFault(t *testing.T) {
	plan, err := faults.ParsePlan("seed=1,codecache.attach=@1")
	if err != nil {
		t.Fatal(err)
	}
	vm := newCacheVM(t, Config{Faults: faults.NewPlane(plan)})

	if _, err := vm.NewProcess("doomed", ProcessOptions{}); err == nil {
		t.Fatal("NewProcess survived an injected attach fault")
	} else if !errors.Is(err, codecache.ErrAttachFault) {
		t.Fatalf("err = %v, want ErrAttachFault", err)
	}
	for _, a := range vm.CodeMgr.Artifacts() {
		if n := a.Sharers(); n != 0 {
			t.Fatalf("artifact %q leaked %d refcount(s)", a.Name, n)
		}
	}
	auditClean(t, vm, "after aborted attach")

	p := mustProc(t, vm, "ok", ProcessOptions{})
	if got := vm.CodeMgr.BytesFor(p); got == 0 {
		t.Fatal("post-fault creation attached no code")
	}
	auditClean(t, vm, "after recovery")
}

// A codecache.attach fault during Load leaves the module defined (the
// namespace stays consistent) but nothing charged.
func TestCodeCacheLoadFault(t *testing.T) {
	plan, err := faults.ParsePlan("seed=1,codecache.attach=@2")
	if err != nil {
		t.Fatal(err)
	}
	vm := newCacheVM(t, Config{Faults: faults.NewPlane(plan)})
	p := mustProc(t, vm, "a", ProcessOptions{}) // attach #1: reloaded library
	charged := vm.CodeMgr.BytesFor(p)

	if err := p.Load(mustModule(t, helloSrc)); !errors.Is(err, codecache.ErrAttachFault) {
		t.Fatalf("Load err = %v, want ErrAttachFault", err)
	}
	if got := vm.CodeMgr.BytesFor(p); got != charged {
		t.Fatalf("aborted load changed code charge %d -> %d", charged, got)
	}
	auditClean(t, vm, "after aborted load")

	// The class is defined; the process can still run it (compiling
	// privately through the normal lazy path).
	spawn(t, p, "app/Hello", "main()V")
	if err := vm.Run(0); err != nil {
		t.Fatal(err)
	}
	auditClean(t, vm, "after run without cached code")
}

// Rebalance evicts orphans under pressure and spares live sharers.
func TestCodeCacheEvictionUnderPressure(t *testing.T) {
	vm := newCacheVM(t, Config{MemBudget: 1, MemBalInterval: 1})
	p1 := mustProc(t, vm, "a", ProcessOptions{})
	load(t, p1, helloSrc)
	p2 := mustProc(t, vm, "b", ProcessOptions{})
	load(t, p2, helloSrc)

	before := vm.CodeMgr.Len()
	vm.Rebalance() // budget 1 byte: maximum pressure, but everything has sharers
	if got := vm.CodeMgr.Len(); got != before {
		t.Fatalf("pressure evicted artifacts with live sharers: %d -> %d", before, got)
	}

	p1.Kill(errors.New("bye"))
	vm.Rebalance() // p2 still shares everything it loaded
	if got := vm.CodeMgr.Len(); got != before {
		t.Fatalf("eviction dropped artifacts shared by a live process: %d -> %d", before, got)
	}

	p2.Kill(errors.New("bye"))
	vm.Rebalance() // now orphaned: pressure clears the cache
	if got := vm.CodeMgr.Len(); got != 0 {
		t.Fatalf("%d orphaned artifacts survived pressure", got)
	}
	auditClean(t, vm, "after pressure eviction")
}

// Interpreter engines compile nothing; the cache stays off for them.
func TestCodeCacheInterpNoop(t *testing.T) {
	vm := newCacheVM(t, Config{Engine: EngineInterp})
	if vm.CodeMgr != nil {
		t.Fatal("interpreter engine built a code cache")
	}
	p := mustProc(t, vm, "a", ProcessOptions{})
	load(t, p, helloSrc)
	spawn(t, p, "app/Hello", "main()V")
	if err := vm.Run(0); err != nil {
		t.Fatal(err)
	}
	auditClean(t, vm, "interp no-op")
}

const virtualSrc = `
.class app/A
.method <init> ()V
.locals 1
.stack 1
	aload 0
	invokespecial java/lang/Object.<init> ()V
	return
.end
.method val ()I
.locals 1
.stack 1
	iconst 7
	ireturn
.end
.method main ()I static
.locals 0
.stack 2
	new app/A
	dup
	invokespecial app/A.<init> ()V
	invokevirtual app/A.val ()I
	ireturn
.end
.end`

// A shared artifact holds nothing process-specific: once a sharer that
// ran a virtual call through it is reclaimed, neither the process nor its
// classes stay reachable from the code cache, while another sharer keeps
// the artifact attached and running.
func TestCodeCacheArtifactHoldsNoProcessState(t *testing.T) {
	vm := newCacheVM(t, Config{})
	p2 := mustProc(t, vm, "p2", ProcessOptions{})
	wp, wc := runAndReclaim(t, vm, p2)
	if vm.CodeMgr.Len() == 0 || vm.CodeMgr.BytesFor(p2) == 0 {
		t.Fatal("the surviving sharer lost its artifact")
	}
	runtime.GC()
	runtime.GC()
	if wp.Value() != nil {
		t.Error("reclaimed process is still reachable")
	}
	if wc.Value() != nil {
		t.Error("reclaimed process's class app/A is still reachable from the shared artifact")
	}

	th := spawn(t, p2, "app/A", "main()I")
	if err := vm.Run(0); err != nil {
		t.Fatal(err)
	}
	if th.State != interp.StateFinished || th.Result.I != 7 {
		t.Fatalf("surviving sharer: state %v result %d err %v", th.State, th.Result.I, th.Err)
	}
	auditClean(t, vm, "after reclaiming one sharer")
}

// runAndReclaim loads virtualSrc into a fresh process p1 and into p2, runs
// p1's virtual call to completion so p1 is reclaimed, and returns weak
// pointers to p1 and its class app/A.
func runAndReclaim(t *testing.T, vm *VM, p2 *Process) (weak.Pointer[Process], weak.Pointer[object.Class]) {
	t.Helper()
	p1 := mustProc(t, vm, "p1", ProcessOptions{})
	load(t, p1, virtualSrc)
	load(t, p2, virtualSrc)
	cls, err := p1.Loader.Class("app/A")
	if err != nil {
		t.Fatal(err)
	}
	spawn(t, p1, "app/A", "main()I")
	if err := vm.Run(0); err != nil {
		t.Fatal(err)
	}
	if st := p1.State(); st != ProcReclaimed {
		t.Fatalf("p1 is %v after its only thread exited, want reclaimed", st)
	}
	return weak.Make(p1), weak.Make(cls)
}
