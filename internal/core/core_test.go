package core

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/interp"
	"repro/internal/jserv"
)

func newTestVM(t testing.TB) *VM {
	t.Helper()
	vm, err := NewVM(Config{})
	if err != nil {
		t.Fatal(err)
	}
	return vm
}

func mustProc(t testing.TB, vm *VM, name string, opts ProcessOptions) *Process {
	t.Helper()
	p, err := vm.NewProcess(name, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func load(t testing.TB, p *Process, src string) {
	t.Helper()
	if err := p.Load(bytecode.MustAssemble(src)); err != nil {
		t.Fatal(err)
	}
}

func spawn(t testing.TB, p *Process, cls, key string, args ...interp.Slot) *interp.Thread {
	t.Helper()
	th, err := p.Spawn(cls, key, args...)
	if err != nil {
		t.Fatal(err)
	}
	return th
}

const helloSrc = `
.class app/Hello
.method main ()V static
.locals 0
.stack 2
	getstatic java/lang/System.out Ljava/io/PrintStream;
	ldc "hello, kaffeos"
	invokevirtual java/io/PrintStream.println (Ljava/lang/String;)V
	return
.end
.end`

func TestHelloWorld(t *testing.T) {
	vm := newTestVM(t)
	var out bytes.Buffer
	p := mustProc(t, vm, "hello", ProcessOptions{Out: &out})
	load(t, p, helloSrc)
	spawn(t, p, "app/Hello", "main()V")
	if err := vm.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != "hello, kaffeos\n" {
		t.Errorf("output = %q", got)
	}
	if p.State() != ProcReclaimed {
		t.Errorf("process state = %v", p.State())
	}
}

func TestProcessIsolationStatics(t *testing.T) {
	// Two processes mutate the same (reloaded) class statics: changes must
	// not leak between namespaces.
	vm := newTestVM(t)
	src := `
.class app/S
.static v I
.method set (I)V static
.locals 1
.stack 1
	iload 0
	putstatic app/S.v I
	return
.end
.method get ()I static
.locals 0
.stack 1
	getstatic app/S.v I
	ireturn
.end
.end`
	p1 := mustProc(t, vm, "a", ProcessOptions{})
	p2 := mustProc(t, vm, "b", ProcessOptions{})
	load(t, p1, src)
	load(t, p2, src)
	spawn(t, p1, "app/S", "set(I)V", interp.IntSlot(111))
	spawn(t, p2, "app/S", "set(I)V", interp.IntSlot(222))
	if err := vm.Run(0); err != nil {
		t.Fatal(err)
	}
	// Re-create: processes reclaimed; test with live reads instead.
	p3 := mustProc(t, vm, "c", ProcessOptions{})
	load(t, p3, src)
	th := spawn(t, p3, "app/S", "get()I")
	if err := vm.Run(0); err != nil {
		t.Fatal(err)
	}
	if th.Result.I != 0 {
		t.Errorf("fresh process saw static value %d", th.Result.I)
	}
}

func TestCrossProcessReferenceForbidden(t *testing.T) {
	// A process cannot store a reference to another process' object:
	// verified at the VM level by allocating in two heaps directly.
	vm := newTestVM(t)
	p1 := mustProc(t, vm, "a", ProcessOptions{})
	p2 := mustProc(t, vm, "b", ProcessOptions{})
	cls, err := p1.Loader.Class("java/util/ListNode")
	if err != nil {
		t.Fatal(err)
	}
	o1, err := p1.Heap.Alloc(cls)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := p2.Heap.Alloc(cls)
	if err != nil {
		t.Fatal(err)
	}
	errW := vm.Cfg.Barrier.Write(vm.Reg, o1, o2, false, vm.Stats)
	if errW == nil {
		t.Fatal("user->user cross-heap store allowed")
	}
}

func TestMemHogKilledByLimit(t *testing.T) {
	// The MemHog pattern: allocate and keep everything. The process must
	// die with OutOfMemoryError without harming the VM.
	vm := newTestVM(t)
	src := `
.class app/MemHog
.method main ()V static
.locals 2
.stack 4
	new java/util/Vector
	dup
	invokespecial java/util/Vector.<init> ()V
	astore 0
L0:	aload 0
	ldc 1024
	newarray [I
	invokevirtual java/util/Vector.add (Ljava/lang/Object;)V
	goto L0
.end
.end`
	p := mustProc(t, vm, "memhog", ProcessOptions{MemLimit: 1 << 20})
	load(t, p, src)
	spawn(t, p, "app/MemHog", "main()V")
	if err := vm.Run(0); err != nil {
		t.Fatal(err)
	}
	if p.State() != ProcReclaimed {
		t.Fatalf("state = %v", p.State())
	}
	if p.Uncaught() == nil || p.Uncaught().Class.Name != "java/lang/OutOfMemoryError" {
		t.Fatalf("uncaught = %v, want OutOfMemoryError", p.Uncaught())
	}
}

// A process verifies what it loads: code that pops an empty stack is
// refused before any of it is defined.
func TestLoadRejectsUnverifiableCode(t *testing.T) {
	vm := newTestVM(t)
	p := mustProc(t, vm, "bad", ProcessOptions{})
	err := p.Load(bytecode.MustAssemble(".class a/B\n.method m ()V\npop\nreturn\n.end\n.end"))
	if err == nil || !strings.Contains(err.Error(), "pops") {
		t.Errorf("unverifiable code loaded: %v", err)
	}
}

func TestFullReclamationAfterKill(t *testing.T) {
	vm := newTestVM(t)
	src := `
.class app/Loop
.static keep Ljava/util/Vector;
.method main ()V static
.locals 1
.stack 4
	new java/util/Vector
	dup
	invokespecial java/util/Vector.<init> ()V
	putstatic app/Loop.keep Ljava/util/Vector;
L0:	getstatic app/Loop.keep Ljava/util/Vector;
	ldc 256
	newarray [I
	invokevirtual java/util/Vector.add (Ljava/lang/Object;)V
	getstatic app/Loop.keep Ljava/util/Vector;
	invokevirtual java/util/Vector.size ()I
	iconst 64
	if_icmplt L0
	# now spin forever holding the memory
L1:	goto L1
.end
.end`
	p := mustProc(t, vm, "loop", ProcessOptions{MemLimit: 8 << 20})
	load(t, p, src)
	spawn(t, p, "app/Loop", "main()V")
	// Run a while: the hog fills its vector then spins.
	if err := vm.Run(3_000_000); err != nil {
		t.Fatal(err)
	}
	if p.State() != ProcRunning {
		t.Fatalf("state = %v, err=%v", p.State(), p.ExitError())
	}
	if p.HeapBytes() < 64*256*4 {
		t.Fatalf("hog holds only %d bytes", p.HeapBytes())
	}
	limit := p.Limit

	p.Kill(nil)
	if err := vm.Run(0); err != nil {
		t.Fatal(err)
	}
	if p.State() != ProcReclaimed {
		t.Fatalf("state after kill = %v", p.State())
	}
	// Full reclamation: the process' memlimit returned to zero, and the
	// kernel heap does not retain its garbage.
	if use := limit.Use(); use != 0 {
		t.Errorf("process limit still charged %d bytes", use)
	}
	if got := vm.KernelHeap.Bytes(); got > 64<<10 {
		t.Errorf("kernel heap retains %d bytes after reclaim", got)
	}
}

func TestKillDoesNotAffectOtherProcesses(t *testing.T) {
	vm := newTestVM(t)
	spin := `
.class app/Spin
.method main ()V static
.locals 1
.stack 2
	iconst 0
	istore 0
L0:	iinc 0 1
	iload 0
	ldc 2000000
	if_icmplt L0
	return
.end
.end`
	victim := mustProc(t, vm, "victim", ProcessOptions{})
	worker := mustProc(t, vm, "worker", ProcessOptions{})
	load(t, victim, spin)
	load(t, worker, spin)
	spawn(t, victim, "app/Spin", "main()V")
	wt := spawn(t, worker, "app/Spin", "main()V")
	if err := vm.Run(500_000); err != nil {
		t.Fatal(err)
	}
	victim.Kill(nil)
	if err := vm.Run(0); err != nil {
		t.Fatal(err)
	}
	if wt.State != interp.StateFinished {
		t.Fatalf("worker thread state %v, err %v", wt.State, wt.Err)
	}
	if worker.State() != ProcReclaimed {
		t.Errorf("worker did not complete: %v", worker.State())
	}
}

func TestCPUAccountingPerProcess(t *testing.T) {
	vm := newTestVM(t)
	src := `
.class app/Spin
.method main (I)V static
.locals 2
.stack 2
	iconst 0
	istore 1
L0:	iinc 1 1
	iload 1
	iload 0
	if_icmplt L0
	return
.end
.end`
	big := mustProc(t, vm, "big", ProcessOptions{})
	small := mustProc(t, vm, "small", ProcessOptions{})
	load(t, big, src)
	load(t, small, src)
	spawn(t, big, "app/Spin", "main(I)V", interp.IntSlot(500_000))
	spawn(t, small, "app/Spin", "main(I)V", interp.IntSlot(50_000))
	if err := vm.Run(0); err != nil {
		t.Fatal(err)
	}
	if big.CPUCycles() < 5*small.CPUCycles() {
		t.Errorf("cpu accounting off: big=%d small=%d", big.CPUCycles(), small.CPUCycles())
	}
}

func TestGCCyclesChargedToProcess(t *testing.T) {
	vm := newTestVM(t)
	src := `
.class app/Churn
.method main ()V static
.locals 2
.stack 3
	iconst 0
	istore 0
L0:	ldc 512
	newarray [I
	astore 1
	iinc 0 1
	iload 0
	ldc 2000
	if_icmplt L0
	return
.end
.end`
	p := mustProc(t, vm, "churn", ProcessOptions{MemLimit: 1 << 20})
	load(t, p, src)
	spawn(t, p, "app/Churn", "main()V")
	gcsBefore := p.Heap.Stats().GCs
	if err := vm.Run(0); err != nil {
		t.Fatal(err)
	}
	_ = gcsBefore
	if p.State() != ProcReclaimed || p.ExitError() != nil {
		t.Fatalf("state=%v err=%v uncaught=%v", p.State(), p.ExitError(), p.Uncaught())
	}
}

func TestKernelSyscalls(t *testing.T) {
	vm := newTestVM(t)
	src := `
.class app/Sys
.method main ()I static
.locals 1
.stack 2
	invokestatic kaffeos/Kernel.currentPid ()I
	istore 0
	invokestatic kaffeos/Kernel.memUsed ()I
	pop
	invokestatic kaffeos/Kernel.cpuMillis ()I
	pop
	invokestatic kaffeos/Kernel.procCount ()I
	pop
	iload 0
	ireturn
.end
.end`
	p := mustProc(t, vm, "sys", ProcessOptions{})
	load(t, p, src)
	th := spawn(t, p, "app/Sys", "main()I")
	if err := vm.Run(0); err != nil {
		t.Fatal(err)
	}
	if th.Result.I != int64(p.ID) {
		t.Errorf("currentPid = %d, want %d", th.Result.I, p.ID)
	}
}

func TestSpawnAndKillSyscalls(t *testing.T) {
	vm := newTestVM(t)
	vm.RegisterProgram("child", bytecode.MustAssemble(`
.class app/Child
.method main ()V static
.locals 0
.stack 1
L0:	goto L0
.end
.end`))
	src := `
.class app/Parent
.method main ()I static
.locals 1
.stack 4
	ldc "child"
	ldc "app/Child"
	ldc 4096
	invokestatic kaffeos/Kernel.spawn (Ljava/lang/String;Ljava/lang/String;I)I
	istore 0
	iload 0
	invokestatic kaffeos/Kernel.alive (I)Z
	ifeq FAIL
	iload 0
	invokestatic kaffeos/Kernel.kill (I)Z
	ifeq FAIL
	iload 0
	ireturn
FAIL:	iconst -1
	ireturn
.end
.end`
	p := mustProc(t, vm, "parent", ProcessOptions{})
	load(t, p, src)
	th := spawn(t, p, "app/Parent", "main()I")
	if err := vm.Run(0); err != nil {
		t.Fatal(err)
	}
	if th.Result.I <= 0 {
		t.Fatalf("spawn/kill failed: %d (err=%v)", th.Result.I, th.Err)
	}
	// Child must be gone.
	if _, ok := vm.Process(Pid(th.Result.I)); ok {
		t.Error("killed child still in process table")
	}
}

func TestExitSyscall(t *testing.T) {
	vm := newTestVM(t)
	src := `
.class app/Quit
.method main ()V static
.locals 0
.stack 1
	invokestatic kaffeos/Kernel.exit ()V
L0:	goto L0
.end
.end`
	p := mustProc(t, vm, "quit", ProcessOptions{})
	load(t, p, src)
	spawn(t, p, "app/Quit", "main()V")
	if err := vm.Run(0); err != nil {
		t.Fatal(err)
	}
	if p.State() != ProcReclaimed {
		t.Errorf("state = %v", p.State())
	}
}

func TestSegViolationCatchable(t *testing.T) {
	// User code catching the segmentation violation: the kernel builds a
	// shared heap, and the process tries to store a process-heap reference
	// into a frozen shared object.
	vm := newTestVM(t)
	producer := `
.class app/Prod
.method main ()V static
.locals 2
.stack 4
	ldc "box"
	ldc 64
	invokestatic kaffeos/Shared.create (Ljava/lang/String;I)V
	new java/util/ListNode
	dup
	invokespecial java/util/ListNode.<init> ()V
	astore 0
	aload 0
	invokestatic kaffeos/Shared.setRoot (Ljava/lang/Object;)V
	ldc "box"
	invokestatic kaffeos/Shared.freeze (Ljava/lang/String;)V
L0:	goto L0
.end
.end`
	attacker := `
.class app/Atk
.method main ()I static
.locals 2
.stack 3
	ldc "box"
	invokestatic kaffeos/Shared.lookup (Ljava/lang/String;)Ljava/lang/Object;
	checkcast java/util/ListNode
	astore 0
	new java/lang/Object
	astore 1
T0:	aload 0
	checkcast java/util/ListNode
	aload 1
	putfield java/util/ListNode.item Ljava/lang/Object;
	iconst 0
	ireturn
T1:	pop
	iconst 1
	ireturn
.catch kaffeos/SegmentationViolationError T0 T1 T1
.end
.end`
	prod := mustProc(t, vm, "prod", ProcessOptions{})
	load(t, prod, producer)
	spawn(t, prod, "app/Prod", "main()V")
	if err := vm.Run(5_000_000); err != nil {
		t.Fatal(err)
	}

	atk := mustProc(t, vm, "atk", ProcessOptions{})
	load(t, atk, attacker)
	th := spawn(t, atk, "app/Atk", "main()I")
	if err := vm.RunUntil(func() bool { return !th.Alive() }); err != nil {
		t.Fatal(err)
	}
	prod.Kill(nil)
	if err := vm.Run(0); err != nil {
		t.Fatal(err)
	}
	if th.State != interp.StateFinished {
		t.Fatalf("attacker state %v err %v uncaught %v", th.State, th.Err, th.Uncaught)
	}
	if th.Result.I != 1 {
		t.Fatalf("segmentation violation not raised/caught (got %d)", th.Result.I)
	}
}

func TestSharedHeapCommunication(t *testing.T) {
	// Producer builds a shared int array; consumer reads it. Primitive
	// fields of shared objects remain mutable.
	vm := newTestVM(t)
	producer := `
.class app/Prod
.method main ()V static
.locals 1
.stack 4
	ldc "data"
	ldc 64
	invokestatic kaffeos/Shared.create (Ljava/lang/String;I)V
	iconst 10
	newarray [I
	astore 0
	aload 0
	iconst 0
	ldc 4242
	iastore
	aload 0
	invokestatic kaffeos/Shared.setRoot (Ljava/lang/Object;)V
	ldc "data"
	invokestatic kaffeos/Shared.freeze (Ljava/lang/String;)V
L0:	goto L0
.end
.end`
	consumer := `
.class app/Cons
.method main ()I static
.locals 1
.stack 3
	ldc "data"
	invokestatic kaffeos/Shared.lookup (Ljava/lang/String;)Ljava/lang/Object;
	checkcast [I
	astore 0
	aload 0
	iconst 1
	ldc 777
	iastore
	aload 0
	iconst 0
	iaload
	aload 0
	iconst 1
	iaload
	iadd
	ireturn
.end
.end`
	prod := mustProc(t, vm, "prod", ProcessOptions{})
	load(t, prod, producer)
	spawn(t, prod, "app/Prod", "main()V")
	if err := vm.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	cons := mustProc(t, vm, "cons", ProcessOptions{})
	load(t, cons, consumer)
	th := spawn(t, cons, "app/Cons", "main()I")
	if err := vm.RunUntil(func() bool { return !th.Alive() }); err != nil {
		t.Fatal(err)
	}
	prod.Kill(nil)
	if err := vm.Run(0); err != nil {
		t.Fatal(err)
	}
	if th.State != interp.StateFinished {
		t.Fatalf("consumer: %v / %v / %v", th.State, th.Err, th.Uncaught)
	}
	if th.Result.I != 4242+777 {
		t.Errorf("shared data = %d, want %d", th.Result.I, 4242+777)
	}
}

func TestSharedHeapChargingAndOrphaning(t *testing.T) {
	vm := newTestVM(t)
	producer := `
.class app/Prod
.method main ()V static
.locals 1
.stack 4
	ldc "buf"
	ldc 64
	invokestatic kaffeos/Shared.create (Ljava/lang/String;I)V
	ldc 1024
	newarray [I
	invokestatic kaffeos/Shared.setRoot (Ljava/lang/Object;)V
	ldc "buf"
	invokestatic kaffeos/Shared.freeze (Ljava/lang/String;)V
L0:	goto L0
.end
.end`
	prod := mustProc(t, vm, "prod", ProcessOptions{})
	load(t, prod, producer)
	spawn(t, prod, "app/Prod", "main()V")
	if err := vm.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	sh, err := vm.SharedMgr.Lookup("buf")
	if err != nil {
		t.Fatal(err)
	}
	if !sh.Frozen() || sh.Sharers() != 1 {
		t.Fatalf("frozen=%v sharers=%d", sh.Frozen(), sh.Sharers())
	}
	if sh.Size < 4096 {
		t.Errorf("size = %d", sh.Size)
	}
	// Producer is charged the full size on top of its own heap.
	if prod.Limit.Use() < sh.Size+prod.HeapBytes() {
		t.Errorf("creator charge missing: use=%d heap=%d shared=%d",
			prod.Limit.Use(), prod.HeapBytes(), sh.Size)
	}

	// Kill the producer: heap detaches, shared heap orphans, kernel GC
	// merges it away.
	prod.Kill(nil)
	if err := vm.Run(0); err != nil {
		t.Fatal(err)
	}
	if _, err := vm.SharedMgr.Lookup("buf"); err == nil {
		t.Error("orphaned shared heap survived kernel GC")
	}
	if vm.KernelHeap.Bytes() > 64<<10 {
		t.Errorf("kernel retains %d bytes", vm.KernelHeap.Bytes())
	}
}

func TestGCDrivenSharedCredit(t *testing.T) {
	// A sharer that drops its references is credited at its next GC
	// without an explicit drop syscall.
	vm := newTestVM(t)
	producer := `
.class app/Prod
.method main ()V static
.locals 0
.stack 4
	ldc "blob"
	ldc 64
	invokestatic kaffeos/Shared.create (Ljava/lang/String;I)V
	ldc 2048
	newarray [I
	invokestatic kaffeos/Shared.setRoot (Ljava/lang/Object;)V
	ldc "blob"
	invokestatic kaffeos/Shared.freeze (Ljava/lang/String;)V
L0:	goto L0
.end
.end`
	user := `
.class app/User
.static hold Ljava/lang/Object;
.method main ()V static
.locals 0
.stack 2
	ldc "blob"
	invokestatic kaffeos/Shared.lookup (Ljava/lang/String;)Ljava/lang/Object;
	putstatic app/User.hold Ljava/lang/Object;
	# drop the reference and GC
	aconst_null
	putstatic app/User.hold Ljava/lang/Object;
	invokestatic kaffeos/Kernel.gc ()V
L0:	goto L0
.end
.end`
	prod := mustProc(t, vm, "prod", ProcessOptions{})
	load(t, prod, producer)
	spawn(t, prod, "app/Prod", "main()V")
	if err := vm.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	u := mustProc(t, vm, "user", ProcessOptions{})
	load(t, u, user)
	spawn(t, u, "app/User", "main()V")
	if err := vm.Run(20_000_000); err != nil {
		t.Fatal(err)
	}
	sh, err := vm.SharedMgr.Lookup("blob")
	if err != nil {
		t.Fatal(err)
	}
	if sh.SharedBy(u) {
		t.Error("sharer still charged after dropping all references and GC")
	}
	if !sh.SharedBy(prod) {
		t.Error("producer lost its charge spuriously")
	}
}

func TestHardLimitReservation(t *testing.T) {
	vm, err := NewVM(Config{TotalMemory: 8 << 20, KernelMemory: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	_, err = vm.NewProcess("reserved", ProcessOptions{MemLimit: 5 << 20, HardLimit: true})
	if err != nil {
		t.Fatal(err)
	}
	// Only ~1 MiB of root budget remains: a second hard reservation fails.
	_, err = vm.NewProcess("second", ProcessOptions{MemLimit: 2 << 20, HardLimit: true})
	if err == nil {
		t.Fatal("over-reservation succeeded")
	}
	// A soft process can still be created (it only pays as it allocates).
	if _, err := vm.NewProcess("soft", ProcessOptions{MemLimit: 2 << 20}); err != nil {
		t.Fatalf("soft process: %v", err)
	}
}

func TestInternPerProcess(t *testing.T) {
	vm := newTestVM(t)
	src := `
.class app/I
.method same ()I static
.locals 0
.stack 2
	ldc "token"
	ldc "token"
	if_acmpeq YES
	iconst 0
	ireturn
YES:	iconst 1
	ireturn
.end
.end`
	p1 := mustProc(t, vm, "a", ProcessOptions{})
	p2 := mustProc(t, vm, "b", ProcessOptions{})
	load(t, p1, src)
	load(t, p2, src)
	t1 := spawn(t, p1, "app/I", "same()I")
	t2 := spawn(t, p2, "app/I", "same()I")
	if err := vm.Run(0); err != nil {
		t.Fatal(err)
	}
	if t1.Result.I != 1 || t2.Result.I != 1 {
		t.Error("literals not identical within a process")
	}
}

func TestJavaThreadsWithinProcess(t *testing.T) {
	vm := newTestVM(t)
	src := `
.class app/Work extends java/lang/Thread
.static done I
.method <init> ()V
.locals 1
.stack 1
	aload 0
	invokespecial java/lang/Thread.<init> ()V
	return
.end
.method run ()V
.locals 1
.stack 3
	getstatic app/Work.done I
	iconst 1
	iadd
	putstatic app/Work.done I
	return
.end
.end
.class app/Main
.method main ()I static
.locals 2
.stack 3
	iconst 0
	istore 0
L0:	iload 0
	iconst 5
	if_icmpge WAIT
	new app/Work
	dup
	invokespecial app/Work.<init> ()V
	invokevirtual java/lang/Thread.start ()V
	iinc 0 1
	goto L0
WAIT:	getstatic app/Work.done I
	iconst 5
	if_icmplt WAIT
	getstatic app/Work.done I
	ireturn
.end
.end`
	p := mustProc(t, vm, "threads", ProcessOptions{})
	load(t, p, src)
	th := spawn(t, p, "app/Main", "main()I")
	if err := vm.Run(0); err != nil {
		t.Fatal(err)
	}
	if th.Result.I != 5 {
		t.Errorf("done = %d, want 5 (err=%v)", th.Result.I, th.Err)
	}
}

func TestLibraryCensus(t *testing.T) {
	vm := newTestVM(t)
	shared, reloaded, pct := vm.Lib.Census()
	if shared == 0 || reloaded == 0 {
		t.Fatalf("census: %d/%d", shared, reloaded)
	}
	// The paper shares 72% of library classes; ours should be in the same
	// regime (the exact number depends on our library's size).
	if pct < 60 || pct > 95 {
		t.Errorf("shared pct = %.1f, outside the paper's regime", pct)
	}
	for _, name := range vm.Lib.ReloadedClassNames() {
		if !strings.Contains(name, "System") && !strings.Contains(name, "FileDescriptor") &&
			!strings.Contains(name, "Random") && !strings.Contains(name, "PrintStream") {
			t.Errorf("unexpected reloaded class %s", name)
		}
	}
}

func TestStringLibraryEndToEnd(t *testing.T) {
	vm := newTestVM(t)
	src := `
.class app/Str
.method main ()I static
.locals 2
.stack 3
	ldc "hello"
	ldc " world"
	invokevirtual java/lang/String.concat (Ljava/lang/String;)Ljava/lang/String;
	astore 0
	aload 0
	invokevirtual java/lang/String.length ()I
	istore 1
	aload 0
	ldc "hello world"
	invokevirtual java/lang/String.equals (Ljava/lang/Object;)Z
	ifeq BAD
	iload 1
	ireturn
BAD:	iconst -1
	ireturn
.end
.end`
	p := mustProc(t, vm, "str", ProcessOptions{})
	load(t, p, src)
	th := spawn(t, p, "app/Str", "main()I")
	if err := vm.Run(0); err != nil {
		t.Fatal(err)
	}
	if th.Result.I != 11 {
		t.Errorf("result = %d (err=%v)", th.Result.I, th.Err)
	}
}

func TestHashtableEndToEnd(t *testing.T) {
	vm := newTestVM(t)
	src := `
.class app/HT
.method main ()I static
.locals 2
.stack 6
	new java/util/Hashtable
	dup
	invokespecial java/util/Hashtable.<init> ()V
	astore 0
	iconst 0
	istore 1
L0:	iload 1
	iconst 50
	if_icmpge CHECK
	aload 0
	iload 1
	invokestatic java/lang/Integer.toString (I)Ljava/lang/String;
	new java/lang/Integer
	dup
	iload 1
	invokespecial java/lang/Integer.<init> (I)V
	invokevirtual java/util/Hashtable.put (Ljava/lang/Object;Ljava/lang/Object;)Ljava/lang/Object;
	pop
	iinc 1 1
	goto L0
CHECK:	aload 0
	ldc "37"
	invokevirtual java/util/Hashtable.get (Ljava/lang/Object;)Ljava/lang/Object;
	checkcast java/lang/Integer
	invokevirtual java/lang/Integer.intValue ()I
	aload 0
	invokevirtual java/util/Hashtable.size ()I
	iadd
	ireturn
.end
.end`
	p := mustProc(t, vm, "ht", ProcessOptions{})
	load(t, p, src)
	th := spawn(t, p, "app/HT", "main()I")
	if err := vm.Run(0); err != nil {
		t.Fatal(err)
	}
	if th.Result.I != 37+50 {
		t.Errorf("result = %d, want 87 (err=%v, uncaught=%v)", th.Result.I, th.Err, th.Uncaught)
	}
}

// The process abstraction's fixed costs hold their Go allocation counts,
// which unlike host time do not depend on the host: each stays under
// ⌊1.15 × the count measured when its ceiling was set⌋.
// TestIdleVMBytes pins what one VM that nobody traces costs the host: its
// telemetry rings grow on first use, so an idle VM allocates no event or
// span buffers (the rings were 4.5 MiB of its 5.08 MB when allocated up
// front).
func TestIdleVMBytes(t *testing.T) {
	const runs, ceiling = 20, 512 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := NewVM(Config{}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes allocated per idle NewVM", per)
	if per > ceiling {
		t.Errorf("an idle NewVM allocates %d bytes, ceiling %d", per, ceiling)
	}
}

func TestProcessAllocationCeilings(t *testing.T) {
	opts := ProcessOptions{MemLimit: 8 << 20}
	// incarnation makes a process with mk, runs the VM for budget cycles
	// (0: until every thread ends), kills the process and checks that it
	// was reclaimed.
	incarnation := func(vm *VM, budget uint64, mk func() *Process) func() {
		return func() {
			p := mk()
			err := vm.Run(budget)
			p.Kill(nil)
			if err == nil {
				err = vm.Run(0)
			}
			if err != nil || p.State() != ProcReclaimed {
				t.Fatalf("%s: %v, state %v", p.Name, err, p.State())
			}
		}
	}
	// proc makes a process that loads mod and, if given, spawns entry
	// (class, method).
	proc := func(vm *VM, mod *bytecode.Module, entry ...string) func() *Process {
		return func() *Process {
			p := mustProc(t, vm, "pin", opts)
			if err := p.Load(mod); err != nil {
				t.Fatal(err)
			}
			if entry != nil {
				spawn(t, p, entry[0], entry[1])
			}
			return p
		}
	}

	spin := bytecode.MustAssemble(".class t/P\n.method main ()V static\n.locals 0\n.stack 1\nL0:\tgoto L0\n.end\n.end")
	warm, wide := jserv.NetWarmModule(), jserv.NetWideModule()
	plain, cached := newTestVM(t), newCacheVM(t, Config{})
	vm, err := NewVM(Config{Engine: EngineJITOpt})
	if err != nil {
		t.Fatal(err)
	}
	zygote := proc(vm, warm)()
	tpl, err := vm.Checkpoint(zygote, "pin")
	if err != nil {
		t.Fatal(err)
	}
	zygote.Kill(nil)
	t.Cleanup(func() {
		if err := tpl.Release(); err != nil {
			t.Error(err)
		}
	})

	for _, c := range []struct {
		name string
		max  float64
		op   func()
	}{
		{"lifecycle", 292, incarnation(plain, 200_000, proc(plain, spin, "t/P", "main()V"))},
		{"init-coldstart", 386, incarnation(vm, 0, proc(vm, warm))},
		{"fork-coldstart", 299, incarnation(vm, 0, func() *Process {
			clone, err := tpl.Fork("clone", opts)
			if err != nil {
				t.Fatal(err)
			}
			return clone
		})},
		// NetWide's cold start is compiling a wide method surface: each
		// process privately, or once into the cache and then attached.
		{"codecache-off", 9524, incarnation(vm, 0, proc(vm, wide, jserv.NetWideClass, "selftest()I"))},
		{"codecache-on", 1344, incarnation(cached, 0, proc(cached, wide, jserv.NetWideClass, "selftest()I"))},
	} {
		n := testing.AllocsPerRun(20, c.op)
		t.Logf("%s: %v allocations per op", c.name, n)
		if n > c.max {
			t.Errorf("%s: %v Go allocations per op, ceiling %v", c.name, n, c.max)
		}
	}
}
