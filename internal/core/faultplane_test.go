package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/bytecode"
	"repro/internal/faults"
	"repro/internal/telemetry"
)

// churnThreadsSrc builds linked lists on two worker threads: allocation,
// write barriers, thread spawn/join, and enough work that injected faults
// land mid-flight.
const churnThreadsSrc = `
.class app/FNode
.field next Lapp/FNode;
.field v I
.method <init> ()V
.locals 1
.stack 1
	aload 0
	invokespecial java/lang/Object.<init> ()V
	return
.end
.end
.class app/FChurn extends java/lang/Thread
.method <init> ()V
.locals 1
.stack 1
	aload 0
	invokespecial java/lang/Thread.<init> ()V
	return
.end
.method run ()V
.locals 4
.stack 3
	iconst 0
	istore 1
ROUND:	iload 1
	ldc 2000
	if_icmpge DONE
	aconst_null
	astore 2
	iconst 0
	istore 3
LIST:	iload 3
	ldc 32
	if_icmpge NEXTR
	new app/FNode
	dup
	invokespecial app/FNode.<init> ()V
	dup
	aload 2
	putfield app/FNode.next Lapp/FNode;
	dup
	iload 3
	putfield app/FNode.v I
	astore 2
	iinc 3 1
	goto LIST
NEXTR:	aconst_null
	astore 2
	iinc 1 1
	goto ROUND
DONE:	return
.end
.end
.class app/FMain
.method main ()V static
.locals 2
.stack 2
	new app/FChurn
	dup
	invokespecial app/FChurn.<init> ()V
	astore 0
	new app/FChurn
	dup
	invokespecial app/FChurn.<init> ()V
	astore 1
	aload 0
	invokevirtual java/lang/Thread.start ()V
	aload 1
	invokevirtual java/lang/Thread.start ()V
	aload 0
	invokevirtual java/lang/Thread.join ()V
	aload 1
	invokevirtual java/lang/Thread.join ()V
	return
.end
.end`

// countEvents returns the number of trace events of kind k for pid.
func countEvents(vm *VM, k telemetry.Kind, pid int32) int {
	n := 0
	for _, e := range vm.Tel.Trace.Snapshot() {
		if e.Kind == k && e.Pid == pid {
			n++
		}
	}
	return n
}

// TestKillConcurrentIdempotent: racing Kill calls — from other goroutines,
// exactly as a memlimit callback or the HTTP surface might issue them —
// must produce exactly one kill/reclaim event pair and a fully reclaimed
// process. Run under -race, this also polices the thread-map accesses
// that Kill performs off the scheduler goroutine.
func TestKillConcurrentIdempotent(t *testing.T) {
	vm := newTestVM(t)
	vm.Tel.SetTracing(true)
	p := mustProc(t, vm, "victim", ProcessOptions{})
	load(t, p, churnThreadsSrc)
	spawn(t, p, "app/FMain", "main()V")
	// Let the workers start so Kill has several live threads to stop.
	if err := vm.Run(2_000_000); err != nil {
		t.Fatal(err)
	}
	const killers = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < killers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			p.Kill(fmt.Errorf("killer %d", i))
		}(i)
	}
	close(start)
	wg.Wait()
	if err := vm.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := p.State(); got != ProcReclaimed {
		t.Fatalf("state = %v, want reclaimed", got)
	}
	pid := int32(p.ID)
	if got := countEvents(vm, telemetry.EvProcKill, pid); got != 1 {
		t.Errorf("EvProcKill count = %d, want exactly 1", got)
	}
	if got := countEvents(vm, telemetry.EvProcReclaim, pid); got != 1 {
		t.Errorf("EvProcReclaim count = %d, want exactly 1", got)
	}
	if rep := vm.Audit(true); !rep.OK() {
		t.Errorf("audit after concurrent kill: %s", rep)
	}
}

// TestKillMidLeaseReturnsReservation: killing a process while its heap
// holds a standing allocation lease must return every byte — the lease's
// unflushed remainder included — when the heap merges into the kernel.
// The root's books afterwards must show only the kernel's own use.
func TestKillMidLeaseReturnsReservation(t *testing.T) {
	vm := newTestVM(t)
	base := vm.RootLimit.Use()
	p := mustProc(t, vm, "leaseholder", ProcessOptions{MemLimit: 1 << 20, HardLimit: true})
	if got := vm.RootLimit.Use(); got != base+1<<20 {
		t.Fatalf("hard reservation not debited: root use %d, want %d", got, base+1<<20)
	}
	load(t, p, churnThreadsSrc)
	spawn(t, p, "app/FMain", "main()V")
	// Run long enough to allocate but not to finish: the loop needs tens of
	// millions of cycles, so a standing lease is live right now.
	if err := vm.Run(3_000_000); err != nil {
		t.Fatal(err)
	}
	if p.State() != ProcRunning {
		t.Fatalf("workload finished too early (state %v); lease cannot be mid-flight", p.State())
	}
	if p.Heap.Lease() == 0 {
		t.Fatal("no standing lease while churning — test premise broken")
	}
	p.Kill(errors.New("mid-lease kill"))
	if err := vm.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := p.State(); got != ProcReclaimed {
		t.Fatalf("state = %v, want reclaimed", got)
	}
	// The hard reservation is gone; the merged garbage now bills the
	// kernel. Collect it away and the books must return to baseline.
	vm.CollectKernel()
	if got := vm.RootLimit.Use(); got != base {
		t.Errorf("root use = %d after reclaim+GC, want baseline %d (leaked %d)", got, base, got-base)
	}
	if rep := vm.Audit(true); !rep.OK() {
		t.Errorf("audit after mid-lease kill: %s", rep)
	}
}

// TestFaultSoakAuditClean arms every fault site at p=0.01 and runs the
// threaded churn workload across several seeds. Processes dying of
// injected faults is expected; the auditor must still find a perfectly
// consistent kernel afterwards.
func TestFaultSoakAuditClean(t *testing.T) {
	for seed := 1; seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			plan, err := faults.ParsePlan(fmt.Sprintf("seed=%d,all=0.01", seed))
			if err != nil {
				t.Fatal(err)
			}
			vm, err := NewVM(Config{Faults: faults.NewPlane(plan)})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				p, err := vm.NewProcess(fmt.Sprintf("churn-%d", i), ProcessOptions{})
				if err != nil {
					continue // injected failure at creation: fine
				}
				if err := p.Load(bytecode.MustAssemble(churnThreadsSrc)); err != nil {
					continue // killed mid-load by an injected fault: fine
				}
				if _, err := p.Spawn("app/FMain", "main()V"); err != nil {
					continue
				}
			}
			if err := vm.Run(0); err != nil {
				t.Fatal(err)
			}
			vm.CollectAll()
			if rep := vm.Audit(true); !rep.OK() {
				t.Fatalf("seed %d: %s", seed, rep)
			}
		})
	}
}

// clinitChurnSrc's class initializer allocates far past a 256 KiB
// memlimit, so loading it forces collections from inside <clinit>.
const clinitChurnSrc = `
.class app/ClinitChurn
.method <clinit> ()V static
.locals 1
.stack 2
	iconst 0
	istore 0
L0:	iload 0
	ldc 64
	if_icmpge DONE
	ldc 1024
	newarray [I
	pop
	iinc 0 1
	goto L0
DONE:	return
.end
.end`

// A kill that fires inside the victim's own collection (the heap.mark
// site) while the process has no threads defers reclamation to the
// collector's exit: reclaiming inline would relock the gcMu the collection
// holds. Every way of collecting a process heap must finish, reclaim the
// process and leave the books exact — including a collection forced from
// inside a class initializer, where the load then fails.
func TestKillInsideCollectDefersReclaim(t *testing.T) {
	for _, tc := range []struct {
		name    string
		collect func(vm *VM, p *Process) error
	}{
		{"Process.Collect", func(vm *VM, p *Process) error { p.Collect(); return nil }},
		{"VM.CollectHeap", func(vm *VM, p *Process) error { vm.CollectHeap(p.Heap); return nil }},
		{"VM.CollectAll", func(vm *VM, p *Process) error { vm.CollectAll(); return nil }},
		{"clinit", func(vm *VM, p *Process) error {
			if err := p.Load(bytecode.MustAssemble(clinitChurnSrc)); err == nil {
				return errors.New("load succeeded in a process killed during its <clinit>")
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := faults.ParsePlan("seed=1,heap.mark=1")
			if err != nil {
				t.Fatal(err)
			}
			plane := faults.NewPlane(plan)
			plane.SetEnabled(false)
			vm, err := NewVM(Config{Faults: plane})
			if err != nil {
				t.Fatal(err)
			}
			p := mustProc(t, vm, "victim", ProcessOptions{MemLimit: 256 << 10})
			load(t, p, helloSrc)
			plane.SetEnabled(true)
			done := make(chan error, 1)
			go func() { done <- tc.collect(vm, p) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("collection deadlocked on the reclaim its own kill triggered")
			}
			plane.SetEnabled(false)
			if plane.Fires(faults.SiteHeapMark) == 0 {
				t.Fatal("heap.mark never fired")
			}
			if s := p.State(); s != ProcReclaimed {
				t.Fatalf("victim %s after the collection exited, want reclaimed", s)
			}
			vm.CollectAll()
			auditClean(t, vm, "after kill inside collect")
		})
	}
}
