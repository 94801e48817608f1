package interp

import (
	"sync"
	"testing"

	"repro/internal/barrier"
	"repro/internal/memlimit"
)

const callPathProgram = `
.class t/C
.field v I
.method get ()I
.locals 1
.stack 2
	aload 0
	getfield t/C.v I
	ireturn
.end
.method add (II)I static
.locals 2
.stack 2
	iload 0
	iload 1
	iadd
	ireturn
.end
.method loop (Lt/C;I)I static
.locals 3
.stack 3
	iconst 0
	istore 2
L0:	iload 1
	ifle OUT
	iload 2
	aload 0
	invokevirtual t/C.get ()I
	invokestatic t/C.add (II)I
	istore 2
	iinc 1 -1
	goto L0
OUT:	iload 2
	ireturn
.end
.end
.class t/G
.method keep ()V static
.locals 2
.stack 1
	new t/G
	astore 1
	return
.end
.method spin ()V static
.locals 2
.stack 1
L0:	goto L0
.end
.method main ()V static
.locals 0
.stack 0
	invokestatic t/G.keep ()V
	invokestatic t/G.spin ()V
	return
.end
.end
.class t/M
.method inner (Ljava/lang/Object;Ljava/lang/Object;)V static
.locals 2
.stack 2
	aload 1
	monitorenter
	aload 0
	monitorenter
	new java/lang/RuntimeException
	athrow
.end
.method outer (Ljava/lang/Object;Ljava/lang/Object;)V static
.locals 2
.stack 2
	aload 0
	monitorenter
	aload 0
	aload 1
	invokestatic t/M.inner (Ljava/lang/Object;Ljava/lang/Object;)V
	return
.end
.method main (Ljava/lang/Object;Ljava/lang/Object;)I static
.locals 2
.stack 2
T0:	aload 0
	aload 1
	invokestatic t/M.outer (Ljava/lang/Object;Ljava/lang/Object;)V
	iconst 0
	ireturn
T1:	pop
	iconst 1
	ireturn
.catch java/lang/RuntimeException T0 T1 T1
.end
.end`

// pooledFrames counts the frames th owns, live or pooled.
func pooledFrames(th *Thread) int {
	n := 0
	for _, f := range th.Frames[:cap(th.Frames)] {
		if f != nil {
			n++
		}
	}
	return n
}

// checkPoolClear fails unless every frame past th's live stack is empty:
// no method, body, slot value or monitor survives a pop.
func checkPoolClear(t *testing.T, name string, th *Thread) {
	t.Helper()
	for i, f := range th.Frames[len(th.Frames):cap(th.Frames)] {
		if f == nil {
			continue
		}
		if f.M != nil || f.body != nil || f.SP != 0 || len(f.Monitors) != 0 {
			t.Errorf("%s: pooled frame %d not reset: %+v", name, i, f)
		}
		for _, s := range f.slots {
			if s != (Slot{}) {
				t.Errorf("%s: pooled frame %d keeps slot %+v", name, i, s)
				break
			}
		}
		for _, o := range f.Monitors[:cap(f.Monitors)] {
			if o != nil {
				t.Errorf("%s: pooled frame %d keeps monitor %v", name, i, o)
				break
			}
		}
	}
}

// stepUntilDone runs th on eng until it finishes or dies.
func stepUntilDone(t *testing.T, eng Engine, th *Thread) {
	t.Helper()
	for i := 0; th.Alive() && i < 100000; i++ {
		th.Fuel = 1 << 20
		if eng.Step(th) == StepBlocked {
			t.Fatalf("%s: blocked", eng.Name())
		}
	}
}

// A warmed call — static or virtual — and its return allocate nothing on
// either engine: the frame, its slots and the compiled body are reused.
func TestWarmCallsAllocateNothing(t *testing.T) {
	fx := newFixture(t, barrier.NoHeapPointer, memlimit.Unlimited)
	fx.define(callPathProgram)
	cls, err := fx.proc.Class("t/C")
	if err != nil {
		t.Fatal(err)
	}
	recv, err := fx.user.Alloc(cls)
	if err != nil {
		t.Fatal(err)
	}
	recv.Prims[0] = 3
	loop := fx.method("t/C", "loop(Lt/C;I)I")
	const calls = 100
	args := []Slot{RefSlot(recv), IntSlot(calls)}
	for _, eng := range allEngines() {
		th := fx.newThread()
		run := func() {
			th.State = StateRunnable
			if err := th.PushFrame(loop, args); err != nil {
				t.Fatal(err)
			}
			stepUntilDone(t, eng, th)
		}
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Errorf("%s: %v Go allocations per %d-iteration call loop, want 0", eng.Name(), allocs, calls)
		}
		fx.mustInt(th, 3*calls)
		checkPoolClear(t, eng.Name(), th)
	}
}

// An object referenced only from a returned callee's local dies at the next
// collection: the callee's pooled frame is reused by the next call at the
// same depth, and must not carry the stale reference into it.
func TestPooledFramesAreNotRoots(t *testing.T) {
	fx := newFixture(t, barrier.NoHeapPointer, memlimit.Unlimited)
	fx.define(callPathProgram)
	main := fx.method("t/G", "main()V")
	for _, eng := range allEngines() {
		th := fx.newThread()
		if err := th.PushFrame(main, nil); err != nil {
			t.Fatal(err)
		}
		// Run into spin(): keep() has returned and spin() reuses its frame.
		for i := 0; i < 10 && (len(th.Frames) != 2 || th.Frames[1].M.Name != "spin"); i++ {
			th.Fuel = 1000
			eng.Step(th)
		}
		if len(th.Frames) != 2 || th.Frames[1].M.Name != "spin" {
			t.Fatalf("%s: never reached spin()", eng.Name())
		}
		res := fx.user.Collect(th.Roots)
		if res.Swept != 1 {
			t.Errorf("%s: collection swept %d objects, want keep()'s dead local (1)", eng.Name(), res.Swept)
		}
		th.Kill()
		stepUntilDone(t, eng, th)
		checkPoolClear(t, eng.Name(), th)
	}
}

// A throw that unwinds through monitor-holding frames releases every
// monitor — recursive entries included — and leaves the popped frames
// clear, whether a handler catches it or it kills the thread.
func TestThrowUnwindsMonitorFrames(t *testing.T) {
	fx := newFixture(t, barrier.NoHeapPointer, memlimit.Unlimited)
	fx.define(callPathProgram)
	objC, err := fx.shared.Class("java/lang/Object")
	if err != nil {
		t.Fatal(err)
	}
	other := &Thread{ID: 1 << 20, Env: fx.env}
	for _, thin := range []bool{true, false} {
		fx.env.ThinLocks = thin
		for _, eng := range allEngines() {
			for _, tc := range []struct {
				entry  string
				depth  int
				caught bool
			}{
				{"main(Ljava/lang/Object;Ljava/lang/Object;)I", 3, true},
				{"outer(Ljava/lang/Object;Ljava/lang/Object;)V", 2, false},
			} {
				name := eng.Name() + "/" + tc.entry
				a, _ := fx.user.Alloc(objC)
				b, _ := fx.user.Alloc(objC)
				th := fx.newThread()
				if err := th.PushFrame(fx.method("t/M", tc.entry), []Slot{RefSlot(a), RefSlot(b)}); err != nil {
					t.Fatal(err)
				}
				stepUntilDone(t, eng, th)
				if tc.caught {
					fx.mustInt(th, 1)
				} else {
					fx.mustUncaught(th, "java/lang/RuntimeException")
				}
				if !MonitorFree(other, a) || !MonitorFree(other, b) {
					t.Errorf("%s thin=%v: monitors still held after unwinding", name, thin)
				}
				if got := pooledFrames(th); got != tc.depth {
					t.Errorf("%s: thread owns %d frames, want the deepest stack (%d)", name, got, tc.depth)
				}
				checkPoolClear(t, name, th)
			}
		}
	}
}

// The body table is read without a lock: concurrent first entries compile
// once per engine variant, every reader sees the one published body, and
// variants occupy their own entries.
func TestBodyTablePublishesOncePerVariant(t *testing.T) {
	fx := newFixture(t, barrier.NoHeapPointer, memlimit.Unlimited)
	fx.define(callPathProgram)
	m := fx.method("t/C", "loop(Lt/C;I)I")
	jits := []*JIT{{}, {Fused: true}, {InlineCache: true}, {Fused: true, InlineCache: true}}
	got := make([][]*compiled, len(jits))
	var wg sync.WaitGroup
	for i, j := range jits {
		got[i] = make([]*compiled, 4)
		for k := range got[i] {
			wg.Add(1)
			go func(i, k int, j *JIT) {
				defer wg.Done()
				c, err := j.bodyFor(m)
				if err != nil {
					t.Error(err)
				}
				got[i][k] = c
			}(i, k, j)
		}
	}
	wg.Wait()
	tab := m.Compiled.Load()
	seen := make(map[*compiled]bool)
	for i, j := range jits {
		want, _ := tab[j.variant()].(*compiled)
		if want == nil || seen[want] {
			t.Fatalf("variant %s: table entry %v (shared with another variant: %v)", j.Variant(), want, seen[want])
		}
		seen[want] = true
		for _, c := range got[i] {
			if c != want {
				t.Errorf("variant %s: a reader got a body other than the published one", j.Variant())
			}
		}
	}
}
