package interp

import (
	"testing"

	"repro/internal/barrier"
	"repro/internal/memlimit"
)

// Edge-case semantics, run under every engine so the interpreter and the
// JIT agree on the corners.

func runAllEngines(t *testing.T, fx *fixture, cls, key string, want int64, args ...Slot) {
	t.Helper()
	for _, eng := range engines() {
		th := fx.driveWith(eng, cls, key, args...)
		if th.State != StateFinished {
			t.Fatalf("%s: state %v err %v uncaught %v", eng.Name(), th.State, th.Err, th.Uncaught)
		}
		if th.Result.I != want {
			t.Errorf("%s: got %d, want %d", eng.Name(), th.Result.I, want)
		}
	}
}

func TestShiftMasking(t *testing.T) {
	fx := newFixture(t, barrier.NoHeapPointer, memlimit.Unlimited)
	fx.define(`
.class t/S
.method go ()I static
.locals 0
.stack 3
	iconst 1
	ldc 65
	ishl           # shift by 65 & 63 = 1 -> 2
	iconst 16
	iconst 2
	ishr           # 4
	iadd           # 6
	iconst -8
	iconst 1
	iushr          # logical shift of negative
	iconst 0
	if_icmple BAD
	ireturn
BAD:	iconst -1
	ireturn
.end
.end`)
	runAllEngines(t, fx, "t/S", "go()I", 6)
}

func TestStackManipulation(t *testing.T) {
	fx := newFixture(t, barrier.NoHeapPointer, memlimit.Unlimited)
	fx.define(`
.class t/S
.method go ()I static
.locals 0
.stack 4
	iconst 1
	iconst 2
	swap          # 2 1
	isub          # 2-1 = 1
	iconst 30
	iconst 4
	dup_x1        # 4 30 4
	iadd          # 4 34
	iadd          # 38
	iadd          # 39
	ireturn
.end
.end`)
	runAllEngines(t, fx, "t/S", "go()I", 39)
}

func TestDoubleEdgeCases(t *testing.T) {
	fx := newFixture(t, barrier.NoHeapPointer, memlimit.Unlimited)
	fx.define(`
.class t/D
.method divzero ()I static
.locals 0
.stack 4
	ldc 1.0
	ldc 0.0
	ddiv           # +Inf, no exception for doubles
	ldc 0.0
	dcmp           # +Inf > 0 -> 1
	ireturn
.end
.method nan ()I static
.locals 0
.stack 4
	ldc 0.0
	ldc 0.0
	ddiv           # NaN
	ldc 0.0
	dcmp           # NaN compares equal under our 3-way model? it yields 0
	ireturn
.end
.method neg ()I static
.locals 0
.stack 2
	ldc 2.5
	dneg
	d2i
	ireturn
.end
.end`)
	runAllEngines(t, fx, "t/D", "divzero()I", 1)
	runAllEngines(t, fx, "t/D", "neg()I", -2)
}

func TestIincNegativeAndLarge(t *testing.T) {
	fx := newFixture(t, barrier.NoHeapPointer, memlimit.Unlimited)
	fx.define(`
.class t/I
.method go ()I static
.locals 1
.stack 2
	iconst 100
	istore 0
	iinc 0 -150
	iinc 0 1
	iload 0
	ireturn
.end
.end`)
	runAllEngines(t, fx, "t/I", "go()I", -49)
}

func TestRemainderSemantics(t *testing.T) {
	fx := newFixture(t, barrier.NoHeapPointer, memlimit.Unlimited)
	fx.define(`
.class t/R
.method go ()I static
.locals 0
.stack 3
	iconst -7
	iconst 3
	irem           # Go/Java: -1
	iconst 10
	imul           # -10
	iconst 7
	iconst -3
	irem           # 1
	iadd
	ireturn
.end
.end`)
	runAllEngines(t, fx, "t/R", "go()I", -9)
}

func TestNullChecksEverywhere(t *testing.T) {
	fx := newFixture(t, barrier.NoHeapPointer, memlimit.Unlimited)
	fx.define(`
.class t/N
.field v I
.method npe (I)I static
.locals 2
.stack 3
	aconst_null
	astore 1
T0:	iload 0
	ifne PUT
	aload 1
	getfield t/N.v I
	ireturn
PUT:	iload 0
	iconst 1
	if_icmpne ARR
	aload 1
	iconst 5
	putfield t/N.v I
	iconst 0
	ireturn
ARR:	aload 1
	iconst 0
	iaload
	ireturn
T1:	pop
	iconst 42
	ireturn
.catch java/lang/NullPointerException T0 T1 T1
.end
.end`)
	for _, variant := range []int64{0, 1, 2} {
		runAllEngines(t, fx, "t/N", "npe(I)I", 42, IntSlot(variant))
	}
}

func TestDeepCallChainNearLimit(t *testing.T) {
	fx := newFixture(t, barrier.NoHeapPointer, memlimit.Unlimited)
	fx.env.MaxFrameDepth = 64
	fx.define(`
.class t/D
.method down (I)I static
.locals 1
.stack 3
	iload 0
	ifgt REC
	iconst 0
	ireturn
REC:	iload 0
	iconst 1
	isub
	invokestatic t/D.down (I)I
	iconst 1
	iadd
	ireturn
.end
.end`)
	// 60 frames fits under the 64 limit (plus the entry frame).
	runAllEngines(t, fx, "t/D", "down(I)I", 60, IntSlot(60))
	// 100 does not: StackOverflowError. The thread's frame pool is bounded
	// by the deepest live stack — the limit — however often it overflows.
	for _, eng := range engines() {
		th := fx.newThread()
		for run := 0; run < 2; run++ {
			th.State, th.Uncaught = StateRunnable, nil
			if err := th.PushFrame(fx.method("t/D", "down(I)I"), []Slot{IntSlot(100)}); err != nil {
				t.Fatal(err)
			}
			stepUntilDone(t, eng, th)
			if th.Uncaught == nil || th.Uncaught.Class.Name != "java/lang/StackOverflowError" {
				t.Errorf("%s: uncaught = %v", eng.Name(), th.Uncaught)
			}
			if got := pooledFrames(th); got != 64 {
				t.Errorf("%s run %d: thread owns %d frames, want the 64-frame limit", eng.Name(), run, got)
			}
			checkPoolClear(t, eng.Name(), th)
		}
	}
}

func TestInstanceofNullIsFalse(t *testing.T) {
	fx := newFixture(t, barrier.NoHeapPointer, memlimit.Unlimited)
	fx.define(`
.class t/O
.method go ()I static
.locals 0
.stack 2
	aconst_null
	instanceof java/lang/Object
	aconst_null
	checkcast java/lang/String
	ifnull OK
	iconst -1
	ireturn
OK:	iconst 10
	iadd
	ireturn
.end
.end`)
	runAllEngines(t, fx, "t/O", "go()I", 10)
}

func TestArrayCovarianceStoreCheck(t *testing.T) {
	fx := newFixture(t, barrier.NoHeapPointer, memlimit.Unlimited)
	fx.define(`
.class t/A
.method <init> ()V
.locals 1
.stack 1
	aload 0
	invokespecial java/lang/Object.<init> ()V
	return
.end
.end
.class t/B extends t/A
.method <init> ()V
.locals 1
.stack 1
	aload 0
	invokespecial t/A.<init> ()V
	return
.end
.end
.class t/M
.method go ()I static
.locals 2
.stack 4
# [Lt/B; viewed as [Lt/A; must reject storing a t/A
	iconst 2
	newarray [Lt/B;
	astore 0
T0:	aload 0
	iconst 0
	new t/A
	dup
	invokespecial t/A.<init> ()V
	aastore
	iconst 0
	ireturn
T1:	pop
# storing a t/B is fine
	aload 0
	iconst 0
	new t/B
	dup
	invokespecial t/B.<init> ()V
	aastore
	iconst 1
	ireturn
.catch java/lang/ArrayStoreException T0 T1 T1
.end
.end`)
	runAllEngines(t, fx, "t/M", "go()I", 1)
}
