package interp

import (
	"testing"

	"repro/internal/barrier"
	"repro/internal/memlimit"
)

// driveWith runs cls.key(args) under the given engine.
func (fx *fixture) driveWith(eng Engine, cls, key string, args ...Slot) *Thread {
	fx.t.Helper()
	th := fx.newThread()
	m := fx.method(cls, key)
	if err := th.PushFrame(m, args); err != nil {
		fx.t.Fatal(err)
	}
	for i := 0; i < 100000; i++ {
		th.Fuel = 5000
		switch eng.Step(th) {
		case StepFinished, StepKilled:
			return th
		case StepBlocked:
			fx.t.Fatalf("blocked")
		}
	}
	fx.t.Fatal("did not finish")
	return nil
}

const crossEngineProgram = `
.class t/Node
.field next Lt/Node;
.field v I
.method <init> (I)V
.locals 2
.stack 2
	aload 0
	invokespecial java/lang/Object.<init> ()V
	aload 0
	iload 1
	putfield t/Node.v I
	return
.end
.method val ()I
.locals 1
.stack 2
	aload 0
	getfield t/Node.v I
	ireturn
.end
.end
.class t/Wide extends t/Node
.method <init> (I)V
.locals 2
.stack 3
	aload 0
	iload 1
	invokespecial t/Node.<init> (I)V
	return
.end
.method val ()I
.locals 1
.stack 3
	aload 0
	getfield t/Node.v I
	iconst 2
	imul
	ireturn
.end
.end
.class t/Main
.method build (I)I static
.locals 4
.stack 4
	aconst_null
	astore 1
	iconst 0
	istore 2
L0:	iload 2
	iload 0
	if_icmpge L1
	new t/Node
	dup
	iload 2
	invokespecial t/Node.<init> (I)V
	astore 3
	aload 3
	aload 1
	putfield t/Node.next Lt/Node;
	aload 3
	astore 1
	iinc 2 1
	goto L0
L1:	iconst 0
	istore 2
L2:	aload 1
	ifnull L3
	iload 2
	aload 1
	invokevirtual t/Node.val ()I
	iadd
	istore 2
	aload 1
	getfield t/Node.next Lt/Node;
	astore 1
	goto L2
L3:	iload 2
	ireturn
.end
.method mixed ()I static
.locals 3
.stack 4
	new t/Wide
	dup
	iconst 10
	invokespecial t/Wide.<init> (I)V
	astore 0
	new t/Node
	dup
	iconst 5
	invokespecial t/Node.<init> (I)V
	astore 1
	aload 0
	invokevirtual t/Node.val ()I
	aload 1
	invokevirtual t/Node.val ()I
	iadd
	ireturn
.end
.method excep (I)I static
.locals 2
.stack 2
	iconst 0
	istore 1
T0:	iload 0
	iconst 0
	idiv
	istore 1
	iload 1
	ireturn
T1:	pop
	iconst 99
	ireturn
.catch java/lang/ArithmeticException T0 T1 T1
.end
.method arrays (I)I static
.locals 3
.stack 4
	iload 0
	newarray [I
	astore 1
	iconst 0
	istore 2
L0:	iload 2
	iload 0
	if_icmpge L1
	aload 1
	iload 2
	iload 2
	iastore
	iinc 2 1
	goto L0
L1:	iconst 0
	istore 0
	iconst 0
	istore 2
L2:	aload 1
	arraylength
	iload 2
	if_icmple L3
	aload 1
	iload 2
	iaload
	iload 0
	iadd
	istore 0
	iinc 2 1
	goto L2
L3:	iload 0
	ireturn
.end
.end`

func TestEnginesAgree(t *testing.T) {
	cases := []struct {
		key  string
		args []Slot
		want int64
	}{
		{"build(I)I", []Slot{IntSlot(20)}, 190},
		{"mixed()I", nil, 25},
		{"excep(I)I", []Slot{IntSlot(7)}, 99},
		{"arrays(I)I", []Slot{IntSlot(30)}, 435},
	}
	for _, eng := range engines() {
		t.Run(eng.Name(), func(t *testing.T) {
			fx := newFixture(t, barrier.NoHeapPointer, memlimit.Unlimited)
			fx.define(crossEngineProgram)
			for _, c := range cases {
				th := fx.driveWith(eng, "t/Main", c.key, c.args...)
				if th.State != StateFinished {
					t.Fatalf("%s: state %v err %v uncaught %v", c.key, th.State, th.Err, th.Uncaught)
				}
				if th.Result.I != c.want {
					t.Errorf("%s under %s = %d, want %d", c.key, eng.Name(), th.Result.I, c.want)
				}
			}
		})
	}
}

func TestEnginesChargeSameCycles(t *testing.T) {
	// Simulated cycle accounting must be engine-independent: the JIT makes
	// wall-clock faster, not virtually cheaper.
	var cycles []uint64
	for _, eng := range engines() {
		fx := newFixture(t, barrier.NoHeapPointer, memlimit.Unlimited)
		fx.define(crossEngineProgram)
		th := fx.driveWith(eng, "t/Main", "build(I)I", IntSlot(50))
		if th.State != StateFinished {
			t.Fatalf("%s: %v", eng.Name(), th.Err)
		}
		cycles = append(cycles, th.Cycles)
	}
	if cycles[0] != cycles[1] {
		t.Errorf("engines disagree on cycles: %v", cycles)
	}
}

func TestJITBarrierSemantics(t *testing.T) {
	for _, eng := range engines()[1:] {
		fx := newFixture(t, barrier.HeapPointer, memlimit.Unlimited)
		fx.define(crossEngineProgram)
		before := fx.env.BarrierStats.Executed.Load()
		th := fx.driveWith(eng, "t/Main", "build(I)I", IntSlot(10))
		if th.State != StateFinished {
			t.Fatalf("%v", th.Err)
		}
		// One putfield of a ref per node built.
		if got := fx.env.BarrierStats.Executed.Load() - before; got != 10 {
			t.Errorf("%s: barrier count = %d, want 10", eng.Name(), got)
		}
	}
}

func TestJITQuantumAndKill(t *testing.T) {
	fx := newFixture(t, barrier.NoHeapPointer, memlimit.Unlimited)
	fx.define(`
.class t/Spin
.method spin ()V static
.locals 0
.stack 1
L0:	goto L0
.end
.end`)
	for _, eng := range engines()[1:] {
		th := fx.newThread()
		if err := th.PushFrame(fx.method("t/Spin", "spin()V"), nil); err != nil {
			t.Fatal(err)
		}
		th.Fuel = 1000
		if res := eng.Step(th); res != StepYielded {
			t.Fatalf("%s: step = %v, want yield", eng.Name(), res)
		}
		th.Kill()
		th.Fuel = 1000
		if res := eng.Step(th); res != StepKilled {
			t.Fatalf("%s: step after kill = %v", eng.Name(), res)
		}
	}
}

func TestFusionPreservesBranchTargets(t *testing.T) {
	// A branch into what would otherwise be a fusable run: the run must
	// not fuse over the label, and execution must be correct.
	fx := newFixture(t, barrier.NoHeapPointer, memlimit.Unlimited)
	fx.define(`
.class t/F
.method go (I)I static
.locals 3
.stack 4
	iload 0
	ifeq L0
	iconst 5
	istore 1
	goto L1
L0:	iconst 3
	istore 1
L1:	iload 1
	iconst 2
	if_icmplt L2
	iload 1
	ireturn
L2:	iconst -1
	ireturn
.end
.end`)
	eng := &JIT{}
	th := fx.driveWith(eng, "t/F", "go(I)I", IntSlot(1))
	fx.mustInt(th, 5)
	th2 := fx.driveWith(eng, "t/F", "go(I)I", IntSlot(0))
	fx.mustInt(th2, 3)
}

func TestMegamorphicDispatch(t *testing.T) {
	// Alternating receiver classes through one call site: every call must
	// dispatch on its own receiver's class.
	fx := newFixture(t, barrier.NoHeapPointer, memlimit.Unlimited)
	fx.define(crossEngineProgram + `
.class t/Poly
.method go ()I static
.locals 3
.stack 4
	new t/Node
	dup
	iconst 1
	invokespecial t/Node.<init> (I)V
	astore 0
	new t/Wide
	dup
	iconst 1
	invokespecial t/Wide.<init> (I)V
	astore 1
	iconst 0
	istore 2
	aload 0
	invokevirtual t/Node.val ()I
	iload 2
	iadd
	istore 2
	aload 1
	invokevirtual t/Node.val ()I
	iload 2
	iadd
	istore 2
	aload 0
	invokevirtual t/Node.val ()I
	iload 2
	iadd
	istore 2
	iload 2
	ireturn
.end
.end`)
	for _, eng := range engines() {
		th := fx.driveWith(eng, "t/Poly", "go()I")
		fx.mustInt(th, 1+2+1)
	}
}
