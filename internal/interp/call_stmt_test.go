package interp

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/barrier"
	"repro/internal/bytecode"
	"repro/internal/memlimit"
)

// ctorChainSrc builds a constructor chain of the given depth in frames —
// classes c/K1..c/K<depth-1>, each constructor calling its superclass's,
// over java/lang/Object's `return` — and a c/Main.main that constructs
// the deepest class six times in a loop, once keeping the object in a
// local and once dropping it. A StackOverflowError handler folds how far
// the loop got into the result.
func ctorChainSrc(depth int) string {
	var b strings.Builder
	super := "java/lang/Object"
	for i := 1; i < depth; i++ {
		cls := fmt.Sprintf("c/K%d", i)
		fmt.Fprintf(&b, `
.class %s extends %s
.method <init> ()V
.locals 1
.stack 1
	aload 0
	invokespecial %s.<init> ()V
	return
.end
.end
`, cls, super, super)
		super = cls
	}
	fmt.Fprintf(&b, `
.class c/Main
.method main ()I static
.locals 3
.stack 3
T0:	ldc 6
	istore 1
	iconst 0
	istore 2
L0:	iload 1
	ifle L1
	new %[1]s
	dup
	invokespecial %[1]s.<init> ()V
	astore 0
	new %[1]s
	dup
	invokespecial %[1]s.<init> ()V
	pop
	iinc 2 3
	iinc 1 -1
	goto L0
L1:	iload 2
	ireturn
T1:	nop
H:	instanceof java/lang/StackOverflowError
	ldc 1000
	imul
	iload 2
	iadd
	ireturn
.catch java/lang/Throwable T0 T1 H
.end
.end
`, super)
	return b.String()
}

// ctorHeads returns the pcs of main's constructor statements and the cost
// of the first, failing unless main has the two the source was built for.
func ctorHeads(t *testing.T, src string) ([]int, int64) {
	t.Helper()
	fx := newFixture(t, barrier.NoHeapPointer, memlimit.Unlimited)
	fx.define(src)
	m := fx.method("c/Main", "main()I")
	body := compile(m)
	var heads []int
	for pc, in := range m.Code.Instrs {
		if in.Op == bytecode.DUP && body.ops[pc].stmt != nil {
			heads = append(heads, pc)
		}
	}
	if cv := CoverageOf(m); len(heads) != 2 || cv.Ctors != 2 {
		t.Fatalf("constructor statements at %v, coverage %+v: want two", heads, cv)
	}
	return heads, body.ops[heads[0]].scost
}

// TestCtorChainDifferential runs chains of depth 1, 2 and 4 on both
// engines at every quantum, including exactly the statement's cost, where
// it must not run, and one cycle more, where it may.
func TestCtorChainDifferential(t *testing.T) {
	for _, depth := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			src := ctorChainSrc(depth)
			_, cost := ctorHeads(t, src)
			if want := int64(1+10) + int64(depth-1)*16 + 5 + 1; cost != want {
				t.Errorf("statement cost %d, want dup+invokespecial+chain+astore = %d", cost, want)
			}
			for _, q := range append([]int64{cost - 1, cost, cost + 1, cost + 2}, quanta...) {
				diffRun(t, src, "c/Main", "main()I", runOpts{quantum: q})
			}
			for _, eng := range engines() {
				if got, _ := runOn(t, eng, src, "c/Main", "main()I", runOpts{quantum: 5000}); got.state != StateFinished || got.result != 18 {
					t.Errorf("%s: %s, want result 18", eng.Name(), got)
				}
			}
		})
	}
}

// TestCtorChainFrameLimit puts the chain at exactly the frame bound and
// one frame past it: StackOverflowError must come from the same push,
// with the same cycles, on both engines.
func TestCtorChainFrameLimit(t *testing.T) {
	for _, depth := range []int{1, 2, 4} {
		src := ctorChainSrc(depth)
		_, cost := ctorHeads(t, src)
		// main is the one frame below the chain.
		for _, c := range []struct {
			max  int
			want int64
		}{{1 + depth, 18}, {depth, 1000}} {
			t.Run(fmt.Sprintf("depth%d/max%d", depth, c.max), func(t *testing.T) {
				for _, q := range append([]int64{cost, cost + 1}, quanta...) {
					diffRun(t, src, "c/Main", "main()I", runOpts{quantum: q, maxFrames: c.max})
				}
				for _, eng := range engines() {
					got, _ := runOn(t, eng, src, "c/Main", "main()I", runOpts{quantum: 5000, maxFrames: c.max})
					if got.state != StateFinished || got.result != c.want {
						t.Errorf("%s: %s, want result %d", eng.Name(), got, c.want)
					}
				}
			})
		}
	}
}

// TestCtorChainKillAtDup posts kills between Steps so that some land while
// the thread stands at a constructor statement's dup: the kill must take
// effect where the interpreter's would.
func TestCtorChainKillAtDup(t *testing.T) {
	src := ctorChainSrc(4)
	heads, cost := ctorHeads(t, src)
	atDup := 0
	for _, q := range []int64{1, 2, 3, 7, 13, cost + 1} {
		for k := 1; k <= 40; k++ {
			o := runOpts{quantum: q, killAfter: k}
			diffRun(t, src, "c/Main", "main()I", o)
			got, trace := runOn(t, optimizing(), src, "c/Main", "main()I", o)
			if k >= len(trace) {
				continue
			}
			if got.state != StateKilled {
				t.Fatalf("quantum %d kill after %d: %s", q, k, got)
			}
			if pc := trace[k-1].pc; trace[k-1].depth == 1 && (pc == heads[0] || pc == heads[1]) {
				atDup++
			}
		}
	}
	if atDup == 0 {
		t.Fatal("no kill was posted while the thread stood at a constructor statement")
	}
}

const nullCtorSrc = `
.class c/K1
.method <init> ()V
.locals 1
.stack 1
	aload 0
	invokespecial java/lang/Object.<init> ()V
	return
.end
.end
.class c/Main
.method main ()I static
.locals 1
.stack 2
T0:	aconst_null
	dup
	invokespecial c/K1.<init> ()V
	astore 0
	iconst 1
	ireturn
T1:	nop
H:	instanceof java/lang/NullPointerException
	ldc 40
	iadd
	ireturn
.catch java/lang/Throwable T0 T1 H
.end
.end`

// TestCtorChainNullReceiver constructs on null: the statement must retry
// and the invokespecial arm throw NullPointerException.
func TestCtorChainNullReceiver(t *testing.T) {
	fx := newFixture(t, barrier.NoHeapPointer, memlimit.Unlimited)
	fx.define(nullCtorSrc)
	if body := compile(fx.method("c/Main", "main()I")); body.ops[1].stmt == nil {
		t.Fatal("dup; invokespecial is not a statement: the test tests nothing")
	}
	for _, q := range quanta {
		diffRun(t, nullCtorSrc, "c/Main", "main()I", runOpts{quantum: q})
	}
	for _, eng := range engines() {
		if got, _ := runOn(t, eng, nullCtorSrc, "c/Main", "main()I", runOpts{quantum: 5000}); got.result != 41 {
			t.Errorf("%s: %s, want the NullPointerException handler's 41", eng.Name(), got)
		}
	}
}

// uncoveredCtors are constructors no statement may cover, each beside the
// call site that would be one if they were trivial.
var uncoveredCtors = []struct {
	name, src string
	kernel    string // a constructor to mark kernel, if any
}{
	{"putfield", `
.class c/K
.field v I
.method <init> ()V
.locals 1
.stack 2
	aload 0
	invokespecial java/lang/Object.<init> ()V
	aload 0
	iconst 3
	putfield c/K.v I
	return
.end
.end`, ""},
	{"putfield-in-super", `
.class c/S
.field v I
.method <init> ()V
.locals 1
.stack 2
	aload 0
	invokespecial java/lang/Object.<init> ()V
	aload 0
	iconst 3
	putfield c/S.v I
	return
.end
.end
.class c/K extends c/S
.method <init> ()V
.locals 1
.stack 1
	aload 0
	invokespecial c/S.<init> ()V
	return
.end
.end`, ""},
	{"argument", `
.class c/K
.method <init> (I)V
.locals 2
.stack 1
	return
.end
.end`, ""},
	{"kernel", `
.class c/K
.method <init> ()V
.locals 1
.stack 1
	aload 0
	invokespecial java/lang/Object.<init> ()V
	return
.end
.end`, "c/K"},
}

// TestCtorNotCovered holds the trivial-constructor rule to its letter:
// a constructor that stores a field, calls one that does, takes an
// argument or is marked kernel runs through the arms.
func TestCtorNotCovered(t *testing.T) {
	for _, c := range uncoveredCtors {
		t.Run(c.name, func(t *testing.T) {
			call := "\tdup\n\tinvokespecial c/K.<init> ()V\n"
			if c.name == "argument" {
				call = "\tdup\n\ticonst 5\n\tinvokespecial c/K.<init> (I)V\n"
			}
			src := c.src + `
.class c/Main
.method main ()I static
.locals 1
.stack 3
	new c/K
` + call + `	astore 0
	iconst 9
	ireturn
.end
.end`
			fx := newFixture(t, barrier.NoHeapPointer, memlimit.Unlimited)
			fx.define(src)
			if c.kernel != "" {
				fx.method(c.kernel, "<init>()V").Kernel = true
			}
			if cv := CoverageOf(fx.method("c/Main", "main()I")); cv.Ctors != 0 {
				t.Errorf("%d constructor statements, want none", cv.Ctors)
			}
			for _, q := range quanta {
				diffRun(t, src, "c/Main", "main()I", runOpts{quantum: q})
			}
		})
	}
}

const staticsSrc = `
.class s/G
.static i I
.static d D
.static r Ls/G;
.method <init> ()V
.locals 1
.stack 1
	return
.end
.method main ()I static
.locals 3
.stack 4
	ldc 5
	istore 0
	new s/G
	astore 2
L0:	iload 0
	ifle L1
	getstatic s/G.i I
	iload 0
	iconst 3
	imul
	iadd
	putstatic s/G.i I
	getstatic s/G.d D
	ldc 1.5
	dadd
	putstatic s/G.d D
	getstatic s/G.r Ls/G;
	ifnonnull L2
	aload 2
	putstatic s/G.r Ls/G;
L2:	getstatic s/G.r Ls/G;
	astore 1
	iinc 0 -1
	goto L0
L1:	getstatic s/G.i I
	getstatic s/G.d D
	d2i
	iadd
	aload 1
	ifnull L3
	iconst 1
	iadd
L3:	ireturn
.end
.end`

// TestStaticFieldStatements runs int, double and reference statics
// through both engines at every quantum; the reference putstatic runs
// the write barrier, so it alone stays in its arm.
func TestStaticFieldStatements(t *testing.T) {
	fx := newFixture(t, barrier.NoHeapPointer, memlimit.Unlimited)
	fx.define(staticsSrc)
	m := fx.method("s/G", "main()I")
	for pc, in := range m.Code.Instrs {
		if in.Op != bytecode.GETSTATIC && in.Op != bytecode.PUTSTATIC {
			continue
		}
		covered := coveringStmt(t, staticsSrc, "s/G", "main()I", pc) >= 0
		if ref := m.Links[in.A].Field.Ref && in.Op == bytecode.PUTSTATIC; covered == ref {
			t.Errorf("%s at pc %d: covered %v", in.Op.Name(), pc, covered)
		}
	}
	if cv := CoverageOf(m); cv.Statics != 8 {
		t.Errorf("%d static accesses in statements, want 8", cv.Statics)
	}
	for _, q := range quanta {
		diffRun(t, staticsSrc, "s/G", "main()I", runOpts{quantum: q})
	}
	for _, eng := range engines() {
		// i = 3*(5+4+3+2+1), d = 5*1.5, r set.
		if got, _ := runOn(t, eng, staticsSrc, "s/G", "main()I", runOpts{quantum: 5000}); got.result != 45+7+1 {
			t.Errorf("%s: %s, want %d", eng.Name(), got, 45+7+1)
		}
	}
}
