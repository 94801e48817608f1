package interp

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/barrier"
	"repro/internal/memlimit"
)

// loopHeader returns the pc and iteration cost of the one loop statement
// the optimizing engine compiles in cls.main()I; the test fails if there
// is none, since the fixture would then test nothing.
func loopHeader(t *testing.T, src, cls string) (int, int64) {
	t.Helper()
	fx := newFixture(t, barrier.NoHeapPointer, memlimit.Unlimited)
	fx.define(src)
	for pc, op := range compile(fx.method(cls, "main()I")).ops {
		if op.loop != nil {
			return pc, op.iter
		}
	}
	t.Fatalf("%s.main()I compiles no loop", cls)
	return -1, 0
}

// diffLoop runs src through both engines at every differential quantum
// and at quanta around the loop's iteration cost: exactly one iteration,
// one cycle more, one less, and two iterations.
func diffLoop(t *testing.T, src, cls string) {
	t.Helper()
	_, iter := loopHeader(t, src, cls)
	qs := append([]int64{iter - 1, iter, iter + 1, 2 * iter, 2*iter + 1}, quanta...)
	for _, q := range qs {
		diffRun(t, src, cls, "main()I", runOpts{quantum: q})
	}
}

// mirrors maps each comparison to the one that holds with its operands
// swapped.
var mirrors = map[string]string{"eq": "eq", "ne": "ne", "lt": "gt", "gt": "lt", "le": "ge", "ge": "le"}

// countedSrc is a counted loop whose header is `iload 0; <limit>;
// if_icmp<cc> X` (or the limit first), with every limit kind worth 300.
// Local 0 starts where the loop runs: up from 0 when the exit tests i
// above the limit, down from 600 when below it, at 300 for ne. The body
// is two statements, and the back edge is iinc 0; goto.
func countedSrc(cc string, limitFirst bool, limit string) string {
	exit := cc
	if limitFirst {
		exit = mirrors[cc]
	}
	init, step := 0, 1
	switch exit {
	case "lt", "le":
		init, step = 600, -1
	case "ne":
		init = 300
	}
	lim := map[string]string{
		"iconst":      "iconst 300",
		"ldc":         "ldc 300",
		"iload":       "iload 2",
		"arraylength": "aload 3\n\tarraylength",
	}[limit]
	hdr := "iload 0\n\t" + lim
	if limitFirst {
		hdr = lim + "\n\tiload 0"
	}
	return fmt.Sprintf(`
.class l/C
.method main ()I static
.locals 5
.stack 4
	ldc %d
	istore 0
	iconst 7
	istore 1
	ldc 300
	istore 2
	ldc 300
	newarray [I
	astore 3
	iconst 8
	newarray [I
	astore 4
LH:	%s
	if_icmp%s X
	iload 1
	ldc 31
	imul
	iload 0
	iadd
	ldc 65535
	iand
	istore 1
	aload 4
	iload 0
	iconst 7
	iand
	iload 1
	iastore
	iinc 0 %d
	goto LH
X:	iload 1
	aload 4
	iconst 3
	iaload
	ixor
	iload 0
	ixor
	ireturn
.end
.end`, init, hdr, cc, step)
}

// TestCountedLoopDifferential runs a counted loop for every if_icmp<cc>,
// both operand orders and each limit kind through both engines, and
// requires each to compile as a loop statement.
func TestCountedLoopDifferential(t *testing.T) {
	for _, cc := range []string{"eq", "ne", "lt", "ge", "gt", "le"} {
		for _, limitFirst := range []bool{false, true} {
			for _, limit := range []string{"iconst", "ldc", "iload", "arraylength"} {
				name := fmt.Sprintf("%s/limit-first=%v/%s", cc, limitFirst, limit)
				t.Run(name, func(t *testing.T) {
					src := countedSrc(cc, limitFirst, limit)
					fx := newFixture(t, barrier.NoHeapPointer, memlimit.Unlimited)
					fx.define(src)
					if n := LoopsOf(fx.method("l/C", "main()I")); n != 1 {
						t.Fatalf("compiled %d loops, want one", n)
					}
					diffLoop(t, src, "l/C")
				})
			}
		}
	}
}

// loopFixtures are loops with a general header, or whose body or header
// throws at some iteration. Every handler folds the locals into the
// result, so a side effect that escaped before a failed check, or a
// statement that ran twice, changes it.
var loopFixtures = []struct {
	name, src string
	want      int64
}{
	{"general-header", `
.class l/G
.method main ()I static
.locals 3
.stack 4
	iconst 0
	istore 0
	ldc 400
	istore 1
	iconst 0
	istore 2
LH:	iload 0
	iload 1
	iconst 24
	iadd
	if_icmpge X
	iload 2
	iload 0
	ixor
	ldc 65535
	iand
	istore 2
	iload 0
	iconst 1
	iadd
	istore 0
	goto LH
X:	iload 2
	iload 0
	iadd
	ireturn
.end
.end`, 0},

	{"null-header", `
.class l/N
.field next Ll/N;
.field x I
.method <init> ()V
.locals 1
.stack 1
	aload 0
	invokespecial java/lang/Object.<init> ()V
	return
.end
.method main ()I static
.locals 3
.stack 4
	aconst_null
	astore 0
	iconst 0
	istore 2
B:	iload 2
	ldc 200
	if_icmpge W
	new l/N
	dup
	invokespecial l/N.<init> ()V
	astore 1
	aload 1
	aload 0
	putfield l/N.next Ll/N;
	aload 1
	iload 2
	putfield l/N.x I
	aload 1
	astore 0
	iinc 2 1
	goto B
W:	iconst 0
	istore 2
LH:	aload 0
	ifnull X
	iload 2
	ldc 31
	imul
	aload 0
	getfield l/N.x I
	iadd
	ldc 65535
	iand
	istore 2
	aload 0
	getfield l/N.next Ll/N;
	astore 0
	goto LH
X:	iload 2
	ireturn
.end
.end`, 0},

	{"oob-iaload-at-5", `
.class l/B
.method main ()I static
.locals 3
.stack 4
	iconst 0
	istore 0
	iconst 1
	istore 1
	iconst 5
	newarray [I
	astore 2
T0:	iload 0
	ldc 300
	if_icmpge X
	iload 1
	iconst 3
	imul
	iload 0
	iadd
	istore 1
	iload 1
	aload 2
	iload 0
	iaload
	iadd
	istore 1
	iinc 0 1
	goto T0
X:	iload 1
	ireturn
T1:	nop
H:	instanceof java/lang/ArrayIndexOutOfBoundsException
	iload 0
	ldc 1000
	imul
	iadd
	iload 1
	iadd
	ireturn
.catch java/lang/RuntimeException T0 T1 H
.end
.end`, 1 + 5000 + 908},

	{"null-getfield-at-4", `
.class l/F
.field x I
.method <init> ()V
.locals 1
.stack 1
	aload 0
	invokespecial java/lang/Object.<init> ()V
	return
.end
.method main ()I static
.locals 3
.stack 4
	iconst 0
	istore 0
	iconst 0
	istore 1
	iconst 8
	newarray [Ll/F;
	astore 2
B:	iload 0
	iconst 4
	if_icmpge W
	aload 2
	iload 0
	new l/F
	dup
	invokespecial l/F.<init> ()V
	aastore
	iinc 0 1
	goto B
W:	iconst 0
	istore 0
T0:	iload 0
	ldc 300
	if_icmpge X
	iload 1
	iload 0
	iadd
	istore 1
	iload 1
	aload 2
	iload 0
	aaload
	getfield l/F.x I
	iadd
	istore 1
	iinc 0 1
	goto T0
X:	iload 1
	ireturn
T1:	nop
H:	instanceof java/lang/NullPointerException
	iload 0
	ldc 1000
	imul
	iadd
	iload 1
	iadd
	ireturn
.catch java/lang/RuntimeException T0 T1 H
.end
.end`, 1 + 4000 + 10},

	{"zero-divisor-at-7", `
.class l/D
.method main ()I static
.locals 2
.stack 4
	iconst 0
	istore 0
	iconst 0
	istore 1
T0:	iload 0
	ldc 300
	if_icmpge X
	iload 1
	ldc 1000
	iload 0
	iconst 7
	isub
	idiv
	iadd
	istore 1
	iinc 0 1
	goto T0
X:	iload 1
	ireturn
T1:	nop
H:	instanceof java/lang/ArithmeticException
	iload 0
	ldc 1000
	imul
	iadd
	iload 1
	iadd
	ireturn
.catch java/lang/RuntimeException T0 T1 H
.end
.end`, 1 + 7000 - 142 - 166 - 200 - 250 - 333 - 500 - 1000},

	{"null-array-header-at-start", `
.class l/A
.method main ()I static
.locals 3
.stack 4
	iconst 0
	istore 0
	iconst 0
	istore 1
	aconst_null
	astore 2
T0:	iload 0
	aload 2
	arraylength
	if_icmpge X
	iload 1
	iload 0
	iadd
	istore 1
	iinc 0 1
	goto T0
X:	iload 1
	ireturn
T1:	nop
H:	instanceof java/lang/NullPointerException
	iload 0
	ldc 1000
	imul
	iadd
	iload 1
	iadd
	ireturn
.catch java/lang/RuntimeException T0 T1 H
.end
.end`, 1},

	{"null-array-header-at-6", `
.class l/E
.method main ()I static
.locals 4
.stack 4
	iconst 0
	istore 0
	iconst 0
	istore 1
	iconst 6
	newarray [[I
	astore 3
B:	iload 0
	iconst 6
	if_icmpge W
	aload 3
	iload 0
	ldc 300
	newarray [I
	aastore
	iinc 0 1
	goto B
W:	iconst 0
	istore 0
	aload 3
	iconst 0
	aaload
	astore 2
T0:	iload 0
	aload 2
	arraylength
	if_icmpge X
	iload 1
	iload 0
	iadd
	istore 1
	aload 3
	iload 0
	iconst 1
	iadd
	ldc 6
	irem
	iload 0
	iconst 5
	ishr
	iadd
	aaload
	astore 2
	iinc 0 1
	goto T0
X:	iload 1
	ireturn
T1:	nop
H:	instanceof java/lang/NullPointerException
	iload 0
	ldc 1000
	imul
	iadd
	iload 1
	iadd
	ireturn
.catch java/lang/RuntimeException T0 T1 H
.end
.end`, 0},
}

// TestLoopFixturesDifferential runs every loop fixture through both
// engines at every differential quantum and around its iteration cost,
// and checks the result both engines agree on.
func TestLoopFixturesDifferential(t *testing.T) {
	for _, lf := range loopFixtures {
		t.Run(lf.name, func(t *testing.T) {
			cls := lf.src[strings.Index(lf.src, ".class ")+7:]
			cls = cls[:strings.IndexByte(cls, '\n')]
			diffLoop(t, lf.src, cls)
			if lf.want == 0 {
				return
			}
			got, _ := runOn(t, optimizing(), lf.src, cls, "main()I", runOpts{quantum: 5000})
			if got.state != StateFinished || got.result != lf.want {
				t.Errorf("%s, want result %d", got, lf.want)
			}
		})
	}
}

// TestLoopKillPendingDifferential posts kills between Steps at quanta that
// let whole iterations run, so some land while the thread is parked at a
// loop header: the kill must take effect at the interpreter's safepoint.
func TestLoopKillPendingDifferential(t *testing.T) {
	src := countedSrc("ge", false, "iload")
	h, iter := loopHeader(t, src, "l/C")
	atHeader := 0
	for _, q := range []int64{1, 7, 13, iter, iter + 1, 2*iter + 3, 5 * iter, 5000} {
		for k := 1; k <= 12; k++ {
			o := runOpts{quantum: q, killAfter: k}
			diffRun(t, src, "l/C", "main()I", o)
			got, trace := runOn(t, optimizing(), src, "l/C", "main()I", o)
			if len(trace) <= k {
				continue // finished before the kill was posted
			}
			if got.state != StateKilled {
				t.Fatalf("quantum %d kill after %d: %s", q, k, got)
			}
			if trace[k-1].pc == h {
				atHeader++
			}
		}
	}
	if atHeader == 0 {
		t.Fatal("no kill was posted while the thread stood at a loop header")
	}
}
