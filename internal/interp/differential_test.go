package interp

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/barrier"
)

// engines returns the two engines under differential test: the
// interpreter, and the optimizing JIT that overlays statements on it.
func engines() []Engine {
	return []Engine{Interpreter{}, &JIT{}}
}

// outcome is everything observable about one program run that must not
// depend on the engine.
type outcome struct {
	state     State
	result    int64
	uncaught  string
	errored   bool
	cycles    uint64
	userBytes uint64
}

func (o outcome) String() string {
	return fmt.Sprintf("state=%v result=%d uncaught=%q errored=%v cycles=%d userBytes=%d",
		o.state, o.result, o.uncaught, o.errored, o.cycles, o.userBytes)
}

// yieldRec is where a thread stood when one Step returned.
type yieldRec struct {
	depth  int
	method string
	pc, sp int
	cycles uint64
}

// quanta are the fuel grants the differential runs under: tiny ones put a
// yield inside every statement the optimizing engine compiles, and 5000 is
// the scheduler-sized grant.
var quanta = []int64{1, 2, 3, 7, 13, 5000}

// runOpts configures one differential run. killAfter > 0 posts a kill
// once that many Steps have returned; maxFrames > 0 bounds the frame
// stack.
type runOpts struct {
	quantum   int64
	killAfter int
	maxFrames int
}

// runOn executes cls.key on a fresh fixture with the given engine and
// captures the outcome and the yield trace: the thread's depth, method,
// pc, stack pointer and cycles at every Step return. Each run gets its own
// namespace and heaps so statics and allocations cannot leak between
// engines.
func runOn(t testing.TB, eng Engine, src, cls, key string, o runOpts) (outcome, []yieldRec) {
	t.Helper()
	fx := newFixture(t, barrier.NoHeapPointer, 1<<30)
	fx.define(src)
	fx.env.MaxFrameDepth = o.maxFrames
	th := fx.newThread()
	m := fx.method(cls, key)
	if err := th.PushFrame(m, nil); err != nil {
		t.Fatal(err)
	}
	var trace []yieldRec
	for i := 1; ; i++ {
		if i > 10_000_000 {
			t.Fatalf("engine %s: thread did not finish in step budget", eng.Name())
		}
		th.Fuel = o.quantum
		r := eng.Step(th)
		rec := yieldRec{depth: len(th.Frames), cycles: th.Cycles}
		if f := th.Top(); f != nil {
			rec.method, rec.pc, rec.sp = f.M.String(), f.PC, f.SP
		}
		trace = append(trace, rec)
		if r == StepFinished || r == StepKilled {
			break
		}
		if r == StepBlocked {
			t.Fatalf("engine %s: thread blocked with no other runner", eng.Name())
		}
		if i == o.killAfter {
			th.Kill()
		}
	}
	out := outcome{
		state:     th.State,
		result:    th.Result.I,
		errored:   th.Err != nil,
		cycles:    th.Cycles,
		userBytes: fx.user.Bytes(),
	}
	if th.Uncaught != nil {
		out.uncaught = th.Uncaught.Class.Name
	}
	return out, trace
}

// diffTraces reports the first step at which two yield traces part.
func diffTraces(a, b []yieldRec) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("step %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	if len(a) != len(b) {
		return fmt.Sprintf("lengths %d vs %d", len(a), len(b))
	}
	return ""
}

// diffRun runs src under every engine and fails on any divergence in
// outcome or yield trace from the interpreter's.
func diffRun(t *testing.T, src, cls, key string, o runOpts) {
	t.Helper()
	engs := engines()
	ref, refTrace := runOn(t, engs[0], src, cls, key, o)
	for _, eng := range engs[1:] {
		got, trace := runOn(t, eng, src, cls, key, o)
		if got != ref {
			t.Errorf("quantum %d: %s diverges from %s:\n  %s: %s\n  %s: %s",
				o.quantum, eng.Name(), engs[0].Name(), engs[0].Name(), ref, eng.Name(), got)
		}
		if d := diffTraces(refTrace, trace); d != "" {
			t.Errorf("quantum %d: %s yield trace diverges from %s at %s", o.quantum, eng.Name(), engs[0].Name(), d)
		}
	}
}

// diffProgram runs cls.key under every engine at every quantum and fails
// on any divergence in result, termination mode, uncaught class, simulated
// cycles, user heap effects or yield trace.
func diffProgram(t *testing.T, name, src, cls, key string) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		for _, q := range quanta {
			diffRun(t, src, cls, key, runOpts{quantum: q})
		}
	})
}

// TestInterpVsJITDifferential runs fixture programs covering arithmetic,
// control flow, allocation, virtual dispatch, exceptions, and arrays
// through both engines and requires bit-identical outcomes.
func TestInterpVsJITDifferential(t *testing.T) {
	diffProgram(t, "arith-loop", `
.class d/A
.method main ()I static
.locals 2
.stack 4
	iconst 0
	istore 0
	iconst 1
	istore 1
L0:	iload 0
	ldc 1000
	if_icmpge L1
	iload 1
	iload 0
	imul
	ldc 7919
	irem
	iconst 1
	iadd
	istore 1
	iinc 0 1
	goto L0
L1:	iload 1
	ireturn
.end
.end`, "d/A", "main()I")

	diffProgram(t, "objects-and-fields", `
.class d/Node
.field next Ld/Node;
.field v I
.method <init> ()V
.locals 1
.stack 1
	aload 0
	invokespecial java/lang/Object.<init> ()V
	return
.end
.end
.class d/B
.method main ()I static
.locals 3
.stack 3
	aconst_null
	astore 0
	iconst 0
	istore 1
L0:	iload 1
	ldc 50
	if_icmpge L1
	new d/Node
	dup
	invokespecial d/Node.<init> ()V
	dup
	aload 0
	putfield d/Node.next Ld/Node;
	dup
	iload 1
	putfield d/Node.v I
	astore 0
	iinc 1 1
	goto L0
L1:	iconst 0
	istore 2
L2:	aload 0
	ifnull L3
	iload 2
	aload 0
	getfield d/Node.v I
	iadd
	istore 2
	aload 0
	getfield d/Node.next Ld/Node;
	astore 0
	goto L2
L3:	iload 2
	ireturn
.end
.end`, "d/B", "main()I")

	diffProgram(t, "virtual-dispatch", `
.class d/Base
.method <init> ()V
.locals 1
.stack 1
	aload 0
	invokespecial java/lang/Object.<init> ()V
	return
.end
.method f (I)I
.locals 2
.stack 2
	iload 1
	iconst 1
	iadd
	ireturn
.end
.end
.class d/Derived extends d/Base
.method <init> ()V
.locals 1
.stack 1
	aload 0
	invokespecial d/Base.<init> ()V
	return
.end
.method f (I)I
.locals 2
.stack 2
	iload 1
	iconst 2
	imul
	ireturn
.end
.end
.class d/C
.method main ()I static
.locals 3
.stack 3
	new d/Base
	dup
	invokespecial d/Base.<init> ()V
	astore 0
	new d/Derived
	dup
	invokespecial d/Derived.<init> ()V
	astore 1
	aload 0
	ldc 10
	invokevirtual d/Base.f (I)I
	aload 1
	ldc 10
	invokevirtual d/Base.f (I)I
	iadd
	ireturn
.end
.end`, "d/C", "main()I")

	diffProgram(t, "exceptions-caught", `
.class d/D
.method main ()I static
.locals 2
.stack 2
	iconst 0
	istore 0
L0:	iconst 5
	iconst 0
	idiv
	istore 1
L1:	goto L3
L2:	pop
	ldc 42
	istore 0
L3:	iload 0
	ireturn
	.catch java/lang/ArithmeticException L0 L1 L2
.end
.end`, "d/D", "main()I")

	diffProgram(t, "exceptions-uncaught", `
.class d/E
.method main ()I static
.locals 1
.stack 2
	aconst_null
	getfield d/E.x I
	ireturn
.end
.field x I
.end`, "d/E", "main()I")

	diffProgram(t, "arrays-and-bounds", `
.class d/F
.method main ()I static
.locals 3
.stack 4
	ldc 64
	newarray [I
	astore 0
	iconst 0
	istore 1
L0:	iload 1
	ldc 64
	if_icmpge L1
	aload 0
	iload 1
	iload 1
	iload 1
	imul
	iastore
	iinc 1 1
	goto L0
L1:	aload 0
	ldc 63
	iaload
	ireturn
.end
.end`, "d/F", "main()I")

	diffProgram(t, "doubles", `
.class d/G
.method main ()I static
.locals 2
.stack 4
	ldc 1.5
	ldc 2.25
	dmul
	ldc 0.125
	dadd
	d2i
	ireturn
.end
.end`, "d/G", "main()I")
}

// genModule emits a random straight-line verified method: stack-depth
// tracked int arithmetic, local traffic, allocation/field snippets, and an
// occasional idiv that can raise ArithmeticException. Both the happy path
// and the throw path must agree across engines.
func genModule(rng *rand.Rand) string {
	const maxStack, maxLocals = 8, 4
	var b strings.Builder
	depth := 0
	fmt.Fprintf(&b, ".class r/R\n.field x I\n.method <init> ()V\n.locals 1\n.stack 1\n\taload 0\n\tinvokespecial java/lang/Object.<init> ()V\n\treturn\n.end\n.end\n")
	fmt.Fprintf(&b, ".class r/Main\n.method main ()I static\n.locals %d\n.stack %d\n", maxLocals, maxStack)
	n := 10 + rng.Intn(60)
	for i := 0; i < n; i++ {
		switch k := rng.Intn(12); {
		case k <= 2 && depth < maxStack:
			fmt.Fprintf(&b, "\ticonst %d\n", rng.Intn(41)-20)
			depth++
		case k == 3 && depth < maxStack:
			fmt.Fprintf(&b, "\tiload %d\n", rng.Intn(maxLocals))
			depth++
		case k == 4 && depth >= 1:
			fmt.Fprintf(&b, "\tistore %d\n", rng.Intn(maxLocals))
			depth--
		case k == 5 && depth >= 2:
			ops := []string{"iadd", "isub", "imul", "iand", "ior", "ixor"}
			fmt.Fprintf(&b, "\t%s\n", ops[rng.Intn(len(ops))])
			depth--
		case k == 6 && depth >= 2 && rng.Intn(4) == 0:
			// idiv may divide by zero; engines must agree on the throw.
			fmt.Fprintf(&b, "\tidiv\n")
			depth--
		case k == 7:
			fmt.Fprintf(&b, "\tiinc %d %d\n", rng.Intn(maxLocals), rng.Intn(11)-5)
		case k == 8 && depth >= 1 && depth < maxStack:
			fmt.Fprintf(&b, "\tdup\n")
			depth++
		case k == 9 && depth >= 1:
			fmt.Fprintf(&b, "\tineg\n")
		case k == 10 && depth+3 <= maxStack:
			// Allocate, set, and read back a field: net one int pushed.
			fmt.Fprintf(&b, "\tnew r/R\n\tdup\n\tinvokespecial r/R.<init> ()V\n")
			fmt.Fprintf(&b, "\tdup\n\ticonst %d\n\tputfield r/R.x I\n", rng.Intn(100))
			fmt.Fprintf(&b, "\tgetfield r/R.x I\n")
			depth++
		case k == 11 && depth >= 1:
			fmt.Fprintf(&b, "\tpop\n")
			depth--
		}
	}
	if depth == 0 {
		fmt.Fprintf(&b, "\ticonst 1\n")
		depth++
	}
	fmt.Fprintf(&b, "\tireturn\n.end\n.end\n")
	return b.String()
}

// TestInterpVsJITDifferentialRandom feeds randomly generated straight-line
// modules through both engines. The generator is seeded, so failures
// reproduce; the verifier guards the generator.
func TestInterpVsJITDifferentialRandom(t *testing.T) {
	const programs = 60
	rng := rand.New(rand.NewSource(0x5eed))
	for i := 0; i < programs; i++ {
		src := genModule(rng)
		name := fmt.Sprintf("prog-%02d", i)
		t.Run(name, func(t *testing.T) {
			for _, q := range quanta {
				diffRun(t, src, "r/Main", "main()I", runOpts{quantum: q})
			}
			if t.Failed() {
				t.Logf("program:\n%s", src)
			}
		})
	}
}
