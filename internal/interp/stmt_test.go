package interp

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/barrier"
	"repro/internal/bytecode"
	"repro/internal/memlimit"
)

// optimizing is the engine whose statements these tests exercise.
func optimizing() *JIT { return &JIT{} }

// coveringStmt returns the head pc of the statement that covers pc in the
// optimizing engine's compilation of cls.key, or -1.
func coveringStmt(t *testing.T, src, cls, key string, pc int) int {
	t.Helper()
	fx := newFixture(t, barrier.NoHeapPointer, memlimit.Unlimited)
	fx.define(src)
	m := fx.method(cls, key)
	body := compile(m)
	for h := pc; h >= 0; h-- {
		if body.ops[h].stmt == nil {
			continue
		}
		// A statement's cost is the sum over the contiguous run it
		// covers, so it reaches pc iff it costs at least [h, pc].
		var through int64
		for _, in := range m.Code.Instrs[h : pc+1] {
			through += int64(in.Op.Cycles())
		}
		if body.ops[h].scost >= through {
			return h
		}
		return -1
	}
	return -1
}

// firstPC is the pc of the first op in cls.key.
func firstPC(t *testing.T, src, cls, key string, op bytecode.Op) int {
	t.Helper()
	fx := newFixture(t, barrier.NoHeapPointer, memlimit.Unlimited)
	fx.define(src)
	for pc, in := range fx.method(cls, key).Code.Instrs {
		if in.Op == op {
			return pc
		}
	}
	t.Fatalf("%s.%s has no %s", cls, key, op.Name())
	return -1
}

// stmtThrowFixtures each throw from inside a statement. Every handler
// folds what it can see — the throwable's class, the locals the statement
// would have written, the array it would have stored into — into the
// result, so a side effect that escaped before the check changes it.
var stmtThrowFixtures = []struct {
	name, cls, src string
	// key is the method holding the throwing statement.
	key     string
	throwOp bytecode.Op
	want    int64
}{
	{"null-getfield-in-arith", "s/A", `
.class s/A
.field v I
.method main ()I static
.locals 3
.stack 4
	aconst_null
	astore 0
	ldc 7
	istore 1
	ldc 5
	istore 2
T0:	iload 1
	aload 0
	getfield s/A.v I
	iconst 3
	imul
	iadd
	istore 2
T1:	iload 2
	ireturn
H:	instanceof java/lang/NullPointerException
	iload 2
	ldc 100
	imul
	iadd
	iload 1
	iadd
	ireturn
.catch java/lang/RuntimeException T0 T1 H
.end
.end`, "main()I", bytecode.GETFIELD, 1 + 500 + 7},

	{"oob-iastore-index", "s/B", `
.class s/B
.method main ()I static
.locals 3
.stack 5
	iconst 4
	newarray [I
	astore 0
	iconst 9
	istore 1
	ldc 11
	istore 2
T0:	aload 0
	dup
	arraylength
	iload 1
	iadd
	iconst 4
	isub
	iload 2
	iastore
	aload 0
	iconst 0
	iaload
	ireturn
T1:	nop
H:	instanceof java/lang/ArrayIndexOutOfBoundsException
	aload 0
	arraylength
	iadd
	aload 0
	iconst 3
	iaload
	iadd
	iload 2
	iadd
	ireturn
.catch java/lang/RuntimeException T0 T1 H
.end
.end`, "main()I", bytecode.IASTORE, 1 + 4 + 0 + 11},

	{"zero-divisor-in-compare", "s/C", `
.class s/C
.method main ()I static
.locals 2
.stack 4
	ldc 50
	istore 0
	iconst 0
	istore 1
T0:	iload 0
	iload 0
	iload 1
	idiv
	iconst 2
	iadd
	if_icmplt L
	iinc 0 1
L:	iload 0
	ireturn
T1:	nop
H:	instanceof java/lang/ArithmeticException
	iload 0
	iadd
	ireturn
.catch java/lang/ArithmeticException T0 T1 H
.end
.end`, "main()I", bytecode.IDIV, 1 + 50},

	{"throw-into-caller-frame", "s/D", `
.class s/D
.field v I
.method leaf (Ls/D;I)I static
.locals 3
.stack 4
	iload 1
	aload 0
	getfield s/D.v I
	iadd
	istore 2
	iload 2
	ireturn
.end
.method main ()I static
.locals 1
.stack 4
	ldc 3
	istore 0
	iload 0
T0:	aconst_null
	iload 0
	invokestatic s/D.leaf (Ls/D;I)I
	iadd
	ireturn
T1:	nop
H:	instanceof java/lang/NullPointerException
	iload 0
	iadd
	ireturn
.catch java/lang/NullPointerException T0 T1 H
.end
.end`, "leaf(Ls/D;I)I", bytecode.GETFIELD, 1 + 3},
}

// TestStatementThrowsDifferential throws from inside compiled statements
// and requires the interpreter's outcome and yield trace at every quantum:
// the statement must bail out before any side effect and the per-
// instruction path must throw from the very frame the interpreter does.
func TestStatementThrowsDifferential(t *testing.T) {
	for _, fx := range stmtThrowFixtures {
		t.Run(fx.name, func(t *testing.T) {
			cls := fx.cls
			pc := firstPC(t, fx.src, cls, fx.key, fx.throwOp)
			if coveringStmt(t, fx.src, cls, fx.key, pc) < 0 {
				t.Fatalf("%s at pc %d is not inside a statement: the fixture tests nothing", fx.throwOp.Name(), pc)
			}
			for _, q := range quanta {
				diffRun(t, fx.src, cls, "main()I", runOpts{quantum: q})
			}
			for _, eng := range engines() {
				got, trace := runOn(t, eng, fx.src, cls, "main()I", runOpts{quantum: 1})
				if got.state != StateFinished || got.result != fx.want {
					t.Errorf("%s: %s, want result %d", eng.Name(), got, fx.want)
				}
				// At quantum 1 the thread yields after every handler
				// instruction; the first yield there holds exactly the
				// throwable on the operand stack.
				if h := handlerYield(trace); h.sp != 1 || h.depth != 1 {
					t.Errorf("%s: first handler yield %+v, want depth 1 and sp 1", eng.Name(), h)
				}
			}
		})
	}
}

// handlerYield is the first yield after the cycles jump by at least the
// fast dispatch base cost — the first step that raised.
func handlerYield(trace []yieldRec) yieldRec {
	for i := 1; i < len(trace); i++ {
		if trace[i].cycles-trace[i-1].cycles >= fastThrowBase {
			return trace[i]
		}
	}
	return yieldRec{}
}

const killLoop = `
.class s/K
.method main ()I static
.locals 2
.stack 4
	iconst 0
	istore 0
	iconst 0
	istore 1
L0:	iload 0
	ldc 100000
	if_icmpge L1
	iload 1
	iload 0
	iconst 3
	imul
	ixor
	ldc 65535
	iand
	istore 1
	iinc 0 1
	goto L0
L1:	iload 1
	ireturn
.end
.end`

// TestStatementKillPendingDifferential posts kills between Steps, so some
// land while the thread is parked at a statement head: the kill must take
// effect at the interpreter's safepoint, never inside or after the
// statement.
func TestStatementKillPendingDifferential(t *testing.T) {
	fx := newFixture(t, barrier.NoHeapPointer, memlimit.Unlimited)
	fx.define(killLoop)
	body := compile(fx.method("s/K", "main()I"))
	atHead := 0
	for _, q := range []int64{1, 2, 3, 7, 13} {
		for k := 1; k <= 16; k++ {
			o := runOpts{quantum: q, killAfter: k}
			diffRun(t, killLoop, "s/K", "main()I", o)
			got, trace := runOn(t, optimizing(), killLoop, "s/K", "main()I", o)
			if got.state != StateKilled || got.uncaught != "" {
				t.Fatalf("quantum %d kill after %d: %s", q, k, got)
			}
			if pc := trace[k-1].pc; body.ops[pc].stmt != nil {
				atHead++
			}
		}
	}
	if atHead == 0 {
		t.Fatal("no kill was posted while the thread stood at a statement head")
	}
}

// genStatements emits a verified method of straight-line segments for
// the statement compiler: each segment starts on an empty stack at a
// label, builds operand trees from every node kind and ends in one root
// kind — a local store, iinc+goto, iastore, putfield, putstatic, a
// forward branch, a constructor call on a new or an existing object — or
// in a block end that leaves values for per-instruction code. Nulls,
// out-of-range indices and zero divisors occur, so statements bail out;
// a catch-all handler folds the locals into the result. Two programs in
// three wrap the segments in a loop over local 8, under one of several
// headers and stepped by iinc or by iadd; istore, and mostly pick
// segments a loop statement can hold.
func genStatements(rng *rand.Rand) string {
	var b strings.Builder
	emit := func(format string, args ...any) { fmt.Fprintf(&b, "\t"+format+"\n", args...) }
	b.WriteString(`
.class r/R
.field x I
.field next Lr/R;
.method <init> ()V
.locals 1
.stack 1
	aload 0
	invokespecial java/lang/Object.<init> ()V
	return
.end
.end
.class r/Main
.static si I
.static sd D
.static sr Lr/R;
.method main ()I static
.locals 10
.stack 24
`)
	// Locals: 0-3 ints, 4 a double, 5 an int array, 6 an r/R, 7 an r/R
	// array, 8 and 9 the loop's counter and limit.
	for i := 0; i < 4; i++ {
		emit("ldc %d", rng.Int63n(1<<20)-1<<19)
		emit("istore %d", i)
	}
	emit("ldc %.6e", rng.Float64()*100-50)
	emit("dstore 4")
	if rng.Intn(8) == 0 {
		emit("aconst_null")
	} else {
		emit("iconst 8")
		emit("newarray [I")
	}
	emit("astore 5")
	if rng.Intn(8) == 0 {
		emit("aconst_null")
		emit("astore 6")
	} else {
		emit("new r/R")
		emit("dup")
		emit("invokespecial r/R.<init> ()V")
		emit("astore 6")
		emit("aload 6")
		emit("aload 6")
		emit("putfield r/R.next Lr/R;")
	}
	emit("iconst 4")
	emit("newarray [Lr/R;")
	emit("astore 7")
	emit("aload 7")
	emit("iconst 1")
	emit("aload 6")
	emit("aastore")

	var genInt, genIdx func(d int)
	var genObj func(d int)
	genArr := func() {
		if rng.Intn(12) == 0 {
			emit("aconst_null")
		} else {
			emit("aload 5")
		}
	}
	genRefArr := func() {
		if rng.Intn(16) == 0 {
			emit("aconst_null")
		} else {
			emit("aload 7")
		}
	}
	genObj = func(d int) {
		switch k := rng.Intn(11); {
		case d == 0 || k < 5:
			emit("aload 6")
		case k == 5:
			emit("aconst_null")
		case k == 10:
			emit("getstatic r/Main.sr Lr/R;")
		case k < 8:
			genObj(d - 1)
			emit("getfield r/R.next Lr/R;")
		default:
			genRefArr()
			genIdx(d - 1)
			emit("aaload")
		}
	}
	genIdx = func(d int) {
		genInt(d)
		if rng.Intn(5) > 0 {
			emit("iconst 3")
			emit("iand")
		}
	}
	binops := []string{"iadd", "isub", "imul", "iand", "ior", "ixor", "ishl", "ishr", "iushr",
		"idiv", "irem", "dadd", "dsub", "dmul", "ddiv", "dcmp"}
	genInt = func(d int) {
		k := rng.Intn(13)
		if d == 0 {
			k = rng.Intn(4)
		}
		switch k {
		case 12:
			emit([]string{"getstatic r/Main.si I", "getstatic r/Main.sd D"}[rng.Intn(2)])
		case 0:
			emit("iconst %d", rng.Intn(13)-3)
		case 1:
			if rng.Intn(2) == 0 {
				emit("ldc %d", rng.Int63()-1<<62)
			} else {
				emit("ldc %.6e", rng.NormFloat64()*1e3)
			}
		case 2:
			emit("iload %d", rng.Intn(4))
		case 3:
			emit("dload 4")
		case 4, 5, 6:
			genInt(d - 1)
			genInt(d - 1)
			emit(binops[rng.Intn(len(binops))])
		case 7:
			genInt(d - 1)
			emit([]string{"ineg", "dneg", "i2d", "d2i"}[rng.Intn(4)])
		case 8:
			genObj(d - 1)
			emit("getfield r/R.x I")
		case 9, 10:
			genArr()
			genIdx(d - 1)
			emit("iaload")
		default:
			if rng.Intn(2) == 0 {
				genArr()
			} else {
				genRefArr()
			}
			emit("arraylength")
		}
	}

	segs := 6 + rng.Intn(20)
	loop := rng.Intn(3)
	if loop > 0 {
		segs = 2 + rng.Intn(5)
	}
	label := func(i int) string {
		if i >= segs {
			return "END"
		}
		return fmt.Sprintf("S%d", i)
	}
	later := func(i int) string { return label(i + 1 + rng.Intn(segs-i)) }
	conds := []string{"eq", "ne", "lt", "ge", "gt", "le"}
	if loop > 0 {
		emit("iconst 0")
		emit("istore 8")
		emit("ldc %d", rng.Intn(40))
		emit("istore 9")
		b.WriteString("LH:")
		switch rng.Intn(6) {
		case 0:
			emit("iload 8\n\tiload 9\n\tif_icmpge END")
		case 1:
			emit("iload 9\n\tiload 8\n\tif_icmple END")
		case 2:
			emit("iload 8\n\tldc %d\n\tif_icmpge END", rng.Intn(40))
		case 3:
			emit("iload 8\n\taload 5\n\tarraylength\n\tif_icmpge END")
		case 4:
			emit("aload 5\n\tarraylength\n\tiload 8\n\tif_icmple END")
		default:
			emit("iload 8\n\tiload 0\n\ticonst 3\n\tiand\n\tiadd\n\tiload 9\n\tif_icmpge END")
		}
	}
	for i := 0; i < segs; i++ {
		fmt.Fprintf(&b, "%s:", label(i))
		d := 1 + rng.Intn(3)
		kind := rng.Intn(18)
		if loop > 0 && rng.Intn(16) > 0 {
			kind = rng.Intn(7) // the kinds a loop statement can hold
		}
		switch kind {
		case 0:
			genInt(d)
			emit("istore %d", rng.Intn(4))
		case 1:
			genInt(d)
			emit("dstore 4")
		case 2:
			genObj(d)
			emit("astore 6")
		case 3:
			genArr()
			genIdx(d)
			genInt(d)
			emit("iastore")
		case 4:
			genObj(d)
			genInt(d)
			emit("putfield r/R.x I")
		case 5:
			genObj(d)
			emit("dup")
			emit("invokespecial r/R.<init> ()V")
			emit("astore 6")
		case 6:
			genInt(d)
			emit([]string{"putstatic r/Main.si I", "putstatic r/Main.sd D"}[rng.Intn(2)])
		case 7:
			genInt(d)
			emit("if%s %s", conds[rng.Intn(6)], later(i))
		case 8:
			genInt(d)
			genInt(d)
			emit("if_icmp%s %s", conds[rng.Intn(6)], later(i))
		case 9:
			genObj(d)
			emit("%s %s", []string{"ifnull", "ifnonnull"}[rng.Intn(2)], later(i))
		case 10:
			genObj(d)
			genObj(d)
			emit("%s %s", []string{"if_acmpeq", "if_acmpne"}[rng.Intn(2)], later(i))
		case 11:
			emit("iinc %d %d", rng.Intn(4), rng.Intn(9)-4)
			emit("goto %s", label(i+1))
		case 12:
			genInt(d)
			genInt(d)
			emit("pop")
			emit("pop")
		case 13:
			genInt(d)
			emit("dup")
			emit([]string{"iadd", "imul", "ixor", "isub"}[rng.Intn(4)])
			emit("istore %d", rng.Intn(4))
		case 14:
			genInt(d)
			genInt(d)
			emit("swap")
			emit("isub")
			emit("istore %d", rng.Intn(4))
		case 16:
			emit("new r/R")
			emit("dup")
			emit("invokespecial r/R.<init> ()V")
			emit([]string{"astore 6", "putstatic r/Main.sr Lr/R;"}[rng.Intn(2)])
		case 17:
			genObj(d)
			emit("putstatic r/Main.sr Lr/R;")
		default:
			genInt(d)
			emit("istore %d", rng.Intn(4))
			emit("goto %s", later(i))
		}
	}
	if loop == 1 {
		emit("iinc 8 1\n\tgoto LH")
	} else if loop == 2 {
		emit("iload 8\n\ticonst 1\n\tiadd\n\tistore 8\n\tgoto LH")
	}
	b.WriteString("END:")
	emit("iload 0")
	for i := 1; i < 5; i++ {
		emit("iload %d", i)
		emit("ixor")
	}
	emit("getstatic r/Main.si I")
	emit("ixor")
	emit("getstatic r/Main.sd D")
	emit("ixor")
	emit("aload 5")
	emit("ifnull DONE")
	emit("aload 5")
	emit("iconst 2")
	emit("iaload")
	emit("ixor")
	b.WriteString("DONE:")
	emit("aload 6")
	emit("ifnull RET")
	emit("aload 6")
	emit("getfield r/R.x I")
	emit("ixor")
	b.WriteString("RET:")
	emit("ireturn")
	b.WriteString("H:")
	emit("instanceof java/lang/ArithmeticException")
	emit("iload 0")
	emit("iload 1")
	emit("ixor")
	emit("iadd")
	emit("ireturn")
	b.WriteString(".catch java/lang/RuntimeException S0 END H\n")
	b.WriteString(".end\n.end\n")
	return b.String()
}

// FuzzStatementCompile runs generated statement blocks on the interpreter
// and the optimizing engine under a fuzzed quantum, and requires the same
// outcome and yield trace.
func FuzzStatementCompile(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 5, 8, 13, 42, 0x5eed} {
		f.Add(seed, uint8(0))
		f.Add(seed, uint8(6))
		f.Add(seed, uint8(255))
	}
	f.Fuzz(func(t *testing.T, seed int64, q uint8) {
		src := genStatements(rand.New(rand.NewSource(seed)))
		quantum := int64(q%16) + 1
		if q == 255 {
			quantum = 5000
		}
		o := runOpts{quantum: quantum}
		ref, refTrace := runOn(t, Interpreter{}, src, "r/Main", "main()I", o)
		got, trace := runOn(t, optimizing(), src, "r/Main", "main()I", o)
		if got != ref {
			t.Errorf("quantum %d: jit-opt %s\n  interp %s", quantum, got, ref)
		}
		if d := diffTraces(refTrace, trace); d != "" {
			t.Errorf("quantum %d: yield traces part at %s", quantum, d)
		}
		if t.Failed() {
			t.Logf("program:\n%s", src)
		}
	})
}
