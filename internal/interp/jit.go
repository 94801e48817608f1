package interp

// The optimizing engine ("JIT"): statements overlaid on the interpreter.
//
// The switch interpreter (interp.go) is the only bytecode loop. The JIT
// compiles each method once into a statement table (jit_stmt.go): at every
// pc where a straight-line statement starts — x = (x*31 ^ j) & 0xFFFFFF, or
// if (i >= n+24) goto L — one closure over an operand tree, with the summed
// cost of the instructions it covers. When the executing frame carries a
// table, the interpreter runs the statement at f.PC; anything else runs
// through the interpreter's own switch arm. At the header of a loop made
// only of statements — for (i = 0; i < n; i++) a[i] = a[i] * k — the
// table also holds a loop statement that runs whole iterations per
// dispatch, with one quantum and kill check per iteration at the back
// edge. This is the commercial-JIT (IBM) class of engine; the Kaffe00
// class is the plain interpreter with fast exceptions and thin locks.
//
// Simulated cycle accounting is identical across engines: a statement or
// a loop iteration runs only when the quantum covers its whole cost, and
// anything it cannot finish without a side effect re-runs through the
// interpreter's arm, so yield points, GC timing and throw frames are the
// interpreter's. CPU accounting and the servlet experiment's virtual clock
// are therefore engine-independent, while Figure 3's wall-clock spread
// emerges naturally.
//
// Statement tables are relocatable and hold no process state: closures
// capture only values that are deterministic per identical ClassDef —
// local indices, field slots, constant-pool indices, branch targets,
// constants, cycle costs, and a loop's statement closures — never a
// class, field or method pointer.
// One compiled artifact can therefore be installed into every process
// that loads the module (internal/codecache), and reclaiming a process
// leaves nothing of it reachable from the artifact.

import "repro/internal/object"

// JIT is the optimizing engine.
type JIT struct {
	// Fused and InlineCache are ignored: statements are always compiled
	// and there is no inline cache. bench/ still names them.
	Fused       bool
	InlineCache bool
}

// Name implements Engine.
func (*JIT) Name() string { return "jit-opt" }

// Step implements Engine.
func (*JIT) Step(t *Thread) StepResult { return runLoop(t, true) }

// control is the signal a statement returns to the interpreter loop.
type control uint8

const (
	ctlNext   control = iota // f.PC set past the statement
	ctlBranch                // f.PC set by a branch; run safepoint checks
	// ctlRetry: a statement's check failed before any side effect; the
	// loop refunds its cost and runs the pc through its switch arm.
	ctlRetry
)

type closure func(t *Thread, f *Frame) control

// compiled is one method's statement table, indexed by pc.
type compiled struct {
	ops []stmtOp
}

// stmtOp is the statement that starts at one pc (nil if none) and the
// summed cost of the instructions it covers. At a loop header, loop runs
// whole iterations of cost iter each.
type stmtOp struct {
	stmt  closure
	scost int64
	loop  closure
	iter  int64
}

// refund returns cycles charged for instructions that did not run.
func (t *Thread) refund(c int64) {
	t.Fuel += c
	t.Cycles -= uint64(c)
}

// bodyFor returns m's statement table, compiling it on first use. The
// table is published by compare-and-swap, so readers take no lock and
// every reader gets the one table that won.
func bodyFor(m *object.Method) *compiled {
	if c, ok := m.Compiled.Load().(*compiled); ok {
		return c
	}
	m.Compiled.CompareAndSwap(nil, compile(m))
	return m.Compiled.Load().(*compiled)
}

func compile(m *object.Method) *compiled {
	ops, _ := compileStatements(m)
	return &compiled{ops: ops}
}
