package interp

// Statement compilation: the optimizing engine's unit of dispatch.
//
// For every basic block, compileStatements simulates the operand stack and
// turns each straight-line statement into one closure. Instructions that
// only produce a value — int and double constants, local loads, int and
// double arithmetic, i2d/d2i, idiv/irem, getfield, getstatic,
// iaload/aaload, arraylength — become nodes: closures that return their
// value in Go registers instead of pushing it. The instruction that
// consumes the simulated stack ends the statement as its root: a local
// store, iinc, an iastore, primitive putfield or primitive putstatic (each
// absorbing a following goto), or a branch. `dup; invokespecial` of a
// trivial constructor chain is a statement of its own (see "constructor
// chains" below). Any other instruction, or a branch target, is a block
// end: the statement pushes its pending values and the instruction runs
// through the interpreter's switch. Operands already on the real stack
// when a statement begins are read in place and popped when it commits.
// So db's inner kernel,
//
//	iload 1; iconst 31; imul; iload 5; ixor; ldc 16777215; iand; istore 1
//
// is one dispatch of a store root over and(xor(mul(x, 31), j), 0xFFFFFF).
//
// Simulated cost stays a property of the program, not of the engine:
//
//   - nothing inside a statement allocates, calls (but for a trivial
//     constructor chain), locks, throws, interns a string or runs a write
//     barrier; those stay in the interpreter;
//   - a statement runs only when the quantum exceeds its summed cost and no
//     kill is pending (execFrame), so no instruction it covers could have
//     yielded or been killed instruction by instruction;
//   - a failing check (null, bounds, zero divisor) marks the thread and
//     yields a zero value; the root sees the mark before its first side
//     effect and returns ctlRetry, and the loop refunds the cost and runs
//     the pc through its switch arm, which throws from exactly the
//     interpreter's frame.
//
// A loop whose header is a compare-and-branch statement and whose body is
// one straight line of statements ending in a jump back to the header
// gets a loop statement on the header (see "loops" below): one dispatch
// runs iterations until the loop exits or the back edge's safepoint could
// stop it.
//
// Statements capture only module-deterministic values — local indices,
// constants, field slots, constant-pool indices, branch targets, cycle
// costs, other statements — so bodies stay relocatable; statics and
// constructors are resolved through the frame's f.M.Links at run time.

import (
	"repro/internal/bytecode"
	"repro/internal/object"
)

// ival and rval are compiled operand trees: a primitive (doubles as IEEE
// bits) or a reference, computed without side effects.
type (
	ival func(t *Thread, f *Frame) int64
	rval func(t *Thread, f *Frame) *object.Object
)

// failed consumes the mark a node leaves when one of its checks fails.
func failed(t *Thread) bool {
	if t.stmtFailed {
		t.stmtFailed = false
		return true
	}
	return false
}

// maxPending bounds a statement's simulated stack.
const maxPending = 8

type leafKind uint8

const (
	inner     leafKind = iota // a node over other entries
	leafConst                 // k is the value (0 for null)
	leafLocal                 // k is the local index
	leafStack                 // k is the depth below f.SP at entry, 1 = top
)

// sexpr is one entry of the simulated operand stack.
type sexpr struct {
	leaf leafKind
	ref  bool
	k    int64
	i    ival // inner primitive nodes
	r    rval // inner reference nodes
}

func (e *sexpr) isLeaf() bool { return e.leaf == leafConst || e.leaf == leafLocal }

// ival returns e as a primitive node.
func (e *sexpr) ival() ival {
	switch k := e.k; e.leaf {
	case leafConst:
		return func(*Thread, *Frame) int64 { return k }
	case leafLocal:
		return func(_ *Thread, f *Frame) int64 { return f.Locals[k].I }
	case leafStack:
		return func(_ *Thread, f *Frame) int64 { return f.Stack[f.SP-int(k)].I }
	}
	return e.i
}

// rval returns e as a reference node.
func (e *sexpr) rval() rval {
	switch k := e.k; e.leaf {
	case leafConst:
		return func(*Thread, *Frame) *object.Object { return nil }
	case leafLocal:
		return func(_ *Thread, f *Frame) *object.Object { return f.Locals[k].R }
	case leafStack:
		return func(_ *Thread, f *Frame) *object.Object { return f.Stack[f.SP-int(k)].R }
	}
	return e.r
}

// slot returns e as the Slot the per-instruction path would have pushed.
func (e *sexpr) slot() func(t *Thread, f *Frame) Slot {
	k := e.k
	switch {
	case e.leaf == leafConst && e.ref:
		return func(*Thread, *Frame) Slot { return Slot{} }
	case e.leaf == leafConst:
		return func(*Thread, *Frame) Slot { return Slot{I: k} }
	case e.leaf == leafLocal && e.ref:
		return func(_ *Thread, f *Frame) Slot { return Slot{R: f.Locals[k].R} }
	case e.leaf == leafLocal:
		return func(_ *Thread, f *Frame) Slot { return Slot{I: f.Locals[k].I} }
	case e.ref:
		r := e.r
		return func(t *Thread, f *Frame) Slot { return Slot{R: r(t, f)} }
	}
	i := e.i
	return func(t *Thread, f *Frame) Slot { return Slot{I: i(t, f)} }
}

// stmtBuilder carries the simulated stack across one method.
type stmtBuilder struct {
	m      *object.Method
	target []bool  // branch targets and handler entries
	stack  []sexpr // values not yet on the real stack
	used   int     // real stack slots consumed in place
}

// Coverage counts what a method's statement table holds beyond plain
// statements: loop statements, constructor-chain statements, and static
// field accesses (getstatic nodes and putstatic roots) inside statements.
type Coverage struct {
	Loops, Ctors, Statics int
}

// CoverageOf compiles m afresh and reports what its statement table holds,
// by walking the instructions each statement covers.
func CoverageOf(m *object.Method) (c Coverage) {
	ops, ends := compileStatements(m)
	for pc, op := range ops {
		if op.stmt == nil {
			continue
		}
		if op.loop != nil {
			c.Loops++
		}
		for _, in := range m.Code.Instrs[pc:ends[pc]] {
			switch in.Op {
			case bytecode.GETSTATIC, bytecode.PUTSTATIC:
				c.Statics++
			case bytecode.INVOKESPECIAL:
				c.Ctors++ // only a constructor statement holds a call
			}
		}
	}
	return c
}

// compileStatements builds a method's statement table. A statement never
// spans a branch target or handler entry, so control enters one only at
// its head; every other pc runs through the interpreter's arm, which is
// also where a retried or resumed execution continues. ends[pc] is the pc
// after the statement headed at pc.
func compileStatements(m *object.Method) ([]stmtOp, []int) {
	code := m.Code
	n := len(code.Instrs)
	ops := make([]stmtOp, n)
	b := stmtBuilder{m: m, target: make([]bool, n), stack: make([]sexpr, 0, maxPending)}
	for _, in := range code.Instrs {
		if in.Op.IsBranch() && in.A >= 0 && int(in.A) < n {
			b.target[in.A] = true
		}
	}
	for _, h := range code.Handlers {
		if h.PC >= 0 && h.PC < n {
			b.target[h.PC] = true
		}
	}
	ends := make([]int, n)
	for pc := 0; pc < n; {
		st, end, cost := b.build(pc)
		if st == nil {
			pc++
			continue
		}
		ops[pc] = stmtOp{stmt: st, scost: cost}
		ends[pc] = end
		pc = end
	}
	for h := range ops {
		if ops[h].stmt != nil {
			ops[h].loop, ops[h].iter = b.loop(ops, ends, h)
		}
	}
	return ops, ends
}

// build compiles the statement starting at s: its closure, the pc after
// it and its summed cost. It returns nil when fewer than two instructions
// would fold, which a statement could not run any faster.
func (b *stmtBuilder) build(s int) (closure, int, int64) {
	if st, end, cost := b.ctor(s); st != nil {
		return st, end, cost
	}
	instrs := b.m.Code.Instrs
	b.stack, b.used = b.stack[:0], 0
	var cost int64
	pc := s
	for ; pc < len(instrs) && (pc == s || !b.target[pc]); pc++ {
		if b.node(instrs[pc]) {
			cost += int64(instrs[pc].Op.Cycles())
			continue
		}
		if st, end := b.root(s, pc); st != nil {
			for _, in := range instrs[pc:end] {
				cost += int64(in.Op.Cycles())
			}
			return st, end, cost
		}
		break
	}
	if pc-s < 2 || len(b.stack) == 0 {
		return nil, 0, 0
	}
	return b.materialize(pc), pc, cost
}

// pop takes the top simulated value, or reads the next real stack slot in
// place; ok is false when the value has the other type, which only
// ill-typed code produces and the per-instruction path handles.
func (b *stmtBuilder) pop(ref bool) (sexpr, bool) {
	if n := len(b.stack); n > 0 {
		e := b.stack[n-1]
		b.stack = b.stack[:n-1]
		return e, e.ref == ref
	}
	b.used++
	return sexpr{leaf: leafStack, ref: ref, k: int64(b.used)}, true
}

// node folds a value-producing instruction into the simulated stack. On
// false the stack is as it was.
func (b *stmtBuilder) node(in bytecode.Instr) bool {
	depth, used := len(b.stack), b.used
	e, ok := b.nodeOf(in)
	if !ok || len(b.stack) == maxPending {
		b.stack, b.used = b.stack[:depth], used
		return false
	}
	b.stack = append(b.stack, e)
	return true
}

func (b *stmtBuilder) nodeOf(in bytecode.Instr) (sexpr, bool) {
	switch op := in.Op; op {
	case bytecode.ICONST:
		return sexpr{leaf: leafConst, k: int64(in.A)}, true
	case bytecode.LDC:
		switch k := &b.m.Code.Consts[in.A]; k.Kind {
		case bytecode.KindInt:
			return sexpr{leaf: leafConst, k: k.I}, true
		case bytecode.KindDouble:
			return sexpr{leaf: leafConst, k: dbits(k.D)}, true
		}
	case bytecode.ACONST_NULL:
		return sexpr{leaf: leafConst, ref: true}, true
	case bytecode.ILOAD, bytecode.DLOAD:
		return sexpr{leaf: leafLocal, k: int64(in.A)}, true
	case bytecode.ALOAD:
		return sexpr{leaf: leafLocal, ref: true, k: int64(in.A)}, true

	case bytecode.IADD, bytecode.ISUB, bytecode.IMUL, bytecode.IAND, bytecode.IOR, bytecode.IXOR,
		bytecode.ISHL, bytecode.ISHR, bytecode.IUSHR, bytecode.IDIV, bytecode.IREM,
		bytecode.DADD, bytecode.DSUB, bytecode.DMUL, bytecode.DDIV, bytecode.DCMP:
		y, oky := b.pop(false)
		x, okx := b.pop(false)
		if okx && oky {
			return sexpr{i: binaryNode(op, x, y)}, true
		}
	case bytecode.INEG, bytecode.DNEG, bytecode.I2D, bytecode.D2I:
		if x, ok := b.pop(false); ok {
			return sexpr{i: unaryNode(op, x.ival())}, true
		}

	case bytecode.GETFIELD:
		if o, ok := b.pop(true); ok {
			fl := b.m.Links[in.A].Field
			return getfieldNode(o, fl.Slot, fl.Ref), true
		}
	case bytecode.IALOAD, bytecode.AALOAD:
		idx, oki := b.pop(false)
		arr, oka := b.pop(true)
		if oki && oka {
			return arrayLoadNode(arr, idx, op == bytecode.AALOAD), true
		}
	case bytecode.ARRAYLENGTH:
		if arr, ok := b.pop(true); ok {
			return sexpr{i: arrayLengthNode(arr)}, true
		}
	case bytecode.GETSTATIC:
		return getstaticNode(int(in.A), b.m.Links[in.A].Field.Ref), true
	}
	return sexpr{}, false
}

// root compiles the instruction at pc as the root of the statement begun
// at s, returning the closure and the pc after the statement, or nil. A
// root's side effect comes last, so it must consume every pending value.
func (b *stmtBuilder) root(s, pc int) (closure, int) {
	instrs := b.m.Code.Instrs
	in := instrs[pc]
	end := pc + 1
	// A store root absorbs a following goto, dispatching the loop latch
	// with the store.
	next, ctl := end, ctlNext
	if end < len(instrs) && instrs[end].Op == bytecode.GOTO && !b.target[end] {
		next, ctl = int(instrs[end].A), ctlBranch
	}
	var operands int
	switch in.Op {
	case bytecode.IINC:
		if len(b.stack) > 0 || ctl != ctlBranch {
			return nil, 0
		}
		return iincStmt(int(in.A), int64(in.B), next), end + 1
	case bytecode.ISTORE, bytecode.DSTORE, bytecode.ASTORE,
		bytecode.IFEQ, bytecode.IFNE, bytecode.IFLT, bytecode.IFGE, bytecode.IFGT, bytecode.IFLE,
		bytecode.IFNULL, bytecode.IFNONNULL:
		operands = 1
	case bytecode.IF_ICMPEQ, bytecode.IF_ICMPNE, bytecode.IF_ICMPLT, bytecode.IF_ICMPGE,
		bytecode.IF_ICMPGT, bytecode.IF_ICMPLE, bytecode.IF_ACMPEQ, bytecode.IF_ACMPNE:
		operands = 2
	case bytecode.IASTORE:
		operands = 3
	case bytecode.PUTFIELD:
		if b.m.Links[in.A].Field.Ref {
			return nil, 0 // reference stores run the write barrier
		}
		operands = 2
	case bytecode.PUTSTATIC:
		if b.m.Links[in.A].Field.Ref {
			return nil, 0
		}
		operands = 1
	default:
		return nil, 0
	}
	if len(b.stack) > operands {
		return nil, 0
	}
	if in.Op.IsBranch() {
		next, ctl = pc+1, ctlBranch
	} else if ctl == ctlBranch {
		end++
	}
	if end-s < 2 {
		return nil, 0
	}
	depth, used := len(b.stack), b.used
	st := b.rootOf(in, next, ctl)
	if st == nil {
		b.stack, b.used = b.stack[:depth], used
		return nil, 0
	}
	return st, end
}

func (b *stmtBuilder) rootOf(in bytecode.Instr, next int, ctl control) closure {
	switch op := in.Op; op {
	case bytecode.ISTORE, bytecode.DSTORE:
		if v, ok := b.pop(false); ok {
			return storeStmt(int(in.A), v, b.used, next, ctl)
		}
	case bytecode.ASTORE:
		if v, ok := b.pop(true); ok {
			return storeStmt(int(in.A), v, b.used, next, ctl)
		}
	case bytecode.IASTORE:
		v, okv := b.pop(false)
		idx, oki := b.pop(false)
		arr, oka := b.pop(true)
		if okv && oki && oka {
			return iastoreStmt(arr, idx, v, b.used, next, ctl)
		}
	case bytecode.PUTFIELD:
		v, okv := b.pop(false)
		o, oko := b.pop(true)
		if okv && oko {
			return putfieldStmt(o, v, b.m.Links[in.A].Field.Slot, b.used, next, ctl)
		}
	case bytecode.PUTSTATIC:
		if v, ok := b.pop(false); ok {
			return putstaticStmt(int(in.A), v, b.used, next, ctl)
		}
	case bytecode.IFEQ, bytecode.IFNE, bytecode.IFLT, bytecode.IFGE, bytecode.IFGT, bytecode.IFLE:
		if x, ok := b.pop(false); ok {
			return compareStmt(op-bytecode.IFEQ+bytecode.IF_ICMPEQ, x, sexpr{leaf: leafConst}, int(in.A), next, b.used)
		}
	case bytecode.IF_ICMPEQ, bytecode.IF_ICMPNE, bytecode.IF_ICMPLT, bytecode.IF_ICMPGE, bytecode.IF_ICMPGT, bytecode.IF_ICMPLE:
		y, oky := b.pop(false)
		x, okx := b.pop(false)
		if okx && oky {
			return compareStmt(op, x, y, int(in.A), next, b.used)
		}
	case bytecode.IFNULL, bytecode.IFNONNULL:
		if x, ok := b.pop(true); ok {
			return nullStmt(x, op == bytecode.IFNULL, int(in.A), next, b.used)
		}
	case bytecode.IF_ACMPEQ, bytecode.IF_ACMPNE:
		y, oky := b.pop(true)
		x, okx := b.pop(true)
		if okx && oky {
			return acmpStmt(x.rval(), y.rval(), op == bytecode.IF_ACMPEQ, int(in.A), next, b.used)
		}
	}
	return nil
}

// materialize is the block end at pc end: push the pending values.
func (b *stmtBuilder) materialize(end int) closure {
	used := b.used
	if len(b.stack) == 1 {
		v := b.stack[0].slot()
		return func(t *Thread, f *Frame) control {
			s := v(t, f)
			if failed(t) {
				return ctlRetry
			}
			f.SP -= used
			f.push(s)
			f.PC = end
			return ctlNext
		}
	}
	vals := make([]func(*Thread, *Frame) Slot, len(b.stack))
	for i := range b.stack {
		vals[i] = b.stack[i].slot()
	}
	return func(t *Thread, f *Frame) control {
		var buf [maxPending]Slot
		for i, v := range vals {
			buf[i] = v(t, f)
		}
		if failed(t) {
			return ctlRetry
		}
		f.SP -= used
		f.SP += copy(f.Stack[f.SP:], buf[:len(vals)])
		f.PC = end
		return ctlNext
	}
}

// ---- nodes ----

func unaryNode(op bytecode.Op, x ival) ival {
	switch op {
	case bytecode.INEG:
		return func(t *Thread, f *Frame) int64 { return -x(t, f) }
	case bytecode.DNEG:
		return func(t *Thread, f *Frame) int64 { return dbits(-dval(x(t, f))) }
	case bytecode.I2D:
		return func(t *Thread, f *Frame) int64 { return dbits(float64(x(t, f))) }
	}
	return func(t *Thread, f *Frame) int64 { return int64(dval(x(t, f))) }
}

func commutes(op bytecode.Op) bool {
	switch op {
	case bytecode.IADD, bytecode.IMUL, bytecode.IAND, bytecode.IOR, bytecode.IXOR:
		return true
	}
	return false
}

// binaryNode specializes the shapes that dominate real loops — a local or
// a constant on the right, a local on the left — so they cost one call
// instead of three. Nodes are pure, so a commutative operator may take
// its leaf operand on the right.
func binaryNode(op bytecode.Op, x, y sexpr) ival {
	if commutes(op) && x.isLeaf() && (!y.isLeaf() || x.leaf == leafConst) {
		x, y = y, x
	}
	if y.leaf == leafConst {
		if x.leaf == leafLocal {
			if n := binaryLK(op, x.k, y.k); n != nil {
				return n
			}
		}
		if n := binaryAK(op, x.ival(), y.k); n != nil {
			return n
		}
	}
	if y.leaf == leafLocal {
		if x.leaf == leafLocal {
			if n := binaryLL(op, x.k, y.k); n != nil {
				return n
			}
		}
		if n := binaryAL(op, x.ival(), y.k); n != nil {
			return n
		}
	}
	return binaryAA(op, x.ival(), y.ival())
}

func binaryLK(op bytecode.Op, i, k int64) ival {
	switch op {
	case bytecode.IADD:
		return func(_ *Thread, f *Frame) int64 { return f.Locals[i].I + k }
	case bytecode.ISUB:
		return func(_ *Thread, f *Frame) int64 { return f.Locals[i].I - k }
	case bytecode.IMUL:
		return func(_ *Thread, f *Frame) int64 { return f.Locals[i].I * k }
	case bytecode.IAND:
		return func(_ *Thread, f *Frame) int64 { return f.Locals[i].I & k }
	case bytecode.IOR:
		return func(_ *Thread, f *Frame) int64 { return f.Locals[i].I | k }
	case bytecode.IXOR:
		return func(_ *Thread, f *Frame) int64 { return f.Locals[i].I ^ k }
	}
	return nil
}

func binaryLL(op bytecode.Op, i, j int64) ival {
	switch op {
	case bytecode.IADD:
		return func(_ *Thread, f *Frame) int64 { return f.Locals[i].I + f.Locals[j].I }
	case bytecode.ISUB:
		return func(_ *Thread, f *Frame) int64 { return f.Locals[i].I - f.Locals[j].I }
	case bytecode.IMUL:
		return func(_ *Thread, f *Frame) int64 { return f.Locals[i].I * f.Locals[j].I }
	case bytecode.IAND:
		return func(_ *Thread, f *Frame) int64 { return f.Locals[i].I & f.Locals[j].I }
	case bytecode.IOR:
		return func(_ *Thread, f *Frame) int64 { return f.Locals[i].I | f.Locals[j].I }
	case bytecode.IXOR:
		return func(_ *Thread, f *Frame) int64 { return f.Locals[i].I ^ f.Locals[j].I }
	case bytecode.DADD:
		return func(_ *Thread, f *Frame) int64 { return dbits(dval(f.Locals[i].I) + dval(f.Locals[j].I)) }
	case bytecode.DMUL:
		return func(_ *Thread, f *Frame) int64 { return dbits(dval(f.Locals[i].I) * dval(f.Locals[j].I)) }
	}
	return nil
}

func binaryAK(op bytecode.Op, x ival, k int64) ival {
	s := uint64(k) & 63
	switch op {
	case bytecode.IADD:
		return func(t *Thread, f *Frame) int64 { return x(t, f) + k }
	case bytecode.ISUB:
		return func(t *Thread, f *Frame) int64 { return x(t, f) - k }
	case bytecode.IMUL:
		return func(t *Thread, f *Frame) int64 { return x(t, f) * k }
	case bytecode.IAND:
		return func(t *Thread, f *Frame) int64 { return x(t, f) & k }
	case bytecode.IOR:
		return func(t *Thread, f *Frame) int64 { return x(t, f) | k }
	case bytecode.IXOR:
		return func(t *Thread, f *Frame) int64 { return x(t, f) ^ k }
	case bytecode.ISHL:
		return func(t *Thread, f *Frame) int64 { return x(t, f) << s }
	case bytecode.ISHR:
		return func(t *Thread, f *Frame) int64 { return x(t, f) >> s }
	case bytecode.IUSHR:
		return func(t *Thread, f *Frame) int64 { return int64(uint64(x(t, f)) >> s) }
	case bytecode.IDIV, bytecode.IREM:
		if k == 0 {
			return nil // always throws: leave the check to binaryAA
		}
		if op == bytecode.IREM {
			return func(t *Thread, f *Frame) int64 { return x(t, f) % k }
		}
		return func(t *Thread, f *Frame) int64 { return x(t, f) / k }
	case bytecode.DMUL:
		d := dval(k)
		return func(t *Thread, f *Frame) int64 { return dbits(dval(x(t, f)) * d) }
	}
	return nil
}

func binaryAL(op bytecode.Op, x ival, j int64) ival {
	switch op {
	case bytecode.IADD:
		return func(t *Thread, f *Frame) int64 { return x(t, f) + f.Locals[j].I }
	case bytecode.ISUB:
		return func(t *Thread, f *Frame) int64 { return x(t, f) - f.Locals[j].I }
	case bytecode.IMUL:
		return func(t *Thread, f *Frame) int64 { return x(t, f) * f.Locals[j].I }
	case bytecode.IAND:
		return func(t *Thread, f *Frame) int64 { return x(t, f) & f.Locals[j].I }
	case bytecode.IOR:
		return func(t *Thread, f *Frame) int64 { return x(t, f) | f.Locals[j].I }
	case bytecode.IXOR:
		return func(t *Thread, f *Frame) int64 { return x(t, f) ^ f.Locals[j].I }
	}
	return nil
}

func binaryAA(op bytecode.Op, x, y ival) ival {
	switch op {
	case bytecode.IADD:
		return func(t *Thread, f *Frame) int64 { return x(t, f) + y(t, f) }
	case bytecode.ISUB:
		return func(t *Thread, f *Frame) int64 { return x(t, f) - y(t, f) }
	case bytecode.IMUL:
		return func(t *Thread, f *Frame) int64 { return x(t, f) * y(t, f) }
	case bytecode.IAND:
		return func(t *Thread, f *Frame) int64 { return x(t, f) & y(t, f) }
	case bytecode.IOR:
		return func(t *Thread, f *Frame) int64 { return x(t, f) | y(t, f) }
	case bytecode.IXOR:
		return func(t *Thread, f *Frame) int64 { return x(t, f) ^ y(t, f) }
	case bytecode.ISHL:
		return func(t *Thread, f *Frame) int64 { a := x(t, f); return a << (uint64(y(t, f)) & 63) }
	case bytecode.ISHR:
		return func(t *Thread, f *Frame) int64 { a := x(t, f); return a >> (uint64(y(t, f)) & 63) }
	case bytecode.IUSHR:
		return func(t *Thread, f *Frame) int64 { a := x(t, f); return int64(uint64(a) >> (uint64(y(t, f)) & 63)) }
	case bytecode.IDIV, bytecode.IREM:
		rem := op == bytecode.IREM
		return func(t *Thread, f *Frame) int64 {
			a, d := x(t, f), y(t, f)
			if d == 0 {
				t.stmtFailed = true
				return 0
			}
			if rem {
				return a % d
			}
			return a / d
		}
	case bytecode.DADD:
		return func(t *Thread, f *Frame) int64 { a := dval(x(t, f)); return dbits(a + dval(y(t, f))) }
	case bytecode.DSUB:
		return func(t *Thread, f *Frame) int64 { a := dval(x(t, f)); return dbits(a - dval(y(t, f))) }
	case bytecode.DMUL:
		return func(t *Thread, f *Frame) int64 { a := dval(x(t, f)); return dbits(a * dval(y(t, f))) }
	case bytecode.DDIV:
		return func(t *Thread, f *Frame) int64 { a := dval(x(t, f)); return dbits(a / dval(y(t, f))) }
	}
	// DCMP
	return func(t *Thread, f *Frame) int64 {
		a, b := dval(x(t, f)), dval(y(t, f))
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	}
}

func getfieldNode(o sexpr, slot int, ref bool) sexpr {
	if o.leaf == leafLocal {
		i := o.k
		if ref {
			return sexpr{ref: true, r: func(t *Thread, f *Frame) *object.Object {
				p := f.Locals[i].R
				if p == nil {
					t.stmtFailed = true
					return nil
				}
				return p.Refs[slot]
			}}
		}
		return sexpr{i: func(t *Thread, f *Frame) int64 {
			p := f.Locals[i].R
			if p == nil {
				t.stmtFailed = true
				return 0
			}
			return p.Prims[slot]
		}}
	}
	x := o.rval()
	if ref {
		return sexpr{ref: true, r: func(t *Thread, f *Frame) *object.Object {
			p := x(t, f)
			if p == nil {
				t.stmtFailed = true
				return nil
			}
			return p.Refs[slot]
		}}
	}
	return sexpr{i: func(t *Thread, f *Frame) int64 {
		p := x(t, f)
		if p == nil {
			t.stmtFailed = true
			return 0
		}
		return p.Prims[slot]
	}}
}

// primIn and refIn are the per-instruction path's array checks, made
// against the slice the access indexes.
func primIn(p *object.Object, i int64) bool { return p != nil && uint64(i) < uint64(len(p.Prims)) }
func refIn(p *object.Object, i int64) bool  { return p != nil && uint64(i) < uint64(len(p.Refs)) }

func arrayLoadNode(arr, idx sexpr, refs bool) sexpr {
	if refs {
		a, x := arr.rval(), idx.ival()
		return sexpr{ref: true, r: func(t *Thread, f *Frame) *object.Object {
			p, i := a(t, f), x(t, f)
			if !refIn(p, i) {
				t.stmtFailed = true
				return nil
			}
			return p.Refs[i]
		}}
	}
	if arr.leaf == leafLocal {
		ai := arr.k
		if idx.leaf == leafLocal {
			ii := idx.k
			return sexpr{i: func(t *Thread, f *Frame) int64 {
				p, i := f.Locals[ai].R, f.Locals[ii].I
				if !primIn(p, i) {
					t.stmtFailed = true
					return 0
				}
				return p.Prims[i]
			}}
		}
		x := idx.ival()
		return sexpr{i: func(t *Thread, f *Frame) int64 {
			i := x(t, f)
			p := f.Locals[ai].R
			if !primIn(p, i) {
				t.stmtFailed = true
				return 0
			}
			return p.Prims[i]
		}}
	}
	a, x := arr.rval(), idx.ival()
	return sexpr{i: func(t *Thread, f *Frame) int64 {
		p, i := a(t, f), x(t, f)
		if !primIn(p, i) {
			t.stmtFailed = true
			return 0
		}
		return p.Prims[i]
	}}
}

func arrayLengthNode(arr sexpr) ival {
	if arr.leaf == leafLocal {
		i := arr.k
		return func(t *Thread, f *Frame) int64 {
			p := f.Locals[i].R
			if p == nil {
				t.stmtFailed = true
				return 0
			}
			return int64(p.ArrayLen())
		}
	}
	a := arr.rval()
	return func(t *Thread, f *Frame) int64 {
		p := a(t, f)
		if p == nil {
			t.stmtFailed = true
			return 0
		}
		return int64(p.ArrayLen())
	}
}

// getstaticNode reads static field a of f's method, resolving the field
// and its class's statics object at run time as the switch arm does: a
// fork binds its statics after its classes exist, and the table holds no
// class.
func getstaticNode(a int, ref bool) sexpr {
	if ref {
		return sexpr{ref: true, r: func(_ *Thread, f *Frame) *object.Object {
			fl := f.M.Links[a].Field
			return fl.Class.Statics.Refs[fl.Slot]
		}}
	}
	return sexpr{i: func(_ *Thread, f *Frame) int64 {
		fl := f.M.Links[a].Field
		return fl.Class.Statics.Prims[fl.Slot]
	}}
}

// ---- roots ----
//
// Each root evaluates its operands, returns ctlRetry if a check failed,
// and only then pops the used real slots, performs its side effect and
// sets f.PC to next.

func iincStmt(i int, d int64, next int) closure {
	return func(_ *Thread, f *Frame) control {
		f.Locals[i].I += d
		f.PC = next
		return ctlBranch
	}
}

func storeStmt(i int, v sexpr, used, next int, ctl control) closure {
	switch {
	case v.leaf == leafConst && !v.ref:
		k := v.k
		return func(_ *Thread, f *Frame) control {
			f.Locals[i] = Slot{I: k}
			f.PC = next
			return ctl
		}
	case v.leaf == leafLocal && !v.ref:
		j := v.k
		return func(_ *Thread, f *Frame) control {
			f.Locals[i] = Slot{I: f.Locals[j].I}
			f.PC = next
			return ctl
		}
	case v.ref:
		r := v.rval()
		return func(t *Thread, f *Frame) control {
			o := r(t, f)
			if failed(t) {
				return ctlRetry
			}
			f.SP -= used
			f.Locals[i] = Slot{R: o}
			f.PC = next
			return ctl
		}
	}
	x := v.ival()
	return func(t *Thread, f *Frame) control {
		n := x(t, f)
		if failed(t) {
			return ctlRetry
		}
		f.SP -= used
		f.Locals[i] = Slot{I: n}
		f.PC = next
		return ctl
	}
}

func iastoreStmt(arr, idx, v sexpr, used, next int, ctl control) closure {
	x := v.ival()
	if arr.leaf == leafLocal && idx.leaf == leafLocal {
		ai, ii := arr.k, idx.k
		return func(t *Thread, f *Frame) control {
			n := x(t, f)
			p, i := f.Locals[ai].R, f.Locals[ii].I
			if failed(t) || !primIn(p, i) {
				return ctlRetry
			}
			f.SP -= used
			p.Prims[i] = n
			f.PC = next
			return ctl
		}
	}
	a, ix := arr.rval(), idx.ival()
	return func(t *Thread, f *Frame) control {
		p, i, n := a(t, f), ix(t, f), x(t, f)
		if failed(t) || !primIn(p, i) {
			return ctlRetry
		}
		f.SP -= used
		p.Prims[i] = n
		f.PC = next
		return ctl
	}
}

func putfieldStmt(o, v sexpr, slot, used, next int, ctl control) closure {
	x := v.ival()
	if o.leaf == leafLocal {
		i := o.k
		return func(t *Thread, f *Frame) control {
			n := x(t, f)
			p := f.Locals[i].R
			if failed(t) || p == nil {
				return ctlRetry
			}
			f.SP -= used
			p.Prims[slot] = n
			f.PC = next
			return ctl
		}
	}
	r := o.rval()
	return func(t *Thread, f *Frame) control {
		p, n := r(t, f), x(t, f)
		if failed(t) || p == nil {
			return ctlRetry
		}
		f.SP -= used
		p.Prims[slot] = n
		f.PC = next
		return ctl
	}
}

// putstaticStmt stores a primitive into static field a, resolved at run
// time like getstaticNode's.
func putstaticStmt(a int, v sexpr, used, next int, ctl control) closure {
	x := v.ival()
	return func(t *Thread, f *Frame) control {
		n := x(t, f)
		if failed(t) {
			return ctlRetry
		}
		f.SP -= used
		fl := f.M.Links[a].Field
		fl.Class.Statics.Prims[fl.Slot] = n
		f.PC = next
		return ctl
	}
}

// mirrorCmp is the comparison with its operands swapped.
func mirrorCmp(op bytecode.Op) bytecode.Op {
	switch op {
	case bytecode.IF_ICMPLT:
		return bytecode.IF_ICMPGT
	case bytecode.IF_ICMPGT:
		return bytecode.IF_ICMPLT
	case bytecode.IF_ICMPLE:
		return bytecode.IF_ICMPGE
	case bytecode.IF_ICMPGE:
		return bytecode.IF_ICMPLE
	}
	return op
}

// compareStmt is an integer compare-and-branch. Every comparison reduces
// to ==, < or <= with the targets swapped for its negation, and a leaf
// operand is moved to the right, so the common loop latches (local against
// constant, local or expression) are a single call.
func compareStmt(op bytecode.Op, x, y sexpr, tgt, fall, used int) closure {
	if (x.isLeaf() && !y.isLeaf()) || (x.leaf == leafConst && y.leaf == leafLocal) {
		x, y, op = y, x, mirrorCmp(op)
	}
	taken, other := tgt, fall
	switch op {
	case bytecode.IF_ICMPNE, bytecode.IF_ICMPGE, bytecode.IF_ICMPGT:
		taken, other = fall, tgt
	}
	switch op {
	case bytecode.IF_ICMPEQ, bytecode.IF_ICMPNE:
		return eqStmt(x, y, taken, other, used)
	case bytecode.IF_ICMPLT, bytecode.IF_ICMPGE:
		return ltStmt(x, y, taken, other, used)
	}
	return leStmt(x, y, taken, other, used)
}

// branch sets f.PC to taken when c holds, else to other.
func (f *Frame) branch(c bool, taken, other int) {
	if c {
		f.PC = taken
	} else {
		f.PC = other
	}
}

func eqStmt(x, y sexpr, taken, other, used int) closure {
	switch {
	case x.leaf == leafLocal && y.leaf == leafConst:
		i, k := x.k, y.k
		return func(_ *Thread, f *Frame) control { f.branch(f.Locals[i].I == k, taken, other); return ctlBranch }
	case x.leaf == leafLocal && y.leaf == leafLocal:
		i, j := x.k, y.k
		return func(_ *Thread, f *Frame) control {
			f.branch(f.Locals[i].I == f.Locals[j].I, taken, other)
			return ctlBranch
		}
	case y.leaf == leafConst:
		a, k := x.ival(), y.k
		return func(t *Thread, f *Frame) control {
			v := a(t, f)
			if failed(t) {
				return ctlRetry
			}
			f.SP -= used
			f.branch(v == k, taken, other)
			return ctlBranch
		}
	case y.leaf == leafLocal:
		a, j := x.ival(), y.k
		return func(t *Thread, f *Frame) control {
			v := a(t, f)
			if failed(t) {
				return ctlRetry
			}
			f.SP -= used
			f.branch(v == f.Locals[j].I, taken, other)
			return ctlBranch
		}
	}
	a, b := x.ival(), y.ival()
	return func(t *Thread, f *Frame) control {
		v, w := a(t, f), b(t, f)
		if failed(t) {
			return ctlRetry
		}
		f.SP -= used
		f.branch(v == w, taken, other)
		return ctlBranch
	}
}

func ltStmt(x, y sexpr, taken, other, used int) closure {
	switch {
	case x.leaf == leafLocal && y.leaf == leafConst:
		i, k := x.k, y.k
		return func(_ *Thread, f *Frame) control { f.branch(f.Locals[i].I < k, taken, other); return ctlBranch }
	case x.leaf == leafLocal && y.leaf == leafLocal:
		i, j := x.k, y.k
		return func(_ *Thread, f *Frame) control {
			f.branch(f.Locals[i].I < f.Locals[j].I, taken, other)
			return ctlBranch
		}
	case y.leaf == leafConst:
		a, k := x.ival(), y.k
		return func(t *Thread, f *Frame) control {
			v := a(t, f)
			if failed(t) {
				return ctlRetry
			}
			f.SP -= used
			f.branch(v < k, taken, other)
			return ctlBranch
		}
	case y.leaf == leafLocal:
		a, j := x.ival(), y.k
		return func(t *Thread, f *Frame) control {
			v := a(t, f)
			if failed(t) {
				return ctlRetry
			}
			f.SP -= used
			f.branch(v < f.Locals[j].I, taken, other)
			return ctlBranch
		}
	}
	a, b := x.ival(), y.ival()
	return func(t *Thread, f *Frame) control {
		v, w := a(t, f), b(t, f)
		if failed(t) {
			return ctlRetry
		}
		f.SP -= used
		f.branch(v < w, taken, other)
		return ctlBranch
	}
}

func leStmt(x, y sexpr, taken, other, used int) closure {
	switch {
	case x.leaf == leafLocal && y.leaf == leafConst:
		i, k := x.k, y.k
		return func(_ *Thread, f *Frame) control { f.branch(f.Locals[i].I <= k, taken, other); return ctlBranch }
	case x.leaf == leafLocal && y.leaf == leafLocal:
		i, j := x.k, y.k
		return func(_ *Thread, f *Frame) control {
			f.branch(f.Locals[i].I <= f.Locals[j].I, taken, other)
			return ctlBranch
		}
	case y.leaf == leafConst:
		a, k := x.ival(), y.k
		return func(t *Thread, f *Frame) control {
			v := a(t, f)
			if failed(t) {
				return ctlRetry
			}
			f.SP -= used
			f.branch(v <= k, taken, other)
			return ctlBranch
		}
	case y.leaf == leafLocal:
		a, j := x.ival(), y.k
		return func(t *Thread, f *Frame) control {
			v := a(t, f)
			if failed(t) {
				return ctlRetry
			}
			f.SP -= used
			f.branch(v <= f.Locals[j].I, taken, other)
			return ctlBranch
		}
	}
	a, b := x.ival(), y.ival()
	return func(t *Thread, f *Frame) control {
		v, w := a(t, f), b(t, f)
		if failed(t) {
			return ctlRetry
		}
		f.SP -= used
		f.branch(v <= w, taken, other)
		return ctlBranch
	}
}

func nullStmt(x sexpr, wantNil bool, tgt, fall, used int) closure {
	taken, other := tgt, fall
	if !wantNil {
		taken, other = fall, tgt
	}
	a := x.rval()
	return func(t *Thread, f *Frame) control {
		o := a(t, f)
		if failed(t) {
			return ctlRetry
		}
		f.SP -= used
		f.branch(o == nil, taken, other)
		return ctlBranch
	}
}

func acmpStmt(x, y rval, eq bool, tgt, fall, used int) closure {
	taken, other := tgt, fall
	if !eq {
		taken, other = fall, tgt
	}
	return func(t *Thread, f *Frame) control {
		a, b := x(t, f), y(t, f)
		if failed(t) {
			return ctlRetry
		}
		f.SP -= used
		f.branch(a == b, taken, other)
		return ctlBranch
	}
}

// ---- constructor chains ----
//
// A statement never calls, with one exception: `dup; invokespecial
// C.<init>()V` (and a following astore), when C's constructor is a
// trivial chain — a non-kernel <init>()V without handlers whose body is
// `return`, or `aload 0; invokespecial S.<init>()V; return` with S's
// constructor itself trivial. Such a chain pushes and pops frames and
// charges cycles and has no other effect, so the statement charges its
// summed cost and leaves the receiver where the calls would. It is exact
// by the statements' own argument plus three checks, made before any
// effect; when one fails it returns ctlRetry and the arms run the calls:
//
//   - the callee is re-read through f.M.Links and its chain cost must equal
//     the cost the table captured, so the quantum test in execFrame was
//     made against the whole chain;
//   - the receiver must be non-null, or the arm throws NullPointerException;
//   - len(t.Frames) plus the chain's depth must stay within MaxFrames, or a
//     push inside the chain throws StackOverflowError.
//
// The interpreter's only kill checks inside the chain are the invokes'
// safepoints; the statement runs only with no kill pending, and nothing
// inside a chain can post one, so a kill arriving from another goroutine
// lands as if one chain later.

// maxChain bounds the chains analysed; a deeper one runs through the arms.
const maxChain = 16

// chain is a trivial constructor chain's summed cost and frame depth; a
// negative cost marks a constructor that is not one.
type chain struct {
	cost  int64
	depth int
}

// chainOf returns m's chain, working it out on first use and caching it
// on m: a method's Links never change after linking.
func chainOf(m *object.Method) chain {
	v := m.Ctor.Load()
	if v == 0 {
		v = traceChain(m)
		m.Ctor.Store(v)
	}
	return chain{cost: v >> 8, depth: int(v & 0xff)}
}

// traceChain walks the constructor chain from m and encodes its cost and
// depth as cost<<8 | depth, or -1 when m is not a trivial constructor.
func traceChain(m *object.Method) int64 {
	var cost int64
	for depth := 1; depth <= maxChain; depth++ {
		if m == nil || m.Code == nil || m.Kernel || m.Static || m.NArgs != 0 ||
			m.Name != "<init>" || m.Sig != "()V" || len(m.Code.Handlers) != 0 {
			return -1
		}
		switch in := m.Code.Instrs; {
		case len(in) == 1 && in[0].Op == bytecode.RETURN:
			cost += int64(bytecode.RETURN.Cycles())
			return cost<<8 | int64(depth)
		case len(in) == 3 && in[0].Op == bytecode.ALOAD && in[0].A == 0 &&
			in[1].Op == bytecode.INVOKESPECIAL && int(in[1].A) < len(m.Links) &&
			in[2].Op == bytecode.RETURN && m.MaxLocals >= 1 && m.MaxStack >= 1:
			cost += int64(bytecode.ALOAD.Cycles() + bytecode.INVOKESPECIAL.Cycles() + bytecode.RETURN.Cycles())
			m = m.Links[in[1].A].Method
		default:
			return -1
		}
	}
	return -1
}

// ctor compiles the constructor statement at s, or returns nil.
func (b *stmtBuilder) ctor(s int) (closure, int, int64) {
	instrs := b.m.Code.Instrs
	if s+1 >= len(instrs) || instrs[s].Op != bytecode.DUP ||
		instrs[s+1].Op != bytecode.INVOKESPECIAL || b.target[s+1] {
		return nil, 0, 0
	}
	link := int(instrs[s+1].A)
	ch := chainOf(b.m.Links[link].Method)
	if ch.cost < 0 {
		return nil, 0, 0
	}
	cost := int64(bytecode.DUP.Cycles()+bytecode.INVOKESPECIAL.Cycles()) + ch.cost
	end, store := s+2, -1
	if end < len(instrs) && instrs[end].Op == bytecode.ASTORE && !b.target[end] {
		store = int(instrs[end].A)
		cost += int64(bytecode.ASTORE.Cycles())
		end++
	}
	return ctorStmt(link, ch.cost, store, end), end, cost
}

// ctorStmt runs the trivial chain of link's constructor on the receiver
// on top of the stack, then stores the receiver into local store (unless
// negative) and continues at next.
func ctorStmt(link int, cost int64, store, next int) closure {
	return func(t *Thread, f *Frame) control {
		ch := chainOf(f.M.Links[link].Method)
		r := f.Stack[f.SP-1].R
		if ch.cost != cost || r == nil || len(t.Frames)+ch.depth > t.Env.MaxFrames() {
			return ctlRetry
		}
		if store >= 0 {
			f.SP--
			f.Locals[store] = Slot{R: r}
		}
		f.PC = next
		return ctlNext
	}
}

// ---- loops ----
//
// A loop statement runs whole iterations of a loop whose header is a
// conditional-branch statement and whose body is one straight line of
// statements ending in a jump back to the header. It is exact by the
// statements' own argument:
//
//   - an iteration runs only when the quantum exceeds its whole cost
//     (execFrame, then the back edge), so no instruction inside it could
//     have yielded; it is charged when it starts, and every early exit
//     refunds what did not run;
//   - when the header exits, f.PC is the exit and ctlBranch makes
//     execFrame run the branch's safepoint, as for the header alone;
//   - the back edge returns ctlBranch, with f.PC at the header, when the
//     next iteration might not fit or a kill is pending, so execFrame runs
//     the back edge's safepoint and the per-statement path takes over;
//   - a statement that fails a check refunds itself and the rest of the
//     iteration and returns ctlRetry with f.PC at its head, whose switch
//     arm then runs (execFrame refunds nothing more for a loop);
//   - statements never call, allocate or lock, so only another goroutine
//     can set this thread's kill flag inside an iteration: testing it at
//     the back edge alone equals the request arriving one body later.

// loop compiles the loop headed by the statement at h, returning its
// closure and the cost of one iteration, or nil.
func (b *stmtBuilder) loop(ops []stmtOp, ends []int, h int) (closure, int64) {
	instrs := b.m.Code.Instrs
	start := ends[h]
	if br := instrs[start-1]; !br.Op.IsBranch() || br.Op == bytecode.GOTO {
		return nil, 0
	}
	var body loopBody
	iter := ops[h].scost
	for pc := start; ; pc = ends[pc] {
		if pc >= len(ops) || ops[pc].stmt == nil {
			return nil, 0
		}
		body.stmts = append(body.stmts, ops[pc].stmt)
		body.heads = append(body.heads, pc)
		body.rest = append(body.rest, ops[pc].scost)
		iter += ops[pc].scost
		last := instrs[ends[pc]-1]
		if last.Op == bytecode.GOTO {
			if int(last.A) != h {
				return nil, 0
			}
			break
		}
		if last.Op.IsBranch() {
			return nil, 0
		}
	}
	for i := len(body.rest) - 2; i >= 0; i-- {
		body.rest[i] += body.rest[i+1]
	}
	return loopStmt(ops[h].stmt, body, start, ops[h].scost, iter), iter
}

// loopBody is the straight line of statements after a loop header. rest[i]
// is the summed cost of stmts[i:], refunded when stmts[i] retries.
type loopBody struct {
	stmts []closure
	heads []int
	rest  []int64
}

// loopStmt runs whole iterations of a loop: it calls the header statement,
// leaves when the header branches anywhere but start, and runs the body,
// whose last statement jumps back to the header.
func loopStmt(hdr closure, body loopBody, start int, hcost, iter int64) closure {
	return func(t *Thread, f *Frame) control {
		for {
			t.Fuel -= iter
			t.Cycles += uint64(iter)
			if hdr(t, f) == ctlRetry {
				t.refund(iter)
				return ctlRetry
			}
			if f.PC != start {
				t.refund(iter - hcost)
				return ctlBranch
			}
			for n, s := range body.stmts {
				if s(t, f) == ctlRetry {
					t.refund(body.rest[n])
					f.PC = body.heads[n]
					return ctlRetry
				}
			}
			// The back edge's safepoint: stop where the per-statement
			// path could yield or be killed.
			if t.Fuel <= iter || t.KillPending() {
				return ctlBranch
			}
		}
	}
}
