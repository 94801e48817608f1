// Package bytecode defines the stack-machine instruction set executed by
// the kvm virtual machine, along with a textual assembler, a disassembler,
// and a structural verifier.
//
// The ISA is a compact cousin of JVM bytecode: a stack machine with typed
// loads/stores, field access through a symbolic constant pool, virtual and
// static invocation, exceptions with handler tables, and monitors. Programs
// for the VM — including the SPEC-JVM98-like workloads used to reproduce
// the paper's Figure 3 and Table 1 — are written either in the textual
// assembly accepted by Assemble or built directly with the builder in the
// object package.
package bytecode

import "fmt"

// Op is an opcode. Instructions are fixed-width (Op plus two int32
// operands), which keeps the interpreter and the statement compiler simple.
type Op uint8

// The instruction set. Operand conventions are noted per opcode:
// A and B are the Instr operand fields.
const (
	NOP Op = iota

	// Constants.
	ICONST      // push A (small int immediate)
	LDC         // push constant pool entry A (int64, double, or string)
	ACONST_NULL // push null reference

	// Local variables. A = local slot.
	ILOAD  // push int local A
	ISTORE // pop int into local A
	ALOAD  // push ref local A
	ASTORE // pop ref into local A
	DLOAD  // push double local A
	DSTORE // pop double into local A
	IINC   // local A += B (no stack traffic)

	// Operand stack.
	POP    // discard top
	DUP    // duplicate top
	DUP_X1 // duplicate top beneath the next value
	SWAP   // swap top two

	// Integer arithmetic (64-bit).
	IADD
	ISUB
	IMUL
	IDIV // throws ArithmeticException on divide by zero
	IREM // throws ArithmeticException on divide by zero
	INEG
	ISHL
	ISHR
	IUSHR
	IAND
	IOR
	IXOR

	// Floating point (64-bit).
	DADD
	DSUB
	DMUL
	DDIV
	DNEG
	I2D
	D2I
	DCMP // push -1, 0, or 1

	// Branches. A = target pc.
	GOTO
	IFEQ
	IFNE
	IFLT
	IFGE
	IFGT
	IFLE
	IF_ICMPEQ
	IF_ICMPNE
	IF_ICMPLT
	IF_ICMPGE
	IF_ICMPGT
	IF_ICMPLE
	IF_ACMPEQ
	IF_ACMPNE
	IFNULL
	IFNONNULL

	// Objects and fields. A = constant pool index.
	NEW        // A = class ref; push new instance
	GETFIELD   // A = field ref; pop obj, push value
	PUTFIELD   // A = field ref; pop value, obj (ref stores run the write barrier)
	GETSTATIC  // A = field ref
	PUTSTATIC  // A = field ref (ref stores run the write barrier)
	INSTANCEOF // A = class ref; pop obj, push 0/1
	CHECKCAST  // A = class ref; throws ClassCastException

	// Arrays.
	NEWARRAY    // A = class ref of the *array* class; pop length, push array
	ARRAYLENGTH // pop array, push length
	IALOAD      // pop index, array; push prim element
	IASTORE     // pop value, index, array
	AALOAD      // pop index, array; push ref element
	AASTORE     // pop value, index, array (runs the write barrier)

	// Calls. A = constant pool method ref.
	INVOKESTATIC
	INVOKEVIRTUAL // receiver dispatched through the vtable
	INVOKESPECIAL // constructors and super calls: static binding, has receiver
	RETURN        // return void
	IRETURN       // return int
	ARETURN       // return ref
	DRETURN       // return double

	// Exceptions.
	ATHROW // pop throwable, raise it

	// Monitors.
	MONITORENTER // pop obj, lock
	MONITOREXIT  // pop obj, unlock

	numOps // sentinel
)

// Instr is a decoded instruction.
type Instr struct {
	Op   Op
	A, B int32
}

// opInfo describes static properties of an opcode used by the assembler,
// verifier, and cycle accounting.
type opInfo struct {
	name    string
	pop     int  // operand stack slots consumed (-1 = special)
	push    int  // operand stack slots produced (-1 = special)
	operand opnd // operand kind expected by the assembler
	cycles  int  // simulated CPU cycles (drives CPU accounting & Table 1)
	branch  bool // A is a branch target
}

type opnd uint8

const (
	opndNone  opnd = iota
	opndInt        // small immediate in A
	opndLocal      // local slot in A
	opndIinc       // local slot in A, delta in B
	opndPool       // constant pool index in A
	opndLabel      // branch target in A
)

var ops = [numOps]opInfo{
	NOP:          {"nop", 0, 0, opndNone, 1, false},
	ICONST:       {"iconst", 0, 1, opndInt, 1, false},
	LDC:          {"ldc", 0, 1, opndPool, 2, false},
	ACONST_NULL:  {"aconst_null", 0, 1, opndNone, 1, false},
	ILOAD:        {"iload", 0, 1, opndLocal, 1, false},
	ISTORE:       {"istore", 1, 0, opndLocal, 1, false},
	ALOAD:        {"aload", 0, 1, opndLocal, 1, false},
	ASTORE:       {"astore", 1, 0, opndLocal, 1, false},
	DLOAD:        {"dload", 0, 1, opndLocal, 1, false},
	DSTORE:       {"dstore", 1, 0, opndLocal, 1, false},
	IINC:         {"iinc", 0, 0, opndIinc, 1, false},
	POP:          {"pop", 1, 0, opndNone, 1, false},
	DUP:          {"dup", 1, 2, opndNone, 1, false},
	DUP_X1:       {"dup_x1", 2, 3, opndNone, 1, false},
	SWAP:         {"swap", 2, 2, opndNone, 1, false},
	IADD:         {"iadd", 2, 1, opndNone, 1, false},
	ISUB:         {"isub", 2, 1, opndNone, 1, false},
	IMUL:         {"imul", 2, 1, opndNone, 3, false},
	IDIV:         {"idiv", 2, 1, opndNone, 20, false},
	IREM:         {"irem", 2, 1, opndNone, 20, false},
	INEG:         {"ineg", 1, 1, opndNone, 1, false},
	ISHL:         {"ishl", 2, 1, opndNone, 1, false},
	ISHR:         {"ishr", 2, 1, opndNone, 1, false},
	IUSHR:        {"iushr", 2, 1, opndNone, 1, false},
	IAND:         {"iand", 2, 1, opndNone, 1, false},
	IOR:          {"ior", 2, 1, opndNone, 1, false},
	IXOR:         {"ixor", 2, 1, opndNone, 1, false},
	DADD:         {"dadd", 2, 1, opndNone, 3, false},
	DSUB:         {"dsub", 2, 1, opndNone, 3, false},
	DMUL:         {"dmul", 2, 1, opndNone, 5, false},
	DDIV:         {"ddiv", 2, 1, opndNone, 20, false},
	DNEG:         {"dneg", 1, 1, opndNone, 1, false},
	I2D:          {"i2d", 1, 1, opndNone, 2, false},
	D2I:          {"d2i", 1, 1, opndNone, 2, false},
	DCMP:         {"dcmp", 2, 1, opndNone, 3, false},
	GOTO:         {"goto", 0, 0, opndLabel, 1, true},
	IFEQ:         {"ifeq", 1, 0, opndLabel, 1, true},
	IFNE:         {"ifne", 1, 0, opndLabel, 1, true},
	IFLT:         {"iflt", 1, 0, opndLabel, 1, true},
	IFGE:         {"ifge", 1, 0, opndLabel, 1, true},
	IFGT:         {"ifgt", 1, 0, opndLabel, 1, true},
	IFLE:         {"ifle", 1, 0, opndLabel, 1, true},
	IF_ICMPEQ:    {"if_icmpeq", 2, 0, opndLabel, 1, true},
	IF_ICMPNE:    {"if_icmpne", 2, 0, opndLabel, 1, true},
	IF_ICMPLT:    {"if_icmplt", 2, 0, opndLabel, 1, true},
	IF_ICMPGE:    {"if_icmpge", 2, 0, opndLabel, 1, true},
	IF_ICMPGT:    {"if_icmpgt", 2, 0, opndLabel, 1, true},
	IF_ICMPLE:    {"if_icmple", 2, 0, opndLabel, 1, true},
	IF_ACMPEQ:    {"if_acmpeq", 2, 0, opndLabel, 1, true},
	IF_ACMPNE:    {"if_acmpne", 2, 0, opndLabel, 1, true},
	IFNULL:       {"ifnull", 1, 0, opndLabel, 1, true},
	IFNONNULL:    {"ifnonnull", 1, 0, opndLabel, 1, true},
	NEW:          {"new", 0, 1, opndPool, 30, false},
	GETFIELD:     {"getfield", 1, 1, opndPool, 2, false},
	PUTFIELD:     {"putfield", 2, 0, opndPool, 2, false},
	GETSTATIC:    {"getstatic", 0, 1, opndPool, 2, false},
	PUTSTATIC:    {"putstatic", 1, 0, opndPool, 2, false},
	INSTANCEOF:   {"instanceof", 1, 1, opndPool, 4, false},
	CHECKCAST:    {"checkcast", 1, 1, opndPool, 4, false},
	NEWARRAY:     {"newarray", 1, 1, opndPool, 30, false},
	ARRAYLENGTH:  {"arraylength", 1, 1, opndNone, 1, false},
	IALOAD:       {"iaload", 2, 1, opndNone, 2, false},
	IASTORE:      {"iastore", 3, 0, opndNone, 2, false},
	AALOAD:       {"aaload", 2, 1, opndNone, 2, false},
	AASTORE:      {"aastore", 3, 0, opndNone, 2, false},
	INVOKESTATIC: {"invokestatic", -1, -1, opndPool, 10, false},
	INVOKEVIRTUAL: {"invokevirtual", -1, -1, opndPool,
		12, false},
	INVOKESPECIAL: {"invokespecial", -1, -1, opndPool, 10, false},
	RETURN:        {"return", 0, 0, opndNone, 5, false},
	IRETURN:       {"ireturn", 1, 0, opndNone, 5, false},
	ARETURN:       {"areturn", 1, 0, opndNone, 5, false},
	DRETURN:       {"dreturn", 1, 0, opndNone, 5, false},
	ATHROW:        {"athrow", 1, 0, opndNone, 10, false},
	MONITORENTER:  {"monitorenter", 1, 0, opndNone, 8, false},
	MONITOREXIT:   {"monitorexit", 1, 0, opndNone, 8, false},
}

// Name returns the assembler mnemonic of op.
func (op Op) Name() string {
	if int(op) < len(ops) && ops[op].name != "" {
		return ops[op].name
	}
	return fmt.Sprintf("op(%d)", op)
}

// NumOps reports the number of defined opcodes.
func NumOps() int { return int(numOps) }

// Cycles reports the simulated CPU cost of op, used for CPU accounting and
// the virtual clock.
func (op Op) Cycles() int {
	if int(op) >= len(ops) {
		return 0
	}
	return ops[op].cycles
}

// IsBranch reports whether op's A operand is a branch target. Undefined
// opcodes — which can reach here from unreachable code, since the verifier
// only judges reachable instructions — are not branches.
func (op Op) IsBranch() bool { return int(op) < len(ops) && ops[op].branch }

var opByName = func() map[string]Op {
	m := make(map[string]Op, numOps)
	for op := Op(0); op < numOps; op++ {
		if ops[op].name != "" {
			m[ops[op].name] = op
		}
	}
	return m
}()

// OpByName resolves an assembler mnemonic.
func OpByName(name string) (Op, bool) {
	op, ok := opByName[name]
	return op, ok
}
