package interp

// The closure-compiling engine ("JIT").
//
// Kaffe's real JIT translated each bytecode individually to x86; our
// equivalent translates each instruction to a Go closure, eliminating the
// fetch/decode switch of the baseline interpreter. Two quality levels
// reproduce the paper's platform spread:
//
//   - JIT{}: plain translation, one closure per instruction — the Kaffe00
//     class of engine ("a better JIT").
//   - JIT{Fused: true, InlineCache: true}: statement compilation (each
//     straight-line statement, e.g. x = (x*31 ^ j) & 0xFFFFFF or
//     if (i >= n+24) goto L, becomes one closure over an operand tree; see
//     jit_stmt.go) plus monomorphic inline caches at virtual call sites —
//     the commercial-JIT (IBM) class of engine.
//
// Simulated cycle accounting is identical across engines: a statement runs
// only when the quantum covers its whole cost, and anything it cannot
// finish without a side effect re-runs through the per-instruction
// closures, so yield points, GC timing and throw frames are those of the
// interpreter. CPU accounting and the servlet experiment's virtual clock
// are therefore engine-independent, while Figure 3's wall-clock spread
// emerges naturally.
//
// Compiled bodies are relocatable: closures never capture namespace-bound
// pointers (classes, fields, resolved methods). Anything that differs
// between two processes that defined the same module is re-derived at run
// time through the executing frame's own link table (f.M.Links[idx]), so
// one compiled artifact can be installed into every process that loads
// the module (internal/codecache). Only values that are deterministic per
// identical ClassDef — field slots, branch targets, argument counts,
// constants, cycle costs — are captured at compile time.

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/bytecode"
	"repro/internal/object"
)

// JIT is a closure-compiling engine.
type JIT struct {
	Fused       bool
	InlineCache bool
}

// Name implements Engine.
func (j *JIT) Name() string {
	if j.Fused || j.InlineCache {
		return "jit-opt"
	}
	return "jit"
}

// Step implements Engine.
func (j *JIT) Step(t *Thread) StepResult {
	return runLoop(t, j.execFrame)
}

// control is the signal a compiled closure returns to the driver.
type control uint8

const (
	ctlNext   control = iota // fall through to pc+1
	ctlBranch                // f.PC set by the closure; run safepoint checks
	ctlFrame                 // frame stack changed (call/return/throw-handled)
	ctlStop                  // thread state changed; driver must return
	// ctlRetry: a statement's check failed before any side effect; the
	// driver refunds its cost and runs the pc per instruction.
	ctlRetry
)

type closure func(t *Thread, f *Frame) control

// compiled is one method body compiled for one engine configuration.
type compiled struct {
	ops []jitOp // indexed by pc
}

// jitOp is everything the driver needs at one pc: the instruction's own
// closure and cost, and, on the optimizing engine, the statement that
// starts here with the summed cost of the instructions it covers.
type jitOp struct {
	run   closure
	cost  int64
	stmt  closure // nil when no statement starts at this pc
	scost int64
}

// jitMu serializes writers of the per-method body tables (compile and
// InstallProgram); readers load the table without it.
var jitMu sync.Mutex

// variant is j's index into object.CompiledBodies.
func (j *JIT) variant() int {
	v := 0
	if j.Fused {
		v |= 1
	}
	if j.InlineCache {
		v |= 2
	}
	return v
}

// cachedBody returns m's body for variant v, or nil.
func cachedBody(m *object.Method, v int) *compiled {
	if tab := m.Compiled.Load(); tab != nil {
		c, _ := tab[v].(*compiled)
		return c
	}
	return nil
}

// publishBody installs c as m's body for variant v by replacing the table.
// The caller holds jitMu.
func publishBody(m *object.Method, v int, c *compiled) {
	var tab object.CompiledBodies
	if old := m.Compiled.Load(); old != nil {
		tab = *old
	}
	tab[v] = c
	m.Compiled.Store(&tab)
}

// bodyFor compiles (or fetches the cached compilation of) m. A hit is one
// atomic load and an index; only a miss takes jitMu.
func (j *JIT) bodyFor(m *object.Method) (*compiled, error) {
	v := j.variant()
	if c := cachedBody(m, v); c != nil {
		return c, nil
	}
	jitMu.Lock()
	defer jitMu.Unlock()
	if c := cachedBody(m, v); c != nil {
		return c, nil
	}
	c, err := j.compile(m)
	if err != nil {
		return nil, err
	}
	publishBody(m, v, c)
	return c, nil
}

// execFrame drives compiled code for the top frame; the contract matches
// the interpreter's execFrame.
func (j *JIT) execFrame(t *Thread, f *Frame) (StepResult, bool) {
	body := f.body
	if body == nil {
		var err error
		if body, err = j.bodyFor(f.M); err != nil {
			t.Err = err
			t.unwindAll()
			t.State = StateKilled
			return StepKilled, false
		}
		f.body = body
	}
	n := len(body.ops)
	for {
		if f.PC < 0 || f.PC >= n {
			t.Err = fmt.Errorf("interp: jit pc %d out of range in %s", f.PC, f.M)
			t.unwindAll()
			t.State = StateKilled
			return StepKilled, false
		}
		op := &body.ops[f.PC]
		// A statement runs only when the quantum outlasts it and no kill
		// waits, so no instruction inside it could have yielded or been
		// killed on the per-instruction path either.
		if op.stmt != nil && t.Fuel > op.scost && !t.KillPending() {
			t.Fuel -= op.scost
			t.Cycles += uint64(op.scost)
			switch op.stmt(t, f) {
			case ctlNext:
				continue
			case ctlBranch:
				if res, stop := t.safepoint(); stop {
					return res, false
				}
				continue
			}
			t.Fuel += op.scost
			t.Cycles -= uint64(op.scost)
		}
		t.Fuel -= op.cost
		t.Cycles += uint64(op.cost)
		switch op.run(t, f) {
		case ctlNext:
			f.PC++
			if t.Fuel <= 0 {
				if checkKill(t) {
					return StepKilled, false
				}
				return StepYielded, false
			}
		case ctlBranch:
			if res, stop := t.safepoint(); stop {
				return res, false
			}
		case ctlFrame:
			return StepYielded, true
		case ctlStop:
			return stepResultFor(t), false
		}
	}
}

func stepResultFor(t *Thread) StepResult {
	switch t.State {
	case StateBlocked:
		return StepBlocked
	case StateSleeping:
		return StepSleeping
	case StateWaiting:
		return StepWaiting
	case StateKilled:
		return StepKilled
	case StateFinished:
		return StepFinished
	}
	return StepYielded
}

// compile translates m's bytecode: one closure per instruction, plus the
// statements layered over them when the engine optimizes.
func (j *JIT) compile(m *object.Method) (*compiled, error) {
	instrs := m.Code.Instrs
	ops := make([]jitOp, len(instrs))
	for pc, in := range instrs {
		cl, err := j.compileOne(m, pc)
		if err != nil {
			return nil, err
		}
		ops[pc] = jitOp{run: cl, cost: int64(in.Op.Cycles())}
	}
	if j.Fused {
		compileStatements(m, ops)
	}
	return &compiled{ops: ops}, nil
}

// inlineCacheSite is a monomorphic inline cache for one virtual call site.
type inlineCacheSite struct {
	class  *object.Class
	method *object.Method
}

// compileOne translates a single instruction.
func (j *JIT) compileOne(m *object.Method, pc int) (closure, error) {
	code := m.Code
	in := code.Instrs[pc]

	switch in.Op {
	case bytecode.NOP:
		return func(t *Thread, f *Frame) control { return ctlNext }, nil
	case bytecode.ICONST:
		v := int64(in.A)
		return func(t *Thread, f *Frame) control { f.push(IntSlot(v)); return ctlNext }, nil
	case bytecode.ACONST_NULL:
		return func(t *Thread, f *Frame) control { f.push(Slot{}); return ctlNext }, nil
	case bytecode.LDC:
		k := &code.Consts[in.A]
		switch k.Kind {
		case bytecode.KindInt:
			v := k.I
			return func(t *Thread, f *Frame) control { f.push(IntSlot(v)); return ctlNext }, nil
		case bytecode.KindDouble:
			v := int64(math.Float64bits(k.D))
			return func(t *Thread, f *Frame) control { f.push(IntSlot(v)); return ctlNext }, nil
		case bytecode.KindString:
			s := k.S
			return func(t *Thread, f *Frame) control {
				o, err := t.Env.Intern(t, s)
				if err != nil {
					return jitFault(t, err)
				}
				f.push(RefSlot(o))
				return ctlNext
			}, nil
		}
		return nil, fmt.Errorf("jit: bad ldc constant at %s pc %d", m, pc)

	case bytecode.ILOAD, bytecode.DLOAD:
		i := in.A
		return func(t *Thread, f *Frame) control { f.push(IntSlot(f.Locals[i].I)); return ctlNext }, nil
	case bytecode.ALOAD:
		i := in.A
		return func(t *Thread, f *Frame) control { f.push(RefSlot(f.Locals[i].R)); return ctlNext }, nil
	case bytecode.ISTORE, bytecode.DSTORE:
		i := in.A
		return func(t *Thread, f *Frame) control { f.Locals[i] = IntSlot(f.pop().I); return ctlNext }, nil
	case bytecode.ASTORE:
		i := in.A
		return func(t *Thread, f *Frame) control { f.Locals[i] = RefSlot(f.pop().R); return ctlNext }, nil
	case bytecode.IINC:
		i, d := in.A, int64(in.B)
		return func(t *Thread, f *Frame) control { f.Locals[i].I += d; return ctlNext }, nil

	case bytecode.POP:
		return func(t *Thread, f *Frame) control { f.pop(); return ctlNext }, nil
	case bytecode.DUP:
		return func(t *Thread, f *Frame) control { f.push(*f.top()); return ctlNext }, nil
	case bytecode.DUP_X1:
		return func(t *Thread, f *Frame) control {
			a, b := f.pop(), f.pop()
			f.push(a)
			f.push(b)
			f.push(a)
			return ctlNext
		}, nil
	case bytecode.SWAP:
		return func(t *Thread, f *Frame) control {
			a, b := f.pop(), f.pop()
			f.push(a)
			f.push(b)
			return ctlNext
		}, nil

	case bytecode.IADD:
		return func(t *Thread, f *Frame) control { b := f.pop().I; f.top().I += b; return ctlNext }, nil
	case bytecode.ISUB:
		return func(t *Thread, f *Frame) control { b := f.pop().I; f.top().I -= b; return ctlNext }, nil
	case bytecode.IMUL:
		return func(t *Thread, f *Frame) control { b := f.pop().I; f.top().I *= b; return ctlNext }, nil
	case bytecode.IDIV, bytecode.IREM:
		rem := in.Op == bytecode.IREM
		return func(t *Thread, f *Frame) control {
			b := f.pop().I
			if b == 0 {
				return jitThrow(t, ClsArithmetic, "/ by zero")
			}
			if rem {
				f.top().I %= b
			} else {
				f.top().I /= b
			}
			return ctlNext
		}, nil
	case bytecode.INEG:
		return func(t *Thread, f *Frame) control { f.top().I = -f.top().I; return ctlNext }, nil
	case bytecode.ISHL:
		return func(t *Thread, f *Frame) control {
			b := f.pop().I
			f.top().I <<= uint64(b) & 63
			return ctlNext
		}, nil
	case bytecode.ISHR:
		return func(t *Thread, f *Frame) control {
			b := f.pop().I
			f.top().I >>= uint64(b) & 63
			return ctlNext
		}, nil
	case bytecode.IUSHR:
		return func(t *Thread, f *Frame) control {
			b := f.pop().I
			f.top().I = int64(uint64(f.top().I) >> (uint64(b) & 63))
			return ctlNext
		}, nil
	case bytecode.IAND:
		return func(t *Thread, f *Frame) control { b := f.pop().I; f.top().I &= b; return ctlNext }, nil
	case bytecode.IOR:
		return func(t *Thread, f *Frame) control { b := f.pop().I; f.top().I |= b; return ctlNext }, nil
	case bytecode.IXOR:
		return func(t *Thread, f *Frame) control { b := f.pop().I; f.top().I ^= b; return ctlNext }, nil

	case bytecode.DADD, bytecode.DSUB, bytecode.DMUL, bytecode.DDIV:
		op := in.Op
		return func(t *Thread, f *Frame) control {
			b := dval(f.pop().I)
			x := f.top()
			a := dval(x.I)
			switch op {
			case bytecode.DADD:
				a += b
			case bytecode.DSUB:
				a -= b
			case bytecode.DMUL:
				a *= b
			default:
				a /= b
			}
			x.I = dbits(a)
			return ctlNext
		}, nil
	case bytecode.DNEG:
		return func(t *Thread, f *Frame) control { x := f.top(); x.I = dbits(-dval(x.I)); return ctlNext }, nil
	case bytecode.I2D:
		return func(t *Thread, f *Frame) control { x := f.top(); x.I = dbits(float64(x.I)); return ctlNext }, nil
	case bytecode.D2I:
		return func(t *Thread, f *Frame) control { x := f.top(); x.I = int64(dval(x.I)); return ctlNext }, nil
	case bytecode.DCMP:
		return func(t *Thread, f *Frame) control {
			b := dval(f.pop().I)
			x := f.top()
			a := dval(x.I)
			switch {
			case a < b:
				x.I = -1
			case a > b:
				x.I = 1
			default:
				x.I = 0
			}
			return ctlNext
		}, nil

	case bytecode.GOTO:
		tgt := int(in.A)
		return func(t *Thread, f *Frame) control { f.PC = tgt; return ctlBranch }, nil
	case bytecode.IFEQ, bytecode.IFNE, bytecode.IFLT, bytecode.IFGE, bytecode.IFGT, bytecode.IFLE:
		tgt, op := int(in.A), in.Op
		return func(t *Thread, f *Frame) control {
			v := f.pop().I
			if cmpZero(op, v) {
				f.PC = tgt
			} else {
				f.PC++
			}
			return ctlBranch
		}, nil
	case bytecode.IF_ICMPEQ, bytecode.IF_ICMPNE, bytecode.IF_ICMPLT, bytecode.IF_ICMPGE, bytecode.IF_ICMPGT, bytecode.IF_ICMPLE:
		tgt, op := int(in.A), in.Op
		return func(t *Thread, f *Frame) control {
			b := f.pop().I
			a := f.pop().I
			if cmpInts(op, a, b) {
				f.PC = tgt
			} else {
				f.PC++
			}
			return ctlBranch
		}, nil
	case bytecode.IF_ACMPEQ, bytecode.IF_ACMPNE:
		tgt := int(in.A)
		eq := in.Op == bytecode.IF_ACMPEQ
		return func(t *Thread, f *Frame) control {
			b := f.pop().R
			a := f.pop().R
			if (a == b) == eq {
				f.PC = tgt
			} else {
				f.PC++
			}
			return ctlBranch
		}, nil
	case bytecode.IFNULL, bytecode.IFNONNULL:
		tgt := int(in.A)
		wantNil := in.Op == bytecode.IFNULL
		return func(t *Thread, f *Frame) control {
			if (f.pop().R == nil) == wantNil {
				f.PC = tgt
			} else {
				f.PC++
			}
			return ctlBranch
		}, nil

	case bytecode.NEW:
		idx := in.A
		return func(t *Thread, f *Frame) control {
			o, err := t.Env.AllocObject(t, f.M.Links[idx].Class)
			if err != nil {
				return jitFault(t, err)
			}
			f.push(RefSlot(o))
			return ctlNext
		}, nil
	case bytecode.NEWARRAY:
		idx := in.A
		return func(t *Thread, f *Frame) control {
			n := f.pop().I
			if n < 0 {
				return jitThrow(t, ClsNegativeArraySize, fmt.Sprintf("%d", n))
			}
			o, err := t.Env.AllocArray(t, f.M.Links[idx].Class, int(n))
			if err != nil {
				return jitFault(t, err)
			}
			f.push(RefSlot(o))
			return ctlNext
		}, nil
	case bytecode.ARRAYLENGTH:
		return func(t *Thread, f *Frame) control {
			o := f.pop().R
			if o == nil {
				return jitThrow(t, ClsNullPointer, "arraylength of null")
			}
			f.push(IntSlot(int64(o.ArrayLen())))
			return ctlNext
		}, nil

	case bytecode.IALOAD, bytecode.AALOAD:
		refs := in.Op == bytecode.AALOAD
		return func(t *Thread, f *Frame) control {
			idx := f.pop().I
			arr := f.pop().R
			if ctl, ok := jitCheckArray(t, arr, idx); !ok {
				return ctl
			}
			if refs {
				f.push(RefSlot(arr.Refs[idx]))
			} else {
				f.push(IntSlot(arr.Prims[idx]))
			}
			return ctlNext
		}, nil
	case bytecode.IASTORE:
		return func(t *Thread, f *Frame) control {
			v := f.pop().I
			idx := f.pop().I
			arr := f.pop().R
			if ctl, ok := jitCheckArray(t, arr, idx); !ok {
				return ctl
			}
			arr.Prims[idx] = v
			return ctlNext
		}, nil
	case bytecode.AASTORE:
		return func(t *Thread, f *Frame) control {
			v := f.pop().R
			idx := f.pop().I
			arr := f.pop().R
			if ctl, ok := jitCheckArray(t, arr, idx); !ok {
				return ctl
			}
			if v != nil && arr.Class.ElemClass != nil && !arr.Class.ElemClass.AssignableFrom(v.Class) {
				return jitThrow(t, ClsArrayStore, v.Class.Name)
			}
			if ctl, ok := jitBarrier(t, arr, v); !ok {
				return ctl
			}
			arr.Refs[idx] = v
			return ctlNext
		}, nil

	case bytecode.GETFIELD:
		fl := m.Links[in.A].Field
		slot, ref, name := fl.Slot, fl.Ref, fl.Name
		return func(t *Thread, f *Frame) control {
			o := f.pop().R
			if o == nil {
				return jitThrow(t, ClsNullPointer, "getfield "+name)
			}
			if ref {
				f.push(RefSlot(o.Refs[slot]))
			} else {
				f.push(IntSlot(o.Prims[slot]))
			}
			return ctlNext
		}, nil
	case bytecode.PUTFIELD:
		fl := m.Links[in.A].Field
		slot, ref, name := fl.Slot, fl.Ref, fl.Name
		return func(t *Thread, f *Frame) control {
			v := f.pop()
			o := f.pop().R
			if o == nil {
				return jitThrow(t, ClsNullPointer, "putfield "+name)
			}
			if ref {
				if ctl, ok := jitBarrier(t, o, v.R); !ok {
					return ctl
				}
				o.Refs[slot] = v.R
			} else {
				o.Prims[slot] = v.I
			}
			return ctlNext
		}, nil
	case bytecode.GETSTATIC:
		idx := in.A
		return func(t *Thread, f *Frame) control {
			fl := f.M.Links[idx].Field
			st := fl.Class.Statics
			if fl.Ref {
				f.push(RefSlot(st.Refs[fl.Slot]))
			} else {
				f.push(IntSlot(st.Prims[fl.Slot]))
			}
			return ctlNext
		}, nil
	case bytecode.PUTSTATIC:
		idx := in.A
		return func(t *Thread, f *Frame) control {
			fl := f.M.Links[idx].Field
			st := fl.Class.Statics
			v := f.pop()
			if fl.Ref {
				if ctl, ok := jitBarrier(t, st, v.R); !ok {
					return ctl
				}
				st.Refs[fl.Slot] = v.R
			} else {
				st.Prims[fl.Slot] = v.I
			}
			return ctlNext
		}, nil

	case bytecode.INSTANCEOF:
		idx := in.A
		return func(t *Thread, f *Frame) control {
			c := f.M.Links[idx].Class
			o := f.pop().R
			if o != nil && c.AssignableFrom(o.Class) {
				f.push(IntSlot(1))
			} else {
				f.push(IntSlot(0))
			}
			return ctlNext
		}, nil
	case bytecode.CHECKCAST:
		idx := in.A
		return func(t *Thread, f *Frame) control {
			c := f.M.Links[idx].Class
			o := f.top().R
			if o != nil && !c.AssignableFrom(o.Class) {
				return jitThrow(t, ClsClassCast, o.Class.Name+" -> "+c.Name)
			}
			return ctlNext
		}, nil

	case bytecode.INVOKESTATIC, bytecode.INVOKEVIRTUAL, bytecode.INVOKESPECIAL:
		return j.compileInvoke(m, pc), nil

	case bytecode.RETURN, bytecode.IRETURN, bytecode.ARETURN, bytecode.DRETURN:
		hasRet := in.Op != bytecode.RETURN
		return func(t *Thread, f *Frame) control {
			var ret Slot
			if hasRet {
				ret = f.pop()
			}
			t.popFrameReturn(ret, hasRet)
			return ctlFrame
		}, nil

	case bytecode.ATHROW:
		return func(t *Thread, f *Frame) control {
			o := f.pop().R
			if o == nil {
				return jitThrow(t, ClsNullPointer, "throw null")
			}
			if _, cont := t.raise(o); !cont {
				return ctlStop
			}
			return ctlFrame
		}, nil

	case bytecode.MONITORENTER:
		return func(t *Thread, f *Frame) control {
			o := f.top().R
			if o == nil {
				f.pop()
				return jitThrow(t, ClsNullPointer, "monitorenter on null")
			}
			if tryLock(t, o) {
				f.pop()
				f.Monitors = append(f.Monitors, o)
				return ctlNext
			}
			t.BlockedOn = o
			t.State = StateBlocked
			return ctlStop
		}, nil
	case bytecode.MONITOREXIT:
		return func(t *Thread, f *Frame) control {
			o := f.pop().R
			if o == nil {
				return jitThrow(t, ClsNullPointer, "monitorexit on null")
			}
			if !unlock(t, o) {
				return jitThrow(t, ClsIllegalMonitor, "not owner")
			}
			f.forgetMonitor(o)
			return ctlNext
		}, nil
	}
	return nil, fmt.Errorf("jit: unimplemented opcode %s", in.Op.Name())
}

// compileInvoke builds the call closure, with an optional monomorphic
// inline cache for virtual sites. The resolved callee is re-derived from
// the executing frame's link table at run time; only scalars that are
// identical for every namespace defining the same module (argument count,
// vtable presence, name) are captured, keeping the closure relocatable.
// The inline cache still works across processes: it is keyed on the
// receiver's class pointer, so a clone's first call through a shared
// site simply misses and refills.
func (j *JIT) compileInvoke(m *object.Method, pc int) closure {
	in := m.Code.Instrs[pc]
	idx := in.A
	callee := m.Links[idx].Method
	static := in.Op == bytecode.INVOKESTATIC
	virtual := in.Op == bytecode.INVOKEVIRTUAL
	nargs := callee.NArgs
	if !static {
		nargs++
	}
	name := callee.Name
	hasVIdx := callee.VIndex >= 0
	var cache inlineCacheSite
	useIC := j.InlineCache && virtual && hasVIdx

	return func(t *Thread, f *Frame) control {
		callee := f.M.Links[idx].Method
		target := callee
		if !static {
			recv := f.Stack[f.SP-nargs].R
			if recv == nil {
				f.SP -= nargs
				f.clearAbove()
				return jitThrow(t, ClsNullPointer, "invoke "+name)
			}
			if virtual && hasVIdx {
				if useIC && cache.class == recv.Class {
					target = cache.method
				} else {
					target = recv.Class.VTable[callee.VIndex]
					if useIC {
						cache.class = recv.Class
						cache.method = target
					}
				}
			}
		}
		if res, stop := t.atBranch(); stop {
			_ = res
			return ctlStop
		}
		f.PC++
		if target.Native != nil {
			if _, cont := t.callNative(f, target, nargs); !cont {
				return ctlStop
			}
			return ctlFrame
		}
		err := t.PushFrame(target, f.Stack[f.SP-nargs:f.SP])
		f.SP -= nargs
		f.clearAbove()
		if err != nil {
			f.PC--
			return jitThrow(t, ClsStackOverflow, err.Error())
		}
		return ctlFrame
	}
}

// jitThrow raises a VM throwable and maps the outcome to a control signal.
func jitThrow(t *Thread, cls, msg string) control {
	if _, cont := t.vmThrow(cls, msg); !cont {
		return ctlStop
	}
	return ctlFrame
}

// jitFault maps a service error to a control signal (Thrown → raise).
func jitFault(t *Thread, err error) control {
	if _, cont := t.fault(err); !cont {
		return ctlStop
	}
	return ctlFrame
}

func jitCheckArray(t *Thread, arr *object.Object, idx int64) (control, bool) {
	if arr == nil {
		return jitThrow(t, ClsNullPointer, "array access on null"), false
	}
	if idx < 0 || idx >= int64(arr.ArrayLen()) {
		return jitThrow(t, ClsArrayIndex, fmt.Sprintf("index %d length %d", idx, arr.ArrayLen())), false
	}
	return ctlNext, true
}

func jitBarrier(t *Thread, holder, ref *object.Object) (control, bool) {
	b := t.Env.Barrier
	if !b.Enabled() {
		return ctlNext, true
	}
	cost := int64(b.CheckCost())
	t.Fuel -= cost
	t.Cycles += uint64(cost)
	if err := b.Write(t.Env.Reg, holder, ref, t.InKernel(), t.Env.BarrierStats); err != nil {
		return jitThrow(t, ClsSegViolation, err.Error()), false
	}
	return ctlNext, true
}

func cmpZero(op bytecode.Op, v int64) bool {
	switch op {
	case bytecode.IFEQ:
		return v == 0
	case bytecode.IFNE:
		return v != 0
	case bytecode.IFLT:
		return v < 0
	case bytecode.IFGE:
		return v >= 0
	case bytecode.IFGT:
		return v > 0
	default:
		return v <= 0
	}
}

func cmpInts(op bytecode.Op, a, b int64) bool {
	switch op {
	case bytecode.IF_ICMPEQ:
		return a == b
	case bytecode.IF_ICMPNE:
		return a != b
	case bytecode.IF_ICMPLT:
		return a < b
	case bytecode.IF_ICMPGE:
		return a >= b
	case bytecode.IF_ICMPGT:
		return a > b
	default:
		return a <= b
	}
}
