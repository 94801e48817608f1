package interp

import (
	"fmt"
	"math"

	"repro/internal/bytecode"
	"repro/internal/object"
)

// Engine executes a thread until its quantum (t.Fuel) runs out or its state
// changes. Engines must be resumable: all execution state lives in the
// thread's frames.
type Engine interface {
	Name() string
	Step(t *Thread) StepResult
}

// Interpreter is the switch-dispatch engine. Its loop is the only
// bytecode loop: the optimizing JIT overlays statements on it (jit.go).
// Plain, it is the Kaffe00 class of engine; with Env.SpillSim it models
// Kaffe 1.0b4's naive per-instruction translator (Kaffe99).
type Interpreter struct{}

// Name implements Engine.
func (Interpreter) Name() string { return "interp" }

// Step implements Engine.
func (Interpreter) Step(t *Thread) StepResult { return runLoop(t, false) }

// runLoop drives execFrame until the quantum expires or the thread changes
// state. With stmts, each frame first resolves its method's statement
// table, which execFrame then overlays on its switch.
func runLoop(t *Thread, stmts bool) StepResult {
	for {
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
		f := t.Top()
		if f == nil {
			t.State = StateFinished
			return StepFinished
		}
		if t.Fuel <= 0 {
			if checkKill(t) {
				return StepKilled
			}
			return StepYielded
		}
		if stmts && f.body == nil {
			f.body = bodyFor(f.M)
		}
		res, again := execFrame(t, f)
		if !again {
			return res
		}
	}
}

// checkKill is the safepoint test: a user-mode thread with a pending kill
// terminates here; kernel mode defers.
func checkKill(t *Thread) bool {
	if t.KillPending() && !t.InKernel() {
		t.unwindAll()
		t.State = StateKilled
		t.Err = errKilled
		return true
	}
	return false
}

// execFrame interprets the top frame until it pushes/pops a frame, the
// thread yields/blocks/dies, or the quantum expires. The bool result is
// true when the outer loop should continue with the (new) top frame.
//
// When the frame carries a statement table (f.body), the statement at f.PC
// runs instead of the switch arm, but only if the quantum outlasts it and
// no kill waits, so no instruction inside it could have yielded or been
// killed here either. At a loop header whose whole iteration the quantum
// outlasts, the loop statement runs iterations instead, until the loop
// exits or the back edge's safepoint could stop it. A statement that
// returns ctlRetry is refunded and the pc runs through its arm; a loop
// that returns it has already refunded what did not run.
func execFrame(t *Thread, f *Frame) (StepResult, bool) {
	env := t.Env
	code := f.M.Code
	instrs := code.Instrs
	spill := env.SpillSim
	var stmts []stmtOp // nil unless the engine compiles statements
	if f.body != nil {
		stmts = f.body.ops
	}

	for {
		if f.PC < 0 || f.PC >= len(instrs) {
			t.Err = fmt.Errorf("interp: pc %d out of range in %s", f.PC, f.M)
			t.unwindAll()
			t.State = StateKilled
			return StepKilled, false
		}
		if stmts != nil {
			if op := &stmts[f.PC]; op.stmt != nil && t.Fuel > op.scost && !t.KillPending() {
				var c control
				if op.loop != nil && t.Fuel > op.iter {
					c = op.loop(t, f)
				} else {
					t.Fuel -= op.scost
					t.Cycles += uint64(op.scost)
					if c = op.stmt(t, f); c == ctlRetry {
						t.refund(op.scost)
					}
				}
				switch c {
				case ctlNext:
					continue
				case ctlBranch:
					if res, stop := t.safepoint(); stop {
						return res, false
					}
					continue
				}
			}
		}
		in := instrs[f.PC]
		cost := int64(in.Op.Cycles())
		t.Fuel -= cost
		t.Cycles += uint64(cost)
		if spill {
			naiveSpill(t, f, in.Op)
		}

		switch in.Op {
		case bytecode.NOP:

		case bytecode.ICONST:
			f.push(IntSlot(int64(in.A)))
		case bytecode.LDC:
			k := &code.Consts[in.A]
			switch k.Kind {
			case bytecode.KindInt:
				f.push(IntSlot(k.I))
			case bytecode.KindDouble:
				f.push(IntSlot(dbits(k.D)))
			case bytecode.KindString:
				s, err := env.Intern(t, k.S)
				if err != nil {
					if res, cont := t.fault(err); !cont {
						return res, false
					}
					return StepYielded, true
				}
				f.push(RefSlot(s))
			}
		case bytecode.ACONST_NULL:
			f.push(Slot{})

		case bytecode.ILOAD, bytecode.DLOAD:
			f.push(IntSlot(f.Locals[in.A].I))
		case bytecode.ALOAD:
			f.push(RefSlot(f.Locals[in.A].R))
		case bytecode.ISTORE, bytecode.DSTORE:
			f.Locals[in.A] = IntSlot(f.pop().I)
		case bytecode.ASTORE:
			f.Locals[in.A] = RefSlot(f.pop().R)
		case bytecode.IINC:
			f.Locals[in.A].I += int64(in.B)

		case bytecode.POP:
			f.pop()
		case bytecode.DUP:
			f.push(*f.top())
		case bytecode.DUP_X1:
			a := f.pop()
			b := f.pop()
			f.push(a)
			f.push(b)
			f.push(a)
		case bytecode.SWAP:
			a := f.pop()
			b := f.pop()
			f.push(a)
			f.push(b)

		case bytecode.IADD:
			b := f.pop().I
			f.top().I += b
		case bytecode.ISUB:
			b := f.pop().I
			f.top().I -= b
		case bytecode.IMUL:
			b := f.pop().I
			f.top().I *= b
		case bytecode.IDIV:
			b := f.pop().I
			if b == 0 {
				if res, cont := t.vmThrow(ClsArithmetic, "/ by zero"); !cont {
					return res, false
				}
				return StepYielded, true
			}
			f.top().I /= b
		case bytecode.IREM:
			b := f.pop().I
			if b == 0 {
				if res, cont := t.vmThrow(ClsArithmetic, "% by zero"); !cont {
					return res, false
				}
				return StepYielded, true
			}
			f.top().I %= b
		case bytecode.INEG:
			f.top().I = -f.top().I
		case bytecode.ISHL:
			b := f.pop().I
			f.top().I <<= uint64(b) & 63
		case bytecode.ISHR:
			b := f.pop().I
			f.top().I >>= uint64(b) & 63
		case bytecode.IUSHR:
			b := f.pop().I
			f.top().I = int64(uint64(f.top().I) >> (uint64(b) & 63))
		case bytecode.IAND:
			b := f.pop().I
			f.top().I &= b
		case bytecode.IOR:
			b := f.pop().I
			f.top().I |= b
		case bytecode.IXOR:
			b := f.pop().I
			f.top().I ^= b

		case bytecode.DADD:
			b := f.pop()
			x := f.top()
			x.I = dbits(dval(x.I) + dval(b.I))
		case bytecode.DSUB:
			b := f.pop()
			x := f.top()
			x.I = dbits(dval(x.I) - dval(b.I))
		case bytecode.DMUL:
			b := f.pop()
			x := f.top()
			x.I = dbits(dval(x.I) * dval(b.I))
		case bytecode.DDIV:
			b := f.pop()
			x := f.top()
			x.I = dbits(dval(x.I) / dval(b.I))
		case bytecode.DNEG:
			x := f.top()
			x.I = dbits(-dval(x.I))
		case bytecode.I2D:
			x := f.top()
			x.I = dbits(float64(x.I))
		case bytecode.D2I:
			x := f.top()
			x.I = int64(dval(x.I))
		case bytecode.DCMP:
			b := f.pop()
			x := f.top()
			a, bb := dval(x.I), dval(b.I)
			switch {
			case a < bb:
				x.I = -1
			case a > bb:
				x.I = 1
			default:
				x.I = 0
			}

		case bytecode.GOTO:
			f.PC = int(in.A)
			if res, stop := t.safepoint(); stop {
				return res, false
			}
			continue
		case bytecode.IFEQ, bytecode.IFNE, bytecode.IFLT, bytecode.IFGE, bytecode.IFGT, bytecode.IFLE:
			v := f.pop().I
			taken := false
			switch in.Op {
			case bytecode.IFEQ:
				taken = v == 0
			case bytecode.IFNE:
				taken = v != 0
			case bytecode.IFLT:
				taken = v < 0
			case bytecode.IFGE:
				taken = v >= 0
			case bytecode.IFGT:
				taken = v > 0
			case bytecode.IFLE:
				taken = v <= 0
			}
			if taken {
				f.PC = int(in.A)
			} else {
				f.PC++
			}
			if res, stop := t.safepoint(); stop {
				return res, false
			}
			continue
		case bytecode.IF_ICMPEQ, bytecode.IF_ICMPNE, bytecode.IF_ICMPLT, bytecode.IF_ICMPGE, bytecode.IF_ICMPGT, bytecode.IF_ICMPLE:
			b := f.pop().I
			a := f.pop().I
			taken := false
			switch in.Op {
			case bytecode.IF_ICMPEQ:
				taken = a == b
			case bytecode.IF_ICMPNE:
				taken = a != b
			case bytecode.IF_ICMPLT:
				taken = a < b
			case bytecode.IF_ICMPGE:
				taken = a >= b
			case bytecode.IF_ICMPGT:
				taken = a > b
			case bytecode.IF_ICMPLE:
				taken = a <= b
			}
			if taken {
				f.PC = int(in.A)
			} else {
				f.PC++
			}
			if res, stop := t.safepoint(); stop {
				return res, false
			}
			continue
		case bytecode.IF_ACMPEQ, bytecode.IF_ACMPNE:
			b := f.pop().R
			a := f.pop().R
			if (a == b) == (in.Op == bytecode.IF_ACMPEQ) {
				f.PC = int(in.A)
			} else {
				f.PC++
			}
			if res, stop := t.safepoint(); stop {
				return res, false
			}
			continue
		case bytecode.IFNULL, bytecode.IFNONNULL:
			v := f.pop().R
			if (v == nil) == (in.Op == bytecode.IFNULL) {
				f.PC = int(in.A)
			} else {
				f.PC++
			}
			if res, stop := t.safepoint(); stop {
				return res, false
			}
			continue

		case bytecode.NEW:
			c := f.M.Links[in.A].Class
			o, err := env.AllocObject(t, c)
			if err != nil {
				if res, cont := t.fault(err); !cont {
					return res, false
				}
				return StepYielded, true
			}
			f.push(RefSlot(o))
		case bytecode.NEWARRAY:
			c := f.M.Links[in.A].Class
			n := f.pop().I
			if n < 0 {
				if res, cont := t.vmThrow(ClsNegativeArraySize, fmt.Sprintf("%d", n)); !cont {
					return res, false
				}
				return StepYielded, true
			}
			o, err := env.AllocArray(t, c, int(n))
			if err != nil {
				if res, cont := t.fault(err); !cont {
					return res, false
				}
				return StepYielded, true
			}
			f.push(RefSlot(o))
		case bytecode.ARRAYLENGTH:
			o := f.pop().R
			if o == nil {
				if res, cont := t.vmThrow(ClsNullPointer, "arraylength of null"); !cont {
					return res, false
				}
				return StepYielded, true
			}
			f.push(IntSlot(int64(o.ArrayLen())))

		case bytecode.IALOAD:
			idx := f.pop().I
			arr := f.pop().R
			if res, cont, ok := t.checkArray(arr, idx); !ok {
				if !cont {
					return res, false
				}
				return StepYielded, true
			}
			f.push(IntSlot(arr.Prims[idx]))
		case bytecode.IASTORE:
			v := f.pop().I
			idx := f.pop().I
			arr := f.pop().R
			if res, cont, ok := t.checkArray(arr, idx); !ok {
				if !cont {
					return res, false
				}
				return StepYielded, true
			}
			arr.Prims[idx] = v
		case bytecode.AALOAD:
			idx := f.pop().I
			arr := f.pop().R
			if res, cont, ok := t.checkArray(arr, idx); !ok {
				if !cont {
					return res, false
				}
				return StepYielded, true
			}
			f.push(RefSlot(arr.Refs[idx]))
		case bytecode.AASTORE:
			v := f.pop().R
			idx := f.pop().I
			arr := f.pop().R
			if res, cont, ok := t.checkArray(arr, idx); !ok {
				if !cont {
					return res, false
				}
				return StepYielded, true
			}
			if v != nil && arr.Class.ElemClass != nil && !arr.Class.ElemClass.AssignableFrom(v.Class) {
				if res, cont := t.vmThrow(ClsArrayStore, v.Class.Name); !cont {
					return res, false
				}
				return StepYielded, true
			}
			if res, cont, ok := t.barrierWrite(arr, v); !ok {
				if !cont {
					return res, false
				}
				return StepYielded, true
			}
			arr.Refs[idx] = v

		case bytecode.GETFIELD:
			fl := f.M.Links[in.A].Field
			o := f.pop().R
			if o == nil {
				if res, cont := t.vmThrow(ClsNullPointer, "getfield "+fl.Name); !cont {
					return res, false
				}
				return StepYielded, true
			}
			if fl.Ref {
				f.push(RefSlot(o.Refs[fl.Slot]))
			} else {
				f.push(IntSlot(o.Prims[fl.Slot]))
			}
		case bytecode.PUTFIELD:
			fl := f.M.Links[in.A].Field
			v := f.pop()
			o := f.pop().R
			if o == nil {
				if res, cont := t.vmThrow(ClsNullPointer, "putfield "+fl.Name); !cont {
					return res, false
				}
				return StepYielded, true
			}
			if fl.Ref {
				if res, cont, ok := t.barrierWrite(o, v.R); !ok {
					if !cont {
						return res, false
					}
					return StepYielded, true
				}
				o.Refs[fl.Slot] = v.R
			} else {
				o.Prims[fl.Slot] = v.I
			}
		case bytecode.GETSTATIC:
			fl := f.M.Links[in.A].Field
			st := fl.Class.Statics
			if fl.Ref {
				f.push(RefSlot(st.Refs[fl.Slot]))
			} else {
				f.push(IntSlot(st.Prims[fl.Slot]))
			}
		case bytecode.PUTSTATIC:
			fl := f.M.Links[in.A].Field
			st := fl.Class.Statics
			v := f.pop()
			if fl.Ref {
				if res, cont, ok := t.barrierWrite(st, v.R); !ok {
					if !cont {
						return res, false
					}
					return StepYielded, true
				}
				st.Refs[fl.Slot] = v.R
			} else {
				st.Prims[fl.Slot] = v.I
			}

		case bytecode.INSTANCEOF:
			c := f.M.Links[in.A].Class
			o := f.pop().R
			if o != nil && c.AssignableFrom(o.Class) {
				f.push(IntSlot(1))
			} else {
				f.push(IntSlot(0))
			}
		case bytecode.CHECKCAST:
			c := f.M.Links[in.A].Class
			o := f.top().R
			if o != nil && !c.AssignableFrom(o.Class) {
				if res, cont := t.vmThrow(ClsClassCast, o.Class.Name+" -> "+c.Name); !cont {
					return res, false
				}
				return StepYielded, true
			}

		case bytecode.INVOKESTATIC, bytecode.INVOKEVIRTUAL, bytecode.INVOKESPECIAL:
			m := f.M.Links[in.A].Method
			nargs := m.NArgs
			if in.Op != bytecode.INVOKESTATIC {
				nargs++
			}
			args := f.Stack[f.SP-nargs : f.SP]
			if in.Op != bytecode.INVOKESTATIC {
				recv := args[0].R
				if recv == nil {
					f.SP -= nargs
					if res, cont := t.vmThrow(ClsNullPointer, "invoke "+m.Name); !cont {
						return res, false
					}
					return StepYielded, true
				}
				if in.Op == bytecode.INVOKEVIRTUAL && m.VIndex >= 0 {
					m = recv.Class.VTable[m.VIndex]
				}
			}
			if res, stop := t.atBranch(); stop {
				return res, false
			}
			f.PC++ // return address
			if m.Native != nil {
				if res, cont := t.callNative(f, m, nargs); !cont {
					return res, false
				}
				// The native may have raised (frames changed) or altered
				// the thread state; let the run loop re-evaluate.
				return StepYielded, true
			}
			err := t.PushFrame(m, args)
			f.SP -= nargs
			if err != nil {
				f.PC-- // re-point at the invoke for diagnostics
				if res, cont := t.vmThrow(ClsStackOverflow, err.Error()); !cont {
					return res, false
				}
				return StepYielded, true
			}
			return StepYielded, true // outer loop switches to the new frame

		case bytecode.RETURN, bytecode.IRETURN, bytecode.ARETURN, bytecode.DRETURN:
			var ret Slot
			if in.Op != bytecode.RETURN {
				ret = f.pop()
			}
			t.popFrameReturn(ret, in.Op != bytecode.RETURN)
			return StepYielded, true

		case bytecode.ATHROW:
			o := f.pop().R
			if o == nil {
				if res, cont := t.vmThrow(ClsNullPointer, "throw null"); !cont {
					return res, false
				}
				return StepYielded, true
			}
			if res, cont := t.raise(o); !cont {
				return res, false
			}
			return StepYielded, true

		case bytecode.MONITORENTER:
			o := f.top().R
			if o == nil {
				f.pop()
				if res, cont := t.vmThrow(ClsNullPointer, "monitorenter on null"); !cont {
					return res, false
				}
				return StepYielded, true
			}
			if tryLock(t, o) {
				f.pop()
				f.Monitors = append(f.Monitors, o)
			} else {
				// Park without consuming the operand or advancing the PC;
				// the scheduler re-runs this instruction on wake-up.
				t.BlockedOn = o
				t.State = StateBlocked
				return StepBlocked, false
			}
		case bytecode.MONITOREXIT:
			o := f.pop().R
			if o == nil {
				if res, cont := t.vmThrow(ClsNullPointer, "monitorexit on null"); !cont {
					return res, false
				}
				return StepYielded, true
			}
			if !unlock(t, o) {
				if res, cont := t.vmThrow(ClsIllegalMonitor, "not owner"); !cont {
					return res, false
				}
				return StepYielded, true
			}
			f.forgetMonitor(o)

		default:
			t.Err = fmt.Errorf("interp: unimplemented opcode %s in %s", in.Op.Name(), f.M)
			t.unwindAll()
			t.State = StateKilled
			return StepKilled, false
		}

		f.PC++
		if t.Fuel <= 0 {
			if checkKill(t) {
				return StepKilled, false
			}
			return StepYielded, false
		}
	}
}

func dval(bits int64) float64 { return math.Float64frombits(uint64(bits)) }

// dbits stores a double result. Every NaN stores as one canonical NaN:
// Go leaves a NaN result's payload unspecified, and the compiler may
// commute a*b, so the same operation at two code sites (a switch arm and
// a statement) could otherwise store different bits, which integer ops on
// the slot would then expose.
func dbits(v float64) int64 {
	if v != v {
		return canonicalNaN
	}
	return int64(math.Float64bits(v))
}

const canonicalNaN = 0x7ff8000000000000

// atBranch is the safepoint at calls: kill requests are honoured here. It
// reports (result, stop).
func (t *Thread) atBranch() (StepResult, bool) {
	if t.KillPending() && !t.InKernel() {
		t.unwindAll()
		t.State = StateKilled
		t.Err = errKilled
		return StepKilled, true
	}
	return StepYielded, false
}

// safepoint is the check after a completed branch (PC already points at the
// next instruction): kill requests and quantum expiry are honoured here.
func (t *Thread) safepoint() (StepResult, bool) {
	if t.KillPending() && !t.InKernel() {
		t.unwindAll()
		t.State = StateKilled
		t.Err = errKilled
		return StepKilled, true
	}
	if t.Fuel <= 0 {
		return StepYielded, true
	}
	return StepYielded, false
}

// popFrameReturn pops the top frame and delivers the return value to the
// caller, or records the thread result if it was the entry frame.
// Returning with held monitors is structurally possible; popFrame releases
// them to preserve the invariant that dead frames hold no locks.
func (t *Thread) popFrameReturn(ret Slot, hasRet bool) {
	t.popFrame()
	if caller := t.Top(); caller != nil {
		if hasRet {
			caller.push(ret)
		}
		return
	}
	if hasRet {
		t.Result = ret
	}
	t.State = StateFinished
}

// checkArray validates an array access. ok=false means a throwable path was
// taken; (res, cont) follow the fault convention.
func (t *Thread) checkArray(arr *object.Object, idx int64) (StepResult, bool, bool) {
	if arr == nil {
		res, cont := t.vmThrow(ClsNullPointer, "array access on null")
		return res, cont, false
	}
	if idx < 0 || idx >= int64(arr.ArrayLen()) {
		res, cont := t.vmThrow(ClsArrayIndex, fmt.Sprintf("index %d length %d", idx, arr.ArrayLen()))
		return res, cont, false
	}
	return 0, true, true
}

// barrierWrite runs the write barrier for storing ref into holder. ok=false
// means a throwable path was taken.
func (t *Thread) barrierWrite(holder, ref *object.Object) (StepResult, bool, bool) {
	b := t.Env.Barrier
	if !b.Enabled() {
		return 0, true, true
	}
	cost := int64(b.CheckCost())
	t.Fuel -= cost
	t.Cycles += uint64(cost)
	if err := b.Write(t.Env.Reg, holder, ref, t.InKernel(), t.Env.BarrierStats); err != nil {
		res, cont := t.vmThrow(ClsSegViolation, err.Error())
		return res, cont, false
	}
	return 0, true, true
}

// callNative invokes a native method, consuming nargs stack slots of f.
// The fault convention applies to the returned (res, cont).
func (t *Thread) callNative(f *Frame, m *object.Method, nargs int) (StepResult, bool) {
	fn, ok := m.Native.(NativeFunc)
	if !ok {
		t.Err = fmt.Errorf("interp: native %s has type %T, want NativeFunc", m, m.Native)
		t.unwindAll()
		t.State = StateKilled
		return StepKilled, false
	}
	args := make([]Slot, nargs)
	copy(args, f.Stack[f.SP-nargs:f.SP])
	f.SP -= nargs

	if m.Kernel {
		t.EnterKernel()
	}
	ret, err := fn(t, args)
	if m.Kernel {
		t.ExitKernel()
	}
	if err != nil {
		return t.fault(err)
	}
	if m.HasRet {
		// The native may have switched frames (e.g. Thread.start pushes a
		// frame on another thread, not this one); deliver to f explicitly.
		f.push(ret)
	}
	return StepYielded, true
}

// fault converts an error from a VM service or native into control flow:
// *Thrown raises the wrapped throwable; anything else kills the thread.
// It reports (result, continueExecution).
func (t *Thread) fault(err error) (StepResult, bool) {
	if th, ok := err.(*Thrown); ok {
		return t.raise(th.Obj)
	}
	t.Err = err
	t.unwindAll()
	t.State = StateKilled
	return StepKilled, false
}

// vmThrow builds a VM throwable of class cls and raises it.
func (t *Thread) vmThrow(cls, msg string) (StepResult, bool) {
	obj, err := t.Env.throwable(t, cls, msg)
	if err != nil {
		t.Err = fmt.Errorf("interp: building %s: %w", cls, err)
		t.unwindAll()
		t.State = StateKilled
		return StepKilled, false
	}
	return t.raise(obj)
}
