package bytecode

import "fmt"

// Verify performs structural verification of a method body before it is
// admitted into a namespace. It checks that:
//
//   - every branch and handler target is a valid instruction index;
//   - local variable indices are within maxLocals;
//   - constant pool indices resolve to the kind the opcode expects;
//   - operand stack depth is consistent at every instruction (the same
//     depth is observed on every path), never negative, and never exceeds
//     maxStack;
//   - execution cannot fall off the end of the code.
//
// It is a structural verifier, not a full type checker: KaffeOS relies on
// the host language's type safety for memory protection, and our host (Go)
// provides it — an ill-typed program faults in the interpreter with a VM
// error rather than corrupting memory.
func Verify(m *MethodDef) error {
	if m.Code == nil {
		return nil // native method: nothing to verify
	}
	code := m.Code
	n := len(code.Instrs)
	if n == 0 {
		return fmt.Errorf("verify %s%s: empty code", m.Name, m.Sig)
	}
	sig, err := m.Signature()
	if err != nil {
		return fmt.Errorf("verify %s: %w", m.Name, err)
	}
	minLocals := sig.Slots()
	if !m.Static {
		minLocals++ // receiver in slot 0
	}
	if m.MaxLocals < minLocals {
		return fmt.Errorf("verify %s%s: maxLocals %d < argument slots %d", m.Name, m.Sig, m.MaxLocals, minLocals)
	}

	depth := make([]int, n) // stack depth before instruction; -1 = unseen
	for i := range depth {
		depth[i] = -1
	}
	work := []int{0}
	depth[0] = 0
	push := func(pc, d int) error {
		if pc < 0 || pc >= n {
			return fmt.Errorf("branch target %d out of range [0,%d)", pc, n)
		}
		if depth[pc] == -1 {
			depth[pc] = d
			work = append(work, pc)
		} else if depth[pc] != d {
			return fmt.Errorf("inconsistent stack depth at pc %d: %d vs %d", pc, depth[pc], d)
		}
		return nil
	}
	for _, h := range code.Handlers {
		if h.Start < 0 || h.End > n || h.Start >= h.End {
			return fmt.Errorf("verify %s%s: bad handler range [%d,%d)", m.Name, m.Sig, h.Start, h.End)
		}
		// A handler entry sees exactly the pushed throwable.
		if err := push(h.PC, 1); err != nil {
			return fmt.Errorf("verify %s%s: handler: %w", m.Name, m.Sig, err)
		}
	}

	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		in := code.Instrs[pc]
		if int(in.Op) >= len(ops) || ops[in.Op].name == "" {
			return fmt.Errorf("verify %s%s: pc %d: invalid opcode %d", m.Name, m.Sig, pc, in.Op)
		}
		info := ops[in.Op]
		d := depth[pc]

		pop, pushN := info.pop, info.push
		switch in.Op {
		case INVOKESTATIC, INVOKEVIRTUAL, INVOKESPECIAL:
			k, err := code.Const(in.A)
			if err != nil || k.Kind != KindMethod {
				return fmt.Errorf("verify %s%s: pc %d: %s needs a method ref", m.Name, m.Sig, pc, in.Op.Name())
			}
			msig, err := ParseSig(k.Sig)
			if err != nil {
				return fmt.Errorf("verify %s%s: pc %d: %w", m.Name, m.Sig, pc, err)
			}
			pop = msig.Slots()
			if in.Op != INVOKESTATIC {
				pop++
			}
			pushN = 0
			if msig.Ret != nil {
				pushN = 1
			}
		case GETFIELD, PUTFIELD, GETSTATIC, PUTSTATIC:
			k, err := code.Const(in.A)
			if err != nil || k.Kind != KindField {
				return fmt.Errorf("verify %s%s: pc %d: %s needs a field ref", m.Name, m.Sig, pc, in.Op.Name())
			}
		case LDC:
			k, err := code.Const(in.A)
			if err != nil || (k.Kind != KindInt && k.Kind != KindDouble && k.Kind != KindString) {
				return fmt.Errorf("verify %s%s: pc %d: ldc needs an int/double/string constant", m.Name, m.Sig, pc)
			}
		case NEW, INSTANCEOF, CHECKCAST, NEWARRAY:
			k, err := code.Const(in.A)
			if err != nil || k.Kind != KindClass {
				return fmt.Errorf("verify %s%s: pc %d: %s needs a class ref", m.Name, m.Sig, pc, in.Op.Name())
			}
		case ILOAD, ISTORE, ALOAD, ASTORE, DLOAD, DSTORE, IINC:
			if in.A < 0 || int(in.A) >= m.MaxLocals {
				return fmt.Errorf("verify %s%s: pc %d: local %d out of range [0,%d)", m.Name, m.Sig, pc, in.A, m.MaxLocals)
			}
		}

		if d < pop {
			return fmt.Errorf("verify %s%s: pc %d: %s pops %d with stack depth %d", m.Name, m.Sig, pc, in.Op.Name(), pop, d)
		}
		nd := d - pop + pushN
		if nd > m.MaxStack {
			return fmt.Errorf("verify %s%s: pc %d: stack depth %d exceeds maxStack %d", m.Name, m.Sig, pc, nd, m.MaxStack)
		}

		// Successors.
		switch in.Op {
		case GOTO:
			if err := push(int(in.A), nd); err != nil {
				return fmt.Errorf("verify %s%s: pc %d: %w", m.Name, m.Sig, pc, err)
			}
		case RETURN, IRETURN, ARETURN, DRETURN, ATHROW:
			// no fallthrough
		default:
			if info.branch {
				if err := push(int(in.A), nd); err != nil {
					return fmt.Errorf("verify %s%s: pc %d: %w", m.Name, m.Sig, pc, err)
				}
			}
			if pc+1 >= n {
				return fmt.Errorf("verify %s%s: execution falls off the end after pc %d (%s)", m.Name, m.Sig, pc, in.Op.Name())
			}
			if err := push(pc+1, nd); err != nil {
				return fmt.Errorf("verify %s%s: pc %d: %w", m.Name, m.Sig, pc, err)
			}
		}
	}
	return nil
}

// VerifyModule verifies every method of every class in the module. The
// verdict, pass or refusal, is computed once per module and remembered.
func VerifyModule(m *Module) error {
	m.verifyOnce.Do(func() { m.verifyErr = m.verify() })
	return m.verifyErr
}

func (m *Module) verify() error {
	for _, c := range m.Classes {
		for _, meth := range c.Methods {
			if err := Verify(meth); err != nil {
				return fmt.Errorf("class %s: %w", c.Name, err)
			}
		}
		for _, f := range c.Fields {
			if _, err := ParseDesc(f.Desc); err != nil {
				return fmt.Errorf("class %s: field %s: %w", c.Name, f.Name, err)
			}
		}
	}
	return nil
}
