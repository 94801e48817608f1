package bytecode

import "testing"

// fuzzPool is a constant palette covering every pool kind, so synthesized
// method bodies can reach each pool-checking path in Verify.
func fuzzPool() []Const {
	return []Const{
		{Kind: KindInt, I: 7},
		{Kind: KindDouble, D: 1.5},
		{Kind: KindString, S: "s"},
		{Kind: KindClass, Class: "t/C"},
		{Kind: KindClass, Class: "[I"},
		{Kind: KindField, Class: "t/C", Name: "f", Sig: "I"},
		{Kind: KindMethod, Class: "t/C", Name: "m", Sig: "(I)I"},
		{Kind: KindMethod, Class: "t/C", Name: "v", Sig: "()V"},
	}
}

// decodeFuzzMethod turns raw bytes into a MethodDef: a small header
// (limits, flags, an optional exception handler with unvalidated indices),
// then three bytes per instruction. Every decode is a structurally
// arbitrary but deterministic method for Verify to judge.
func decodeFuzzMethod(data []byte) *MethodDef {
	if len(data) < 6 {
		return nil
	}
	code := &Code{Consts: fuzzPool()}
	m := &MethodDef{
		Name:      "fz",
		Sig:       "()V",
		Static:    data[2]&1 != 0,
		MaxStack:  int(data[0] % 16),
		MaxLocals: int(data[1] % 16),
		Code:      code,
	}
	if data[2]&2 != 0 {
		m.Sig = "(I)I"
	}
	if data[2]&4 != 0 {
		// Raw, unvalidated handler indices: Verify must reject bad ranges,
		// never index out of bounds.
		code.Handlers = append(code.Handlers, Handler{
			Start: int(int8(data[3])),
			End:   int(int8(data[4])),
			PC:    int(int8(data[5])),
		})
	}
	for rest := data[6:]; len(rest) >= 3; rest = rest[3:] {
		code.Instrs = append(code.Instrs, Instr{
			Op: Op(rest[0]),
			A:  int32(int8(rest[1])),
			B:  int32(int8(rest[2])),
		})
	}
	return m
}

// FuzzVerify feeds structurally arbitrary method bodies to the verifier.
// Whatever the bytes decode to, Verify must return a verdict — never
// panic or index out of range — the verdict must be deterministic, and
// any accepted body must survive Disassemble.
func FuzzVerify(f *testing.F) {
	// return
	f.Add([]byte{4, 4, 1, 0, 0, 0, byte(RETURN), 0, 0})
	// iconst 1; ireturn as (I)I
	f.Add([]byte{4, 4, 3, 0, 0, 0, byte(ICONST), 1, 0, byte(IRETURN), 0, 0})
	// backward branch: goto 0 (infinite loop, structurally fine)
	f.Add([]byte{4, 4, 1, 0, 0, 0, byte(GOTO), 0, 0})
	// handler over the whole body, throwable popped
	f.Add([]byte{4, 4, 5, 0, 1, 1, byte(NOP), 0, 0, byte(POP), 0, 0, byte(RETURN), 0, 0})
	// pool ops across the palette
	f.Add([]byte{8, 8, 1, 0, 0, 0,
		byte(LDC), 0, 0, byte(POP), 0, 0,
		byte(NEW), 3, 0, byte(POP), 0, 0,
		byte(RETURN), 0, 0})
	// invalid opcode and out-of-range pool index
	f.Add([]byte{4, 4, 1, 0, 0, 0, 255, 0, 0, byte(LDC), 100, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := decodeFuzzMethod(data)
		if m == nil {
			return
		}
		err1 := Verify(m)
		err2 := Verify(m)
		if (err1 == nil) != (err2 == nil) ||
			(err1 != nil && err1.Error() != err2.Error()) {
			t.Fatalf("verify verdict not deterministic: %v vs %v", err1, err2)
		}
		if err1 == nil {
			// Accepted bodies must render without panicking, even when
			// unreachable instructions carry garbage operands (the verifier
			// only judges reachable code).
			_ = Disassemble(m.Code)
		}
	})
}

// sameInstr compares instructions semantically: pool operands by resolved
// constant (round-tripping may renumber the pool), everything else by raw
// operand values.
func sameInstr(c1, c2 *Code, i1, i2 Instr) bool {
	if i1.Op != i2.Op {
		return false
	}
	if ops[i1.Op].operand == opndPool {
		k1, e1 := c1.Const(i1.A)
		k2, e2 := c2.Const(i2.A)
		return e1 == nil && e2 == nil && *k1 == *k2
	}
	return i1.A == i2.A && i1.B == i2.B
}

// FuzzAssembleDisassemble: any source the assembler accepts and the
// verifier passes must survive a disassemble/reassemble round trip with
// identical semantics — same classes, fields, method shapes, handlers, and
// per-instruction behavior.
func FuzzAssembleDisassemble(f *testing.F) {
	f.Add(`
.class t/A
.field next Lt/A;
.static n I
.method main ()I static
.locals 2
.stack 3
	iconst 0
	istore 0
L0:	iload 0
	ldc 10
	if_icmpge L1
	iinc 0 1
	goto L0
L1:	iload 0
	ireturn
.end
.end`)
	f.Add(`
.class t/B extends java/lang/Thread
.method run ()V
.locals 1
.stack 2
	ldc "hello # not a comment"
	pop
	ldc 2.5
	pop
	return
.end
.method nat (I)I native
.end
.end`)
	f.Add(`
.class t/C
.method m ()V
.locals 1
.stack 2
	new t/C
	pop
	ldc 1000
	newarray [I
	pop
	return
L:	athrow
	.catch * L0 L1 L
L0:	nop
L1:	return
.end
.end`)
	f.Add(".class x\n.end")
	f.Add("garbage\n.class")
	f.Fuzz(func(t *testing.T, src string) {
		mod, err := Assemble(src)
		if err != nil {
			return // rejection is always a valid outcome
		}
		if VerifyModule(mod) != nil {
			return // unverifiable programs need not round-trip
		}
		text := DisassembleModule(mod)
		mod2, err := Assemble(text)
		if err != nil {
			t.Fatalf("reassembly failed: %v\nsource:\n%s\nrendered:\n%s", err, src, text)
		}
		if err := VerifyModule(mod2); err != nil {
			t.Fatalf("reassembled module fails verification: %v\nrendered:\n%s", err, text)
		}
		if len(mod2.Classes) != len(mod.Classes) {
			t.Fatalf("class count changed: %d -> %d", len(mod.Classes), len(mod2.Classes))
		}
		for ci, c1 := range mod.Classes {
			c2 := mod2.Classes[ci]
			if c1.Name != c2.Name || c1.Super != c2.Super {
				t.Fatalf("class %d: %s extends %q -> %s extends %q", ci, c1.Name, c1.Super, c2.Name, c2.Super)
			}
			if len(c1.Fields) != len(c2.Fields) || len(c1.Methods) != len(c2.Methods) {
				t.Fatalf("class %s: member counts changed", c1.Name)
			}
			for fi, f1 := range c1.Fields {
				if f1 != c2.Fields[fi] {
					t.Fatalf("class %s field %d: %+v -> %+v", c1.Name, fi, f1, c2.Fields[fi])
				}
			}
			for mi, m1 := range c1.Methods {
				m2 := c2.Methods[mi]
				if m1.Name != m2.Name || m1.Sig != m2.Sig || m1.Static != m2.Static ||
					m1.MaxStack != m2.MaxStack || m1.MaxLocals != m2.MaxLocals {
					t.Fatalf("method %s.%s%s: shape changed", c1.Name, m1.Name, m1.Sig)
				}
				if (m1.Code == nil) != (m2.Code == nil) {
					t.Fatalf("method %s.%s%s: nativeness changed", c1.Name, m1.Name, m1.Sig)
				}
				if m1.Code == nil {
					continue
				}
				if len(m1.Code.Instrs) != len(m2.Code.Instrs) {
					t.Fatalf("method %s.%s%s: %d instrs -> %d", c1.Name, m1.Name, m1.Sig,
						len(m1.Code.Instrs), len(m2.Code.Instrs))
				}
				for pc := range m1.Code.Instrs {
					if !sameInstr(m1.Code, m2.Code, m1.Code.Instrs[pc], m2.Code.Instrs[pc]) {
						t.Fatalf("method %s.%s%s pc %d: %v -> %v", c1.Name, m1.Name, m1.Sig, pc,
							m1.Code.Instrs[pc], m2.Code.Instrs[pc])
					}
				}
				if len(m1.Code.Handlers) != len(m2.Code.Handlers) {
					t.Fatalf("method %s.%s%s: handler count changed", c1.Name, m1.Name, m1.Sig)
				}
				for hi, h1 := range m1.Code.Handlers {
					if h1 != m2.Code.Handlers[hi] {
						t.Fatalf("method %s.%s%s handler %d: %+v -> %+v", c1.Name, m1.Name, m1.Sig,
							hi, h1, m2.Code.Handlers[hi])
					}
				}
			}
		}
	})
}
