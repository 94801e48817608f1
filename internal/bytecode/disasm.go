package bytecode

import (
	"fmt"
	"strconv"
	"strings"
)

// Disassemble renders code in the textual form accepted by Assemble (modulo
// label names, which are synthesized as Ln for each branch target).
func Disassemble(code *Code) string {
	targets := make(map[int]string)
	for _, in := range code.Instrs {
		if in.Op.IsBranch() {
			pc := int(in.A)
			if _, ok := targets[pc]; !ok {
				targets[pc] = fmt.Sprintf("L%d", len(targets))
			}
		}
	}
	for _, h := range code.Handlers {
		for _, pc := range []int{h.Start, h.End, h.PC} {
			if _, ok := targets[pc]; !ok {
				targets[pc] = fmt.Sprintf("L%d", len(targets))
			}
		}
	}
	var b strings.Builder
	for pc, in := range code.Instrs {
		if lbl, ok := targets[pc]; ok {
			fmt.Fprintf(&b, "%s:", lbl)
		}
		b.WriteByte('\t')
		b.WriteString(in.Op.Name())
		// Undefined opcodes (possible in unreachable code, which the
		// verifier does not judge) render as bare "op(N)" mnemonics.
		var kind opnd
		if int(in.Op) < len(ops) {
			kind = ops[in.Op].operand
		}
		switch kind {
		case opndInt, opndLocal:
			fmt.Fprintf(&b, " %d", in.A)
		case opndIinc:
			fmt.Fprintf(&b, " %d %d", in.A, in.B)
		case opndLabel:
			fmt.Fprintf(&b, " %s", targets[int(in.A)])
		case opndPool:
			b.WriteByte(' ')
			b.WriteString(formatConstOperand(code, in.A))
		}
		b.WriteByte('\n')
	}
	if lbl, ok := targets[len(code.Instrs)]; ok {
		fmt.Fprintf(&b, "%s:\n", lbl)
	}
	for _, h := range code.Handlers {
		typ := h.Type
		if typ == "" {
			typ = "*"
		}
		fmt.Fprintf(&b, "\t.catch %s %s %s %s\n", typ, targets[h.Start], targets[h.End], targets[h.PC])
	}
	return b.String()
}

// DisassembleModule renders a whole module in the textual form accepted
// by Assemble: each class with its fields, then its methods through
// Disassemble. Reassembling the text yields an equivalent module.
func DisassembleModule(mod *Module) string {
	var b strings.Builder
	for _, c := range mod.Classes {
		if c.Super != "" {
			fmt.Fprintf(&b, ".class %s extends %s\n", c.Name, c.Super)
		} else {
			fmt.Fprintf(&b, ".class %s\n", c.Name)
		}
		for _, fd := range c.Fields {
			kw := ".field"
			if fd.Static {
				kw = ".static"
			}
			fmt.Fprintf(&b, "%s %s %s\n", kw, fd.Name, fd.Desc)
		}
		for _, m := range c.Methods {
			mods := ""
			if m.Static {
				mods = " static"
			}
			if m.Code == nil {
				fmt.Fprintf(&b, ".method %s %s%s native\n.end\n", m.Name, m.Sig, mods)
				continue
			}
			fmt.Fprintf(&b, ".method %s %s%s\n.locals %d\n.stack %d\n", m.Name, m.Sig, mods, m.MaxLocals, m.MaxStack)
			b.WriteString(Disassemble(m.Code))
			b.WriteString(".end\n")
		}
		b.WriteString(".end\n")
	}
	return b.String()
}

func formatConstOperand(code *Code, idx int32) string {
	k, err := code.Const(idx)
	if err != nil {
		return fmt.Sprintf("<bad pool %d>", idx)
	}
	switch k.Kind {
	case KindInt:
		return strconv.FormatInt(k.I, 10)
	case KindDouble:
		s := strconv.FormatFloat(k.D, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	case KindString:
		return strconv.Quote(k.S)
	case KindClass:
		return k.Class
	case KindField:
		return fmt.Sprintf("%s.%s %s", k.Class, k.Name, k.Sig)
	case KindMethod:
		return fmt.Sprintf("%s.%s %s", k.Class, k.Name, k.Sig)
	}
	return fmt.Sprintf("<kind %d>", k.Kind)
}
