package bytecode

import (
	"fmt"
	"strconv"
	"strings"
)

// Assemble parses textual assembly into a Module.
//
// Format (one directive or instruction per line; '#' starts a comment —
// ';' cannot, since it appears inside type descriptors):
//
//	.class spec/Node extends java/lang/Object
//	.field next Lspec/Node;
//	.static counter I
//	.method sum (I)I          # instance method; append " static" for static
//	.locals 3
//	.stack 4
//	    iconst 0
//	    istore 2
//	L0: iload 2
//	    iload 1
//	    if_icmpge L1
//	    iinc 2 1
//	    goto L0
//	L1: iload 2
//	    ireturn
//	.catch java/lang/Exception L0 L1 L1  # type start end handler
//	.end
//
// Pool-operand instructions:
//
//	ldc 42 | ldc 3.5 | ldc "text"
//	new some/Class | newarray [I | instanceof some/Class | checkcast some/Class
//	getfield some/Class.field I        (likewise putfield, getstatic, putstatic)
//	invokestatic some/Class.m (II)I    (likewise invokevirtual, invokespecial)
func Assemble(src string) (*Module, error) {
	a := &asm{mod: &Module{}}
	for i, raw := range strings.Split(src, "\n") {
		a.line = i + 1
		if err := a.doLine(raw); err != nil {
			return nil, fmt.Errorf("asm line %d: %w", a.line, err)
		}
	}
	if a.cls != nil {
		return nil, fmt.Errorf("asm: class %q not terminated before end of input", a.cls.Name)
	}
	return a.mod, nil
}

// MustAssemble is Assemble for statically known-good sources; it panics on
// error. The workload and class library sources use it.
func MustAssemble(src string) *Module {
	m, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return m
}

type asm struct {
	mod  *Module
	line int

	cls *ClassDef // class being defined, nil between classes

	// method under construction, nil between methods
	meth    *MethodDef
	labels  map[string]int
	fixups  []fixup // branch instructions awaiting label resolution
	catches []catchFix
}

type fixup struct {
	pc    int
	label string
	line  int
}

type catchFix struct {
	typ                 string
	start, end, handler string
	line                int
}

func (a *asm) doLine(raw string) error {
	line := raw
	if i := strings.IndexByte(line, '#'); i >= 0 && !strings.Contains(line[:i], `"`) {
		line = line[:i]
	}
	line = strings.TrimSpace(line)
	if line == "" {
		return nil
	}
	// Leading label(s): "L0: iload 1" or a bare "L0:".
	for {
		i := strings.IndexByte(line, ':')
		if i <= 0 || strings.ContainsAny(line[:i], " \t\"(") {
			break
		}
		if a.meth == nil {
			return fmt.Errorf("label outside method")
		}
		name := line[:i]
		if _, dup := a.labels[name]; dup {
			return fmt.Errorf("duplicate label %q", name)
		}
		a.labels[name] = len(a.meth.Code.Instrs)
		line = strings.TrimSpace(line[i+1:])
		if line == "" {
			return nil
		}
	}
	if strings.HasPrefix(line, ".") {
		return a.directive(line)
	}
	return a.instruction(line)
}

func (a *asm) directive(line string) error {
	fields := strings.Fields(line)
	switch fields[0] {
	case ".class":
		if a.cls != nil {
			return fmt.Errorf(".class inside class %q (missing .end?)", a.cls.Name)
		}
		if len(fields) != 2 && !(len(fields) == 4 && fields[2] == "extends") {
			return fmt.Errorf("usage: .class Name [extends Super]")
		}
		c := &ClassDef{Name: fields[1]}
		if len(fields) == 4 {
			c.Super = fields[3]
		} else if c.Name != "java/lang/Object" {
			c.Super = "java/lang/Object"
		}
		a.cls = c
		return nil

	case ".field", ".static":
		if a.cls == nil || a.meth != nil {
			return fmt.Errorf("%s must appear inside a class, outside methods", fields[0])
		}
		if len(fields) != 3 {
			return fmt.Errorf("usage: %s name descriptor", fields[0])
		}
		if _, err := ParseDesc(fields[2]); err != nil {
			return err
		}
		a.cls.Fields = append(a.cls.Fields, FieldDef{
			Name: fields[1], Desc: fields[2], Static: fields[0] == ".static",
		})
		return nil

	case ".method":
		if a.cls == nil {
			return fmt.Errorf(".method outside class")
		}
		if a.meth != nil {
			return fmt.Errorf(".method inside method %q (missing .end?)", a.meth.Name)
		}
		if len(fields) < 3 || len(fields) > 5 {
			return fmt.Errorf("usage: .method name (sig)R [static] [native]")
		}
		var static, native bool
		for _, kw := range fields[3:] {
			switch kw {
			case "static":
				static = true
			case "native":
				native = true
			default:
				return fmt.Errorf("bad .method modifier %q", kw)
			}
		}
		m := NewMethodDef(a.cls.Name, fields[1], fields[2], static)
		if _, err := m.Signature(); err != nil {
			return err
		}
		a.meth = m
		a.meth.MaxStack, a.meth.MaxLocals = 16, 16
		if !native {
			a.meth.Code = &Code{}
		}
		a.labels = make(map[string]int)
		a.fixups = nil
		a.catches = nil
		return nil

	case ".locals", ".stack":
		if a.meth == nil {
			return fmt.Errorf("%s outside method", fields[0])
		}
		if len(fields) != 2 {
			return fmt.Errorf("usage: %s n", fields[0])
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n < 0 || n > 65535 {
			return fmt.Errorf("bad %s count %q", fields[0], fields[1])
		}
		if fields[0] == ".locals" {
			a.meth.MaxLocals = n
		} else {
			a.meth.MaxStack = n
		}
		return nil

	case ".catch":
		if a.meth == nil {
			return fmt.Errorf(".catch outside method")
		}
		if len(fields) != 5 {
			return fmt.Errorf("usage: .catch type startLabel endLabel handlerLabel (type '*' catches all)")
		}
		a.catches = append(a.catches, catchFix{
			typ: fields[1], start: fields[2], end: fields[3], handler: fields[4], line: a.line,
		})
		return nil

	case ".end":
		switch {
		case a.meth != nil:
			if err := a.finishMethod(); err != nil {
				return err
			}
			return nil
		case a.cls != nil:
			a.mod.Classes = append(a.mod.Classes, a.cls)
			a.cls = nil
			return nil
		default:
			return fmt.Errorf(".end with nothing open")
		}

	default:
		return fmt.Errorf("unknown directive %q", fields[0])
	}
}

func (a *asm) finishMethod() error {
	code := a.meth.Code
	if code == nil { // native method: no body to fix up
		a.cls.Methods = append(a.cls.Methods, a.meth)
		a.meth = nil
		return nil
	}
	for _, f := range a.fixups {
		pc, ok := a.labels[f.label]
		if !ok {
			return fmt.Errorf("line %d: undefined label %q", f.line, f.label)
		}
		code.Instrs[f.pc].A = int32(pc)
	}
	for _, c := range a.catches {
		start, ok := a.labels[c.start]
		if !ok {
			return fmt.Errorf("line %d: undefined label %q", c.line, c.start)
		}
		end, ok := a.labels[c.end]
		if !ok {
			return fmt.Errorf("line %d: undefined label %q", c.line, c.end)
		}
		h, ok := a.labels[c.handler]
		if !ok {
			return fmt.Errorf("line %d: undefined label %q", c.line, c.handler)
		}
		typ := c.typ
		if typ == "*" {
			typ = ""
		}
		code.Handlers = append(code.Handlers, Handler{Start: start, End: end, PC: h, Type: typ})
	}
	a.cls.Methods = append(a.cls.Methods, a.meth)
	a.meth = nil
	return nil
}

func (a *asm) instruction(line string) error {
	if a.meth == nil {
		return fmt.Errorf("instruction outside method: %q", line)
	}
	if a.meth.Code == nil {
		return fmt.Errorf("instruction in native method %q", a.meth.Name)
	}
	mnemonic, rest, _ := strings.Cut(line, " ")
	op, ok := OpByName(mnemonic)
	if !ok {
		return fmt.Errorf("unknown opcode %q", mnemonic)
	}
	rest = strings.TrimSpace(rest)
	code := a.meth.Code
	in := Instr{Op: op}
	switch ops[op].operand {
	case opndNone:
		if rest != "" {
			return fmt.Errorf("%s takes no operand", mnemonic)
		}
	case opndInt, opndLocal:
		n, err := strconv.ParseInt(rest, 0, 32)
		if err != nil {
			return fmt.Errorf("%s: bad operand %q", mnemonic, rest)
		}
		in.A = int32(n)
	case opndIinc:
		parts := strings.Fields(rest)
		if len(parts) != 2 {
			return fmt.Errorf("usage: iinc slot delta")
		}
		slot, err1 := strconv.ParseInt(parts[0], 0, 32)
		delta, err2 := strconv.ParseInt(parts[1], 0, 32)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("iinc: bad operands %q", rest)
		}
		in.A, in.B = int32(slot), int32(delta)
	case opndLabel:
		if rest == "" {
			return fmt.Errorf("%s needs a label", mnemonic)
		}
		a.fixups = append(a.fixups, fixup{pc: len(code.Instrs), label: rest, line: a.line})
	case opndPool:
		idx, err := a.poolOperand(op, rest, code)
		if err != nil {
			return err
		}
		in.A = int32(idx)
	}
	code.Instrs = append(code.Instrs, in)
	return nil
}

func (a *asm) poolOperand(op Op, rest string, code *Code) (int, error) {
	switch op {
	case LDC:
		return a.ldcOperand(rest, code)
	case NEW, INSTANCEOF, CHECKCAST, NEWARRAY:
		if rest == "" {
			return 0, fmt.Errorf("%s needs a class name", op.Name())
		}
		if op == NEWARRAY {
			if !strings.HasPrefix(rest, "[") {
				return 0, fmt.Errorf("newarray operand %q must be an array descriptor", rest)
			}
			if _, err := ParseDesc(rest); err != nil {
				return 0, err
			}
		}
		return code.AddConst(Const{Kind: KindClass, Class: rest}), nil
	case GETFIELD, PUTFIELD, GETSTATIC, PUTSTATIC:
		parts := strings.Fields(rest)
		if len(parts) != 2 {
			return 0, fmt.Errorf("usage: %s Class.field descriptor", op.Name())
		}
		cls, name, ok := strings.Cut(parts[0], ".")
		if !ok {
			return 0, fmt.Errorf("field ref %q missing '.'", parts[0])
		}
		if _, err := ParseDesc(parts[1]); err != nil {
			return 0, err
		}
		return code.AddConst(Const{Kind: KindField, Class: cls, Name: name, Sig: parts[1]}), nil
	case INVOKESTATIC, INVOKEVIRTUAL, INVOKESPECIAL:
		parts := strings.Fields(rest)
		if len(parts) != 2 {
			return 0, fmt.Errorf("usage: %s Class.method (sig)R", op.Name())
		}
		cls, name, ok := strings.Cut(parts[0], ".")
		if !ok {
			return 0, fmt.Errorf("method ref %q missing '.'", parts[0])
		}
		if _, err := ParseSig(parts[1]); err != nil {
			return 0, err
		}
		return code.AddConst(Const{Kind: KindMethod, Class: cls, Name: name, Sig: parts[1]}), nil
	}
	return 0, fmt.Errorf("internal: %s marked pool-operand", op.Name())
}

func (a *asm) ldcOperand(rest string, code *Code) (int, error) {
	switch {
	case rest == "":
		return 0, fmt.Errorf("ldc needs an operand")
	case rest[0] == '"':
		s, err := strconv.Unquote(rest)
		if err != nil {
			return 0, fmt.Errorf("ldc: bad string %s: %v", rest, err)
		}
		return code.AddConst(Const{Kind: KindString, S: s}), nil
	case strings.ContainsAny(rest, ".eE") && !strings.HasPrefix(rest, "0x"):
		d, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			return 0, fmt.Errorf("ldc: bad double %q", rest)
		}
		return code.AddConst(Const{Kind: KindDouble, D: d}), nil
	default:
		n, err := strconv.ParseInt(rest, 0, 64)
		if err != nil {
			return 0, fmt.Errorf("ldc: bad int %q", rest)
		}
		return code.AddConst(Const{Kind: KindInt, I: n}), nil
	}
}
