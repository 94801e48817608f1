package object

import (
	"fmt"

	"repro/internal/bytecode"
)

// ModuleBuilder assembles a bytecode.Module plus a table of native method
// implementations, for library code defined from Go (the mini class
// library, test fixtures, workload scaffolding).
type ModuleBuilder struct {
	Module  *bytecode.Module
	Natives map[string]any
	// Kernel lists native keys whose methods must run in kernel mode.
	Kernel map[string]bool
}

// NewModuleBuilder returns an empty builder.
func NewModuleBuilder() *ModuleBuilder {
	return &ModuleBuilder{
		Module:  &bytecode.Module{},
		Natives: make(map[string]any),
		Kernel:  make(map[string]bool),
	}
}

// Class starts a class definition.
func (b *ModuleBuilder) Class(name, super string) *ClassBuilder {
	if _, dup := b.Module.Class(name); dup {
		panic(fmt.Sprintf("object: duplicate class %q in builder", name))
	}
	def := &bytecode.ClassDef{Name: name, Super: super}
	b.Module.Classes = append(b.Module.Classes, def)
	return &ClassBuilder{b: b, def: def}
}

// ClassBuilder accumulates one class.
type ClassBuilder struct {
	b   *ModuleBuilder
	def *bytecode.ClassDef
}

// Field adds an instance field.
func (cb *ClassBuilder) Field(name, desc string) *ClassBuilder {
	return cb.field(name, desc, false)
}

// StaticField adds a static field.
func (cb *ClassBuilder) StaticField(name, desc string) *ClassBuilder {
	return cb.field(name, desc, true)
}

func (cb *ClassBuilder) field(name, desc string, static bool) *ClassBuilder {
	if _, err := bytecode.ParseDesc(desc); err != nil {
		panic(fmt.Sprintf("object: class %s field %s: %v", cb.def.Name, name, err))
	}
	cb.def.Fields = append(cb.def.Fields, bytecode.FieldDef{Name: name, Desc: desc, Static: static})
	return cb
}

// Native adds a native method implemented by fn (the execution engine
// defines the concrete function type).
func (cb *ClassBuilder) Native(name, sig string, static bool, fn any) *ClassBuilder {
	md := bytecode.NewMethodDef(cb.def.Name, name, sig, static)
	if _, err := md.Signature(); err != nil {
		panic(fmt.Sprintf("object: class %s native %s: %v", cb.def.Name, name, err))
	}
	cb.def.Methods = append(cb.def.Methods, md)
	cb.b.Natives[md.NativeKey(cb.def.Name)] = fn
	return cb
}

// KernelNative adds a native method that runs in kernel mode.
func (cb *ClassBuilder) KernelNative(name, sig string, static bool, fn any) *ClassBuilder {
	cb.Native(name, sig, static, fn)
	cb.b.Kernel[bytecode.NativeKey(cb.def.Name, name, sig)] = true
	return cb
}

// Method adds a bytecode method whose body is given in assembler syntax
// (instructions and .catch/.locals/.stack directives only).
func (cb *ClassBuilder) Method(name, sig string, static bool, body string) *ClassBuilder {
	kw := ""
	if static {
		kw = " static"
	}
	src := ".class " + cb.def.Name + "\n.method " + name + " " + sig + kw + "\n" + body + "\n.end\n.end\n"
	m, err := bytecode.Assemble(src)
	if err != nil {
		panic(fmt.Sprintf("object: class %s method %s: %v", cb.def.Name, name, err))
	}
	c, _ := m.Class(cb.def.Name)
	cb.def.Methods = append(cb.def.Methods, c.Methods[0])
	return cb
}

// DefaultInit adds the canonical no-argument constructor that just calls
// the superclass constructor.
func (cb *ClassBuilder) DefaultInit() *ClassBuilder {
	super := cb.def.Super
	if super == "" {
		return cb.Method("<init>", "()V", false, "\t.locals 1\n\t.stack 1\n\treturn")
	}
	return cb.Method("<init>", "()V", false,
		"\t.locals 1\n\t.stack 1\n\taload 0\n\tinvokespecial "+super+".<init> ()V\n\treturn")
}
