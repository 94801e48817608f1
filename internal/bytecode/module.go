package bytecode

import (
	"fmt"
	"strings"
	"sync"
)

// Module is a linkable unit: the output of the assembler and the input to a
// class loader. It is pure data — no runtime state — so one Module can be
// defined into any number of namespaces. A module must not be mutated
// after its first Hash, DefinitionOrder or VerifyModule call: all three
// are memoized (the shared code cache keys every load by the hash, every
// namespace that defines the module walks the same order, and
// verification is a property of the content, not of the namespace), so
// re-deriving them per process would dominate the starts they exist to
// make cheap.
type Module struct {
	Classes []*ClassDef

	hashOnce sync.Once
	hash     [32]byte

	orderOnce sync.Once
	order     []*ClassDef
	orderErr  error

	verifyOnce sync.Once
	verifyErr  error
}

// ClassDef describes one class symbolically.
type ClassDef struct {
	Name    string
	Super   string // "" only for the root class java/lang/Object
	Fields  []FieldDef
	Methods []*MethodDef
}

// FieldDef describes one field. Desc is a type descriptor (see ParseDesc).
type FieldDef struct {
	Name   string
	Desc   string
	Static bool
}

// MethodDef describes one method body. Name and Sig must not change
// once the definition is built: a definition made by NewMethodDef (every
// assembled or builder-made one) carries its keys precomputed, so every
// namespace that defines it shares the same two strings.
type MethodDef struct {
	Name      string
	Sig       string // e.g. "(ILjava/lang/String;)V"
	Static    bool
	MaxStack  int
	MaxLocals int
	Code      *Code

	class, key, nativeKey string
	sig                   *Sig
}

// NewMethodDef returns the definition of method name with signature sig
// in class, its keys and parsed signature computed once.
func NewMethodDef(class, name, sig string, static bool) *MethodDef {
	m := &MethodDef{
		Name: name, Sig: sig, Static: static,
		class: class, key: name + sig, nativeKey: NativeKey(class, name, sig),
	}
	if s, err := ParseSig(sig); err == nil {
		m.sig = &s
	}
	return m
}

// Signature returns m's parsed signature. Callers must not modify it.
func (m *MethodDef) Signature() (Sig, error) {
	if m.sig != nil {
		return *m.sig, nil
	}
	return ParseSig(m.Sig)
}

// Key returns the name+signature key that identifies a method within its
// class for resolution and overriding.
func (m *MethodDef) Key() string {
	if m.key != "" {
		return m.key
	}
	return m.Name + m.Sig
}

// NativeKey returns the key a native implementation of m, declared in
// class, is registered under.
func (m *MethodDef) NativeKey(class string) string {
	if m.nativeKey != "" && m.class == class {
		return m.nativeKey
	}
	return NativeKey(class, m.Name, m.Sig)
}

// NativeKey is the registration key for a native method implementation.
func NativeKey(class, name, sig string) string {
	return class + "." + name + sig
}

// Class looks up a class definition by name.
func (m *Module) Class(name string) (*ClassDef, bool) {
	for _, c := range m.Classes {
		if c.Name == name {
			return c, true
		}
	}
	return nil, false
}

// DefinitionOrder returns m's classes ordered so that every superclass
// defined in m precedes its subclasses (supers outside m resolve through
// the loading namespace). It is computed once per module.
func (m *Module) DefinitionOrder() ([]*ClassDef, error) {
	m.orderOnce.Do(func() { m.order, m.orderErr = m.topoOrder() })
	return m.order, m.orderErr
}

func (m *Module) topoOrder() ([]*ClassDef, error) {
	inModule := make(map[string]*ClassDef, len(m.Classes))
	for _, c := range m.Classes {
		inModule[c.Name] = c
	}
	out := make([]*ClassDef, 0, len(m.Classes))
	state := make(map[string]int, len(m.Classes)) // 0 unvisited, 1 visiting, 2 done
	var visit func(c *ClassDef) error
	visit = func(c *ClassDef) error {
		switch state[c.Name] {
		case 1:
			return fmt.Errorf("bytecode: inheritance cycle through %q", c.Name)
		case 2:
			return nil
		}
		state[c.Name] = 1
		if sup, ok := inModule[c.Super]; ok {
			if err := visit(sup); err != nil {
				return err
			}
		}
		state[c.Name] = 2
		out = append(out, c)
		return nil
	}
	for _, c := range m.Classes {
		if err := visit(c); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Merge appends the classes of other into m, rejecting duplicates.
func (m *Module) Merge(other *Module) error {
	for _, c := range other.Classes {
		if _, dup := m.Class(c.Name); dup {
			return fmt.Errorf("bytecode: duplicate class %q in merge", c.Name)
		}
		m.Classes = append(m.Classes, c)
	}
	return nil
}

// Desc kinds. A descriptor is one of:
//
//	Z B C S I J F D    primitive kinds (sizes differ for accounting)
//	Lsome/Class;       reference
//	[<desc>            array
type DescKind uint8

const (
	DescBool DescKind = iota
	DescByte
	DescChar
	DescShort
	DescInt
	DescLong
	DescFloat
	DescDouble
	DescRef
	DescArray
)

// Desc is a parsed type descriptor.
type Desc struct {
	Kind      DescKind
	ClassName string // DescRef: the class; DescArray: the array class name (with leading '[')
	Elem      string // DescArray: element descriptor
}

// Ref reports whether the descriptor denotes a reference (object or array).
func (d Desc) Ref() bool { return d.Kind == DescRef || d.Kind == DescArray }

// ByteSize reports the memory accounting size of one value of this
// descriptor, mirroring Java field sizes (references are 8 bytes on our
// simulated 64-bit layout).
func (d Desc) ByteSize() int {
	switch d.Kind {
	case DescBool, DescByte:
		return 1
	case DescChar, DescShort:
		return 2
	case DescInt, DescFloat:
		return 4
	default:
		return 8
	}
}

// ParseDesc parses a single type descriptor.
func ParseDesc(s string) (Desc, error) {
	d, rest, err := parseDesc(s)
	if err != nil {
		return Desc{}, err
	}
	if rest != "" {
		return Desc{}, fmt.Errorf("bytecode: trailing garbage %q in descriptor %q", rest, s)
	}
	return d, nil
}

func parseDesc(s string) (Desc, string, error) {
	if s == "" {
		return Desc{}, "", fmt.Errorf("bytecode: empty descriptor")
	}
	switch s[0] {
	case 'Z':
		return Desc{Kind: DescBool}, s[1:], nil
	case 'B':
		return Desc{Kind: DescByte}, s[1:], nil
	case 'C':
		return Desc{Kind: DescChar}, s[1:], nil
	case 'S':
		return Desc{Kind: DescShort}, s[1:], nil
	case 'I':
		return Desc{Kind: DescInt}, s[1:], nil
	case 'J':
		return Desc{Kind: DescLong}, s[1:], nil
	case 'F':
		return Desc{Kind: DescFloat}, s[1:], nil
	case 'D':
		return Desc{Kind: DescDouble}, s[1:], nil
	case 'L':
		i := strings.IndexByte(s, ';')
		if i < 0 {
			return Desc{}, "", fmt.Errorf("bytecode: unterminated class descriptor %q", s)
		}
		name := s[1:i]
		if name == "" {
			return Desc{}, "", fmt.Errorf("bytecode: empty class name in descriptor %q", s)
		}
		return Desc{Kind: DescRef, ClassName: name}, s[i+1:], nil
	case '[':
		elem, rest, err := parseDesc(s[1:])
		if err != nil {
			return Desc{}, "", err
		}
		consumed := s[:len(s)-len(rest)]
		_ = elem
		return Desc{Kind: DescArray, ClassName: consumed, Elem: consumed[1:]}, rest, nil
	}
	return Desc{}, "", fmt.Errorf("bytecode: bad descriptor %q", s)
}

// Sig is a parsed method signature.
type Sig struct {
	Args []Desc
	Ret  *Desc // nil for void
}

// Slots reports the number of argument slots (each arg is one slot; we do
// not split longs/doubles across two slots as the JVM does).
func (s Sig) Slots() int { return len(s.Args) }

// ParseSig parses a method signature like "(ILjava/lang/String;)V".
func ParseSig(s string) (Sig, error) {
	if s == "" || s[0] != '(' {
		return Sig{}, fmt.Errorf("bytecode: signature %q does not start with '('", s)
	}
	rest := s[1:]
	var sig Sig
	for rest != "" && rest[0] != ')' {
		d, r, err := parseDesc(rest)
		if err != nil {
			return Sig{}, fmt.Errorf("bytecode: signature %q: %w", s, err)
		}
		sig.Args = append(sig.Args, d)
		rest = r
	}
	if rest == "" {
		return Sig{}, fmt.Errorf("bytecode: signature %q missing ')'", s)
	}
	rest = rest[1:]
	if rest == "V" {
		return sig, nil
	}
	d, err := ParseDesc(rest)
	if err != nil {
		return Sig{}, fmt.Errorf("bytecode: signature %q return: %w", s, err)
	}
	sig.Ret = &d
	return sig, nil
}
