// Package object defines the kvm runtime object model: classes, fields,
// methods and heap objects.
//
// Runtime classes are created by a class loader from the symbolic
// bytecode.Module form. Two loads of the same ClassDef by different loaders
// yield *different* runtime classes ("reloaded classes", §3.2 of the
// paper), each with its own statics; classes loaded by the shared loader
// exist once and are visible to every process.
package object

import (
	"fmt"
	"sync/atomic"

	"repro/internal/bytecode"
	"repro/internal/vmaddr"
)

// Class is a runtime class in one namespace.
type Class struct {
	Name  string
	Super *Class
	// LoaderTag identifies the namespace (loader) that defined the class,
	// for diagnostics and sharing checks.
	LoaderTag string
	// Shared marks classes defined by the shared system loader: one copy of
	// text and statics serves every process (§3.2: ~72% of library classes).
	Shared bool

	// Instance field layout, including inherited slots.
	Fields      []*Field // declared instance fields only
	NumRefSlots int      // total instance ref slots incl. super
	NumPrimSlot int      // total instance prim slots incl. super
	// InstanceBytes is the accounted size of one instance, excluding any
	// barrier-dependent header padding (the heap adds that at allocation).
	InstanceBytes uint64

	// Statics. The static fields live in a synthetic statics object so that
	// they are heap-allocated, accounted, traced by GC, and covered by the
	// write barrier like any other object.
	StaticFields []*Field
	StaticsClass *Class  // synthetic layout class for the statics object
	Statics      *Object // allocated by the loader; nil until then

	Methods []*Method
	VTable  []*Method

	// Arrays.
	IsArray   bool
	ElemDesc  bytecode.Desc // valid when IsArray
	ElemClass *Class        // element class for ref arrays (covariance checks)
	ElemBytes int           // accounted bytes per element

	fieldsByName map[string]*Field  // instance fields incl. inherited
	staticByName map[string]*Field  // static fields declared here
	methodByKey  map[string]*Method // declared methods by name+sig
}

// Field describes one field of a class.
type Field struct {
	Name    string
	Class   *Class // declaring class
	Desc    bytecode.Desc
	DescStr string
	Static  bool
	Ref     bool
	Slot    int // index into Refs or Prims of the (statics) object
}

// Method describes one method of a class.
type Method struct {
	Name   string
	Sig    string
	Class  *Class
	Static bool
	// Kernel marks methods that execute in kernel mode: the thread cannot
	// be terminated while inside and preemption is deferred (paper §2,
	// "safe termination").
	Kernel bool

	// Exactly one of Code and Native is set. Native's concrete type is
	// defined by the execution engine (see interp.NativeFunc).
	Code   *bytecode.Code
	Native any

	MaxStack  int
	MaxLocals int
	NArgs     int  // argument slots, excluding receiver
	HasRet    bool // returns a value
	RetRef    bool // returned value is a reference

	// VIndex is the vtable index for virtual dispatch, or -1 for static
	// methods, constructors, and other specials.
	VIndex int

	// Links mirrors Code.Consts with loader-resolved entries.
	Links []Linked
	// HandlerClasses mirrors Code.Handlers with the resolved catch types
	// (nil for catch-all handlers).
	HandlerClasses []*Class

	// Compiled is the optimizing engine's compiled body, published once
	// and read without a lock; its concrete type belongs to the engine.
	Compiled atomic.Value
	// Ctor caches the optimizing engine's analysis of the method as a
	// trivial constructor, worked out once from this method's own Links
	// (0 until then); its encoding belongs to the engine.
	Ctor atomic.Int64

	// key is the definition's name+sig key, shared with every other
	// namespace that defines the same MethodDef.
	key string
}

// Linked is the resolved form of one constant pool entry.
type Linked struct {
	Class  *Class
	Field  *Field
	Method *Method
}

// Key returns the name+sig resolution key of m.
func (m *Method) Key() string { return m.key }

// IsSpecial reports whether the method never participates in virtual
// dispatch (constructors and class initializers).
func (m *Method) IsSpecial() bool {
	return len(m.Name) > 0 && m.Name[0] == '<'
}

func (m *Method) String() string {
	return fmt.Sprintf("%s.%s%s", m.Class.Name, m.Name, m.Sig)
}

// FieldByName resolves an instance field, searching superclasses.
func (c *Class) FieldByName(name string) (*Field, bool) {
	f, ok := c.fieldsByName[name]
	return f, ok
}

// StaticByName resolves a static field declared by c or a superclass.
func (c *Class) StaticByName(name string) (*Field, bool) {
	for k := c; k != nil; k = k.Super {
		if f, ok := k.staticByName[name]; ok {
			return f, true
		}
	}
	return nil, false
}

// MethodByKey resolves a method by name+sig, searching superclasses.
func (c *Class) MethodByKey(key string) (*Method, bool) {
	for k := c; k != nil; k = k.Super {
		if m, ok := k.methodByKey[key]; ok {
			return m, true
		}
	}
	return nil, false
}

// DeclaredMethod resolves a method declared directly by c.
func (c *Class) DeclaredMethod(key string) (*Method, bool) {
	m, ok := c.methodByKey[key]
	return m, ok
}

// IsSubclassOf reports whether c is k or a subclass of k.
func (c *Class) IsSubclassOf(k *Class) bool {
	for x := c; x != nil; x = x.Super {
		if x == k {
			return true
		}
	}
	return false
}

// AssignableFrom reports whether a value of class v can be stored where a
// value of class c is expected. Arrays are assignable if their element
// classes are assignable (covariance, checked at store time like Java) or
// if c is the root class.
func (c *Class) AssignableFrom(v *Class) bool {
	if v == nil {
		return true // null is assignable everywhere
	}
	if c.IsArray && v.IsArray {
		if c.ElemDesc.Ref() && v.ElemDesc.Ref() && c.ElemClass != nil && v.ElemClass != nil {
			return c.ElemClass.AssignableFrom(v.ElemClass)
		}
		return c.ElemDesc == v.ElemDesc
	}
	return v.IsSubclassOf(c)
}

func (c *Class) String() string { return c.Name }

// headerBytes is the accounted base object header: a class word and a
// lock/hash/flags word, as in Kaffe.
const headerBytes = 8

// NewClass links a ClassDef against resolved super and returns the runtime
// class, without methods linked (the loader wires methods and constant
// pools; see Link* helpers). loaderTag names the namespace.
func NewClass(def *bytecode.ClassDef, super *Class, loaderTag string, shared bool) (*Class, error) {
	c := &Class{
		Name:        def.Name,
		Super:       super,
		LoaderTag:   loaderTag,
		Shared:      shared,
		Methods:     make([]*Method, 0, len(def.Methods)),
		methodByKey: make(map[string]*Method, len(def.Methods)),
	}
	instance, static := 0, 0
	for i := range def.Fields {
		if def.Fields[i].Static {
			static++
		} else {
			instance++
		}
	}
	if static > 0 {
		c.staticByName = make(map[string]*Field, static)
	}
	refSlots, primSlots := 0, 0
	var bytes uint64 = headerBytes
	if super != nil {
		refSlots = super.NumRefSlots
		primSlots = super.NumPrimSlot
		bytes = super.InstanceBytes
	}
	// The name index is read-only once built, so a class that declares no
	// instance field shares its super's.
	if super != nil {
		c.fieldsByName = super.fieldsByName
	}
	if instance > 0 {
		inherited := c.fieldsByName
		c.fieldsByName = make(map[string]*Field, len(inherited)+instance)
		for name, f := range inherited {
			c.fieldsByName[name] = f
		}
	}
	staticRef, staticPrim := 0, 0
	var staticBytes uint64 = headerBytes
	for i := range def.Fields {
		fd := &def.Fields[i]
		d, err := bytecode.ParseDesc(fd.Desc)
		if err != nil {
			return nil, fmt.Errorf("class %s field %s: %w", def.Name, fd.Name, err)
		}
		f := &Field{
			Name: fd.Name, Class: c, Desc: d, DescStr: fd.Desc,
			Static: fd.Static, Ref: d.Ref(),
		}
		if fd.Static {
			if f.Ref {
				f.Slot = staticRef
				staticRef++
			} else {
				f.Slot = staticPrim
				staticPrim++
			}
			staticBytes += uint64(d.ByteSize())
			c.StaticFields = append(c.StaticFields, f)
			c.staticByName[f.Name] = f
		} else {
			if f.Ref {
				f.Slot = refSlots
				refSlots++
			} else {
				f.Slot = primSlots
				primSlots++
			}
			bytes += uint64(d.ByteSize())
			c.Fields = append(c.Fields, f)
			if _, dup := c.fieldsByName[f.Name]; dup {
				return nil, fmt.Errorf("class %s: field %s shadows an inherited field", def.Name, f.Name)
			}
			c.fieldsByName[f.Name] = f
		}
	}
	c.NumRefSlots = refSlots
	c.NumPrimSlot = primSlots
	c.InstanceBytes = align8(bytes)
	if len(c.StaticFields) > 0 {
		c.StaticsClass = &Class{
			Name:          def.Name + "$statics",
			LoaderTag:     loaderTag,
			Shared:        shared,
			NumRefSlots:   staticRef,
			NumPrimSlot:   staticPrim,
			InstanceBytes: align8(staticBytes),
		}
	}
	return c, nil
}

// AddMethod attaches a runtime method created from def. The loader calls
// this for every MethodDef (and for natives registered against the class).
func (c *Class) AddMethod(def *bytecode.MethodDef, native any) (*Method, error) {
	sig, err := def.Signature()
	if err != nil {
		return nil, fmt.Errorf("class %s method %s: %w", c.Name, def.Name, err)
	}
	m := &Method{
		Name: def.Name, Sig: def.Sig, Class: c, Static: def.Static,
		MaxStack: def.MaxStack, MaxLocals: def.MaxLocals,
		NArgs: sig.Slots(), VIndex: -1,
		Native: native,
		key:    def.Key(),
	}
	if sig.Ret != nil {
		m.HasRet = true
		m.RetRef = sig.Ret.Ref()
	}
	if native == nil {
		m.Code = def.Code
	}
	if _, dup := c.methodByKey[m.Key()]; dup {
		return nil, fmt.Errorf("class %s: duplicate method %s", c.Name, m.Key())
	}
	c.methodByKey[m.Key()] = m
	c.Methods = append(c.Methods, m)
	return m, nil
}

// BuildVTable computes c's vtable from its superclass's. Must be called
// after all methods are added and after the super's vtable is built. A
// virtual method overrides the nearest inherited declaration of its key,
// found through the super chain's method maps, and takes its slot.
func (c *Class) BuildVTable() {
	if c.Super != nil {
		c.VTable = append(c.VTable, c.Super.VTable...)
	}
	for _, m := range c.Methods {
		if m.Static || m.IsSpecial() {
			continue
		}
		if c.Super != nil {
			if sm, ok := c.Super.MethodByKey(m.Key()); ok && sm.VIndex >= 0 {
				c.VTable[sm.VIndex] = m
				m.VIndex = sm.VIndex
				continue
			}
		}
		m.VIndex = len(c.VTable)
		c.VTable = append(c.VTable, m)
	}
}

// NewArrayClass creates the runtime class for an array type. name is the
// full descriptor (e.g. "[I", "[Ljava/lang/String;"); root is the
// namespace's java/lang/Object; elemClass is non-nil for ref arrays.
func NewArrayClass(name string, elem bytecode.Desc, elemClass *Class, root *Class, loaderTag string) *Class {
	return &Class{
		Name:          name,
		Super:         root,
		LoaderTag:     loaderTag,
		IsArray:       true,
		ElemDesc:      elem,
		ElemClass:     elemClass,
		ElemBytes:     elem.ByteSize(),
		InstanceBytes: headerBytes + 8, // header + length word
		VTable:        root.VTable,
	}
}

// ArraySizeBytes reports the accounted size of an array instance of n
// elements, excluding barrier-dependent header padding.
func (c *Class) ArraySizeBytes(n int) uint64 {
	return align8(c.InstanceBytes + uint64(n)*uint64(c.ElemBytes))
}

func align8(n uint64) uint64 { return (n + 7) &^ 7 }

// Sanity re-exports for other packages.
var _ = vmaddr.NoHeap
