// Package loader implements kvm class loaders and namespaces.
//
// Separate namespaces are provided through class loaders, exactly as in
// Java (paper §3.1): a class loader is a name server for classes. Each
// KaffeOS process has its own loader; loaders delegate the loading of
// shared classes to a single shared system loader, so all shared objects
// have well-understood types for all user processes.
//
// Classes from identical definitions loaded by different process loaders
// are *different* runtime classes ("reloaded classes", §3.2), each with its
// own statics and its own copy of the code — reloaded classes do not share
// text. Shared classes exist once; their statics live on the kernel heap
// and their text is shared by every process.
package loader

import (
	"fmt"
	"sort"

	"repro/internal/bytecode"
	"repro/internal/heap"
	"repro/internal/object"
)

// Loader is one namespace.
type Loader struct {
	Tag string
	// Delegate is consulted first for every lookup (the shared system
	// loader); nil for the shared loader itself.
	Delegate *Loader
	// Heap receives statics objects and other class metadata allocations.
	Heap *Heap

	classes map[string]*object.Class
	// natives are the registered native tables, read in place: the class
	// library's tables are built once per host process and every shared
	// loader reads the same maps.
	natives []nativeTable

	// clinits are <clinit> methods awaiting execution by the VM layer
	// (the loader cannot run bytecode itself).
	clinits []*object.Method
}

// Heap aliases heap.Heap to keep the public field name short.
type Heap = heap.Heap

// nativeTable is one RegisterNatives call: implementations by native key
// and the keys that run in kernel mode.
type nativeTable struct {
	impls  map[string]any
	kernel map[string]bool
}

// NewShared creates the shared system loader, whose metadata lives on the
// kernel heap.
func NewShared(kernelHeap *heap.Heap) *Loader {
	return &Loader{
		Tag:     "shared",
		Heap:    kernelHeap,
		classes: make(map[string]*object.Class),
	}
}

// NewProcess creates a process loader delegating to shared. Statics of
// reloaded classes are charged to the process heap h.
func NewProcess(tag string, h *heap.Heap, shared *Loader) *Loader {
	return &Loader{
		Tag:      tag,
		Delegate: shared,
		Heap:     h,
		classes:  make(map[string]*object.Class),
	}
}

// RegisterNatives makes native implementations available to classes defined
// later. kernelKeys marks natives that run in kernel mode. The maps are
// read in place, not copied, so they must not change afterwards; a key
// registered again overrides the earlier implementation.
func (l *Loader) RegisterNatives(impls map[string]any, kernelKeys map[string]bool) {
	l.natives = append(l.natives, nativeTable{impls, kernelKeys})
}

// native resolves the implementation registered for key in this loader,
// falling back to the shared loader's (library code reloaded per process
// uses the natives registered there), and whether either marks it kernel
// mode.
func (l *Loader) native(key string) (impl any, kernel bool) {
	for d := l; d != nil; d = d.Delegate {
		for i := len(d.natives) - 1; i >= 0; i-- {
			t := d.natives[i]
			if impl == nil {
				impl = t.impls[key]
			}
			kernel = kernel || t.kernel[key]
		}
	}
	return impl, kernel
}

// Class resolves a class by name, delegating to the shared loader first
// (so a process cannot shadow a shared class), then checking this
// namespace, then synthesizing array classes on demand.
func (l *Loader) Class(name string) (*object.Class, error) {
	if c, ok := l.lookup(name); ok {
		return c, nil
	}
	if len(name) > 0 && name[0] == '[' {
		// Re-run synthesis for the detailed error.
		return l.arrayClass(name)
	}
	return nil, fmt.Errorf("loader %s: class %q not found", l.Tag, name)
}

// lookup resolves name without allocating a not-found error. Every link
// of a process-local class misses the delegate first, so the miss path
// runs once per symbolic reference per define — it must not pay for
// error formatting nobody reads.
func (l *Loader) lookup(name string) (*object.Class, bool) {
	if l.Delegate != nil {
		if c, ok := l.Delegate.lookup(name); ok {
			return c, true
		}
	}
	if c, ok := l.classes[name]; ok {
		return c, true
	}
	if len(name) > 0 && name[0] == '[' {
		if c, err := l.arrayClass(name); err == nil {
			return c, true
		}
	}
	return nil, false
}

// Defined reports whether name is defined in this namespace directly.
func (l *Loader) Defined(name string) bool {
	_, ok := l.classes[name]
	return ok
}

// Classes returns this namespace's directly defined classes, sorted by name.
func (l *Loader) Classes() []*object.Class {
	out := make([]*object.Class, 0, len(l.classes))
	for _, c := range l.classes {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (l *Loader) arrayClass(name string) (*object.Class, error) {
	desc, err := bytecode.ParseDesc(name)
	if err != nil || desc.Kind != bytecode.DescArray {
		return nil, fmt.Errorf("loader %s: bad array class %q", l.Tag, name)
	}
	elem, err := bytecode.ParseDesc(desc.Elem)
	if err != nil {
		return nil, err
	}
	var elemClass *object.Class
	switch elem.Kind {
	case bytecode.DescRef:
		elemClass, err = l.Class(elem.ClassName)
	case bytecode.DescArray:
		elemClass, err = l.Class(desc.Elem)
	}
	if err != nil {
		return nil, err
	}
	root, err := l.Class("java/lang/Object")
	if err != nil {
		return nil, fmt.Errorf("loader %s: array class before java/lang/Object: %w", l.Tag, err)
	}
	elemDesc, _ := bytecode.ParseDesc(desc.Elem)
	c := object.NewArrayClass(name, elemDesc, elemClass, root, l.Tag)
	l.classes[name] = c
	return c, nil
}

// DefineModule verifies and defines every class in m into this namespace,
// linking constant pools and building vtables. Process loaders clone
// method code (reloaded classes do not share text). Verification is
// memoized per module (bytecode.VerifyModule), so only the first define
// of a module in the host process runs the verifier.
func (l *Loader) DefineModule(m *bytecode.Module) error {
	return l.define(m, true, false)
}

// DefinePreverified is DefineModule without consulting the verifier's
// verdict at all. No load path uses it; it stays for the benchmark
// probes, which time it beside DefineModule.
func (l *Loader) DefinePreverified(m *bytecode.Module) error {
	return l.define(m, true, true)
}

// DefineTemplate defines m's classes for a process forked from a process
// template. The module was verified when the template's origin loaded it,
// the origin already ran its <clinit>s (their effects arrive through the
// statics objects copied out of the template heap), and the statics
// objects themselves are bound by the fork after the heap copy — so
// verification, statics allocation, and clinit queueing are all skipped.
// Until the fork binds Statics, the namespace's classes must not execute.
func (l *Loader) DefineTemplate(m *bytecode.Module) error {
	return l.define(m, false, true)
}

func (l *Loader) define(m *bytecode.Module, fresh, preverified bool) error {
	if fresh && !preverified {
		if err := bytecode.VerifyModule(m); err != nil {
			return fmt.Errorf("loader %s: %w", l.Tag, err)
		}
	}
	defs, err := m.DefinitionOrder()
	if err != nil {
		return fmt.Errorf("loader %s: %w", l.Tag, err)
	}
	shared := l.Delegate == nil
	var created []*object.Class
	for _, def := range defs {
		if _, dup := l.classes[def.Name]; dup {
			return fmt.Errorf("loader %s: class %q already defined", l.Tag, def.Name)
		}
		if l.Delegate != nil && l.Delegate.Defined(def.Name) {
			return fmt.Errorf("loader %s: class %q would shadow a shared class", l.Tag, def.Name)
		}
		var super *object.Class
		if def.Super != "" {
			super, err = l.Class(def.Super)
			if err != nil {
				return fmt.Errorf("loader %s: class %q: super: %w", l.Tag, def.Name, err)
			}
		}
		c, err := object.NewClass(def, super, l.Tag, shared)
		if err != nil {
			return fmt.Errorf("loader %s: %w", l.Tag, err)
		}
		for _, md := range def.Methods {
			// A native implementation binds only to a method declared
			// without code.
			var native any
			var kernel bool
			if md.Code == nil {
				key := md.NativeKey(def.Name)
				if native, kernel = l.native(key); native == nil {
					return fmt.Errorf("loader %s: method %s has no code and no native", l.Tag, key)
				}
			}
			meth, err := c.AddMethod(md, native)
			if err != nil {
				return fmt.Errorf("loader %s: %w", l.Tag, err)
			}
			meth.Kernel = kernel
			if !shared && md.Code != nil {
				meth.Code = md.Code.Clone()
			}
		}
		c.BuildVTable()
		l.classes[def.Name] = c
		created = append(created, c)
	}
	// Link after all classes of the module exist (mutual references).
	for _, c := range created {
		if err := l.linkClass(c); err != nil {
			return err
		}
	}
	if !fresh {
		return nil
	}
	// Allocate statics and queue <clinit>s.
	for _, c := range created {
		if c.StaticsClass != nil {
			st, err := l.Heap.Alloc(c.StaticsClass)
			if err != nil {
				return fmt.Errorf("loader %s: statics of %s: %w", l.Tag, c.Name, err)
			}
			c.Statics = st
		}
		if m, ok := c.DeclaredMethod("<clinit>()V"); ok {
			l.clinits = append(l.clinits, m)
		}
	}
	return nil
}

// PendingClinits returns and clears the queue of class initializers the VM
// must run (in definition order) before the module's code is used.
func (l *Loader) PendingClinits() []*object.Method {
	out := l.clinits
	l.clinits = nil
	return out
}

// linkClass resolves every method's constant pool and handler types.
func (l *Loader) linkClass(c *object.Class) error {
	for _, meth := range c.Methods {
		if meth.Code == nil {
			continue
		}
		links := make([]object.Linked, len(meth.Code.Consts))
		for i := range meth.Code.Consts {
			k := &meth.Code.Consts[i]
			switch k.Kind {
			case bytecode.KindClass:
				cl, err := l.Class(k.Class)
				if err != nil {
					return fmt.Errorf("link %s: %w", meth, err)
				}
				links[i].Class = cl
			case bytecode.KindField:
				cl, err := l.Class(k.Class)
				if err != nil {
					return fmt.Errorf("link %s: %w", meth, err)
				}
				fl, ok := cl.FieldByName(k.Name)
				if !ok {
					fl, ok = cl.StaticByName(k.Name)
				}
				if !ok {
					return fmt.Errorf("link %s: no field %s.%s", meth, k.Class, k.Name)
				}
				links[i].Class = cl
				links[i].Field = fl
			case bytecode.KindMethod:
				cl, err := l.Class(k.Class)
				if err != nil {
					return fmt.Errorf("link %s: %w", meth, err)
				}
				mm, ok := cl.MethodByKey(k.Name + k.Sig)
				if !ok {
					return fmt.Errorf("link %s: no method %s.%s%s", meth, k.Class, k.Name, k.Sig)
				}
				links[i].Class = cl
				links[i].Method = mm
			}
		}
		meth.Links = links

		handlers := make([]*object.Class, len(meth.Code.Handlers))
		for i, h := range meth.Code.Handlers {
			if h.Type == "" {
				continue
			}
			cl, err := l.Class(h.Type)
			if err != nil {
				return fmt.Errorf("link %s: handler: %w", meth, err)
			}
			handlers[i] = cl
		}
		meth.HandlerClasses = handlers
	}
	return nil
}

// Unload drops every class defined by this namespace, so that a terminated
// process' class metadata becomes unreachable (KaffeOS added class
// unloading to Kaffe, §3.4). Statics objects die with the process heap.
func (l *Loader) Unload() {
	l.classes = make(map[string]*object.Class)
	l.clinits = nil
}

// StaticsRoots enumerates the statics objects of this namespace's classes,
// which are GC roots for the heap that holds them.
func (l *Loader) StaticsRoots(visit func(*object.Object)) {
	for _, c := range l.classes {
		if c.Statics != nil {
			visit(c.Statics)
		}
	}
}
