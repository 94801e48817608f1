package loader

import (
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/heap"
	"repro/internal/memlimit"
	"repro/internal/object"
	"repro/internal/vmaddr"
)

const baseLib = `
.class java/lang/Object
.method <init> ()V
.locals 1
.stack 1
	return
.end
.end
.class java/lang/String
.end
`

type world struct {
	reg    *heap.Registry
	kernel *heap.Heap
	user   *heap.Heap
	shared *Loader
}

func newWorld(t *testing.T) *world {
	t.Helper()
	space := vmaddr.NewSpace()
	reg := heap.NewRegistry(space, heap.Config{})
	root := memlimit.NewRoot("root", memlimit.Unlimited)
	w := &world{reg: reg}
	w.kernel = reg.NewHeap(heap.KindKernel, "kernel", root.MustChild("kernel", memlimit.Unlimited, false))
	w.user = reg.NewHeap(heap.KindUser, "user", root.MustChild("user", memlimit.Unlimited, false))
	w.shared = NewShared(w.kernel)
	if err := w.shared.DefineModule(bytecode.MustAssemble(baseLib)); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestSharedDefineAndLookup(t *testing.T) {
	w := newWorld(t)
	c, err := w.shared.Class("java/lang/Object")
	if err != nil {
		t.Fatal(err)
	}
	if !c.Shared || c.LoaderTag != "shared" {
		t.Errorf("class flags: shared=%v tag=%q", c.Shared, c.LoaderTag)
	}
	if _, err := w.shared.Class("no/Such"); err == nil {
		t.Error("lookup of missing class succeeded")
	}
}

func TestProcessDelegation(t *testing.T) {
	w := newWorld(t)
	p := NewProcess("p1", w.user, w.shared)
	c, err := p.Class("java/lang/Object")
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := w.shared.Class("java/lang/Object")
	if c != sc {
		t.Error("delegation returned a different class instance")
	}
}

func TestReloadedClassesAreDistinct(t *testing.T) {
	w := newWorld(t)
	mod := bytecode.MustAssemble(`
.class app/Counter
.static n I
.method bump ()I static
.locals 0
.stack 3
	getstatic app/Counter.n I
	iconst 1
	iadd
	putstatic app/Counter.n I
	getstatic app/Counter.n I
	ireturn
.end
.end`)
	p1 := NewProcess("p1", w.user, w.shared)
	p2 := NewProcess("p2", w.user, w.shared)
	if err := p1.DefineModule(mod); err != nil {
		t.Fatal(err)
	}
	if err := p2.DefineModule(mod); err != nil {
		t.Fatal(err)
	}
	c1, _ := p1.Class("app/Counter")
	c2, _ := p2.Class("app/Counter")
	if c1 == c2 {
		t.Fatal("reloaded classes are the same instance")
	}
	if c1.Statics == c2.Statics {
		t.Fatal("reloaded classes share statics")
	}
	m1, _ := c1.DeclaredMethod("bump()I")
	m2, _ := c2.DeclaredMethod("bump()I")
	if m1.Code == m2.Code {
		t.Fatal("reloaded classes share code (text must be copied)")
	}
	// The shared loader's single definition *would* share text.
	if err := w.shared.DefineModule(bytecode.MustAssemble(".class lib/Shared\n.end")); err != nil {
		t.Fatal(err)
	}
	s1, _ := p1.Class("lib/Shared")
	s2, _ := p2.Class("lib/Shared")
	if s1 != s2 {
		t.Fatal("shared class not shared")
	}
}

func TestShadowingSharedClassRejected(t *testing.T) {
	w := newWorld(t)
	p := NewProcess("p1", w.user, w.shared)
	err := p.DefineModule(bytecode.MustAssemble(".class java/lang/Object\n.end"))
	if err == nil || !strings.Contains(err.Error(), "shadow") {
		t.Fatalf("err = %v, want shadow rejection", err)
	}
}

func TestLinkedFieldAndMethodRefs(t *testing.T) {
	w := newWorld(t)
	p := NewProcess("p1", w.user, w.shared)
	err := p.DefineModule(bytecode.MustAssemble(`
.class app/A
.field v I
.static s I
.method get ()I
.locals 1
.stack 1
	aload 0
	getfield app/A.v I
	ireturn
.end
.method gets ()I static
.locals 0
.stack 1
	getstatic app/A.s I
	ireturn
.end
.end`))
	if err != nil {
		t.Fatal(err)
	}
	c, _ := p.Class("app/A")
	get, _ := c.DeclaredMethod("get()I")
	if len(get.Links) == 0 {
		t.Fatal("no links")
	}
	var sawField bool
	for _, l := range get.Links {
		if l.Field != nil {
			sawField = true
			if l.Field.Name != "v" || l.Field.Static {
				t.Errorf("linked field = %+v", l.Field)
			}
		}
	}
	if !sawField {
		t.Error("field ref not linked")
	}
	gets, _ := c.DeclaredMethod("gets()I")
	for _, l := range gets.Links {
		if l.Field != nil && !l.Field.Static {
			t.Error("static ref linked to instance field")
		}
	}
}

func TestLinkErrors(t *testing.T) {
	w := newWorld(t)
	cases := []struct{ name, src, wantSub string }{
		{"missing super", ".class a/B extends no/Super\n.end", "not found"},
		{"missing field", `.class a/B
.method m ()I static
.locals 0
.stack 1
	getstatic a/B.nope I
	ireturn
.end
.end`, "no field"},
		{"missing method", `.class a/B
.method m ()V static
.locals 0
.stack 1
	invokestatic a/B.nope ()V
	return
.end
.end`, "no method"},
		{"missing class ref", `.class a/B
.method m ()V static
.locals 1
.stack 1
	new x/Y
	pop
	return
.end
.end`, "not found"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := NewProcess("px", w.user, w.shared)
			err := p.DefineModule(bytecode.MustAssemble(c.src))
			if err == nil || !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("err = %v, want substring %q", err, c.wantSub)
			}
		})
	}
}

func TestInheritanceCycleRejected(t *testing.T) {
	w := newWorld(t)
	p := NewProcess("p1", w.user, w.shared)
	err := p.DefineModule(bytecode.MustAssemble(`
.class a/A extends a/B
.end
.class a/B extends a/A
.end`))
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("err = %v, want cycle", err)
	}
}

func TestTopoOrderWithinModule(t *testing.T) {
	w := newWorld(t)
	p := NewProcess("p1", w.user, w.shared)
	// Subclass listed before superclass.
	err := p.DefineModule(bytecode.MustAssemble(`
.class a/Sub extends a/Base
.end
.class a/Base
.end`))
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := p.Class("a/Sub")
	base, _ := p.Class("a/Base")
	if sub.Super != base {
		t.Error("super not resolved")
	}
}

func TestArrayClassesOnDemand(t *testing.T) {
	w := newWorld(t)
	p := NewProcess("p1", w.user, w.shared)
	ia, err := p.Class("[I")
	if err != nil {
		t.Fatal(err)
	}
	if !ia.IsArray || ia.ElemBytes != 4 {
		t.Errorf("array class = %+v", ia)
	}
	again, _ := p.Class("[I")
	if again != ia {
		t.Error("array class not cached")
	}
	oa, err := p.Class("[Ljava/lang/Object;")
	if err != nil {
		t.Fatal(err)
	}
	root, _ := p.Class("java/lang/Object")
	if oa.ElemClass != root {
		t.Error("ref array element class wrong")
	}
	aa, err := p.Class("[[I")
	if err != nil {
		t.Fatal(err)
	}
	inner, _ := p.Class("[I")
	if aa.ElemClass != inner {
		t.Error("nested array element class wrong")
	}
}

func TestStaticsAllocatedOnLoaderHeap(t *testing.T) {
	w := newWorld(t)
	p := NewProcess("p1", w.user, w.shared)
	if err := p.DefineModule(bytecode.MustAssemble(".class a/S\n.static x I\n.end")); err != nil {
		t.Fatal(err)
	}
	c, _ := p.Class("a/S")
	if c.Statics == nil {
		t.Fatal("no statics object")
	}
	if c.Statics.Heap != w.user.ID {
		t.Error("process statics not on process heap")
	}
	// Shared statics on kernel heap.
	if err := w.shared.DefineModule(bytecode.MustAssemble(".class lib/S\n.static x I\n.end")); err != nil {
		t.Fatal(err)
	}
	sc, _ := w.shared.Class("lib/S")
	if sc.Statics.Heap != w.kernel.ID {
		t.Error("shared statics not on kernel heap")
	}
}

func TestNativeRegistration(t *testing.T) {
	w := newWorld(t)
	p := NewProcess("p1", w.user, w.shared)
	fn := func() {}
	p.RegisterNatives(map[string]any{"a/N.go()V": fn}, map[string]bool{"a/N.go()V": true})
	if err := p.DefineModule(bytecode.MustAssemble(".class a/N\n.method go ()V static native\n.end\n.end")); err != nil {
		t.Fatal(err)
	}
	c, _ := p.Class("a/N")
	m, _ := c.DeclaredMethod("go()V")
	if m.Native == nil || !m.Kernel {
		t.Errorf("native = %v kernel = %v", m.Native, m.Kernel)
	}
	// A method without code or native is rejected.
	p2 := NewProcess("p2", w.user, w.shared)
	err := p2.DefineModule(bytecode.MustAssemble(".class a/M\n.method go ()V static native\n.end\n.end"))
	if err == nil || !strings.Contains(err.Error(), "no code and no native") {
		t.Fatalf("err = %v", err)
	}
}

func TestSharedNativesVisibleToProcessClasses(t *testing.T) {
	w := newWorld(t)
	fn := func() {}
	w.shared.RegisterNatives(map[string]any{"a/N.go()V": fn}, nil)
	p := NewProcess("p1", w.user, w.shared)
	if err := p.DefineModule(bytecode.MustAssemble(".class a/N\n.method go ()V static native\n.end\n.end")); err != nil {
		t.Fatal(err)
	}
	c, _ := p.Class("a/N")
	m, _ := c.DeclaredMethod("go()V")
	if m.Native == nil {
		t.Error("shared native not attached to reloaded class")
	}
}

func TestClinitQueued(t *testing.T) {
	w := newWorld(t)
	p := NewProcess("p1", w.user, w.shared)
	if err := p.DefineModule(bytecode.MustAssemble(`
.class a/C
.static x I
.method <clinit> ()V static
.locals 0
.stack 1
	iconst 42
	putstatic a/C.x I
	return
.end
.end`)); err != nil {
		t.Fatal(err)
	}
	cl := p.PendingClinits()
	if len(cl) != 1 || cl[0].Name != "<clinit>" {
		t.Fatalf("clinits = %v", cl)
	}
	if len(p.PendingClinits()) != 0 {
		t.Error("clinit queue not cleared")
	}
}

func TestHandlerClassesLinked(t *testing.T) {
	w := newWorld(t)
	if err := w.shared.DefineModule(bytecode.MustAssemble(`
.class java/lang/Throwable
.end`)); err != nil {
		t.Fatal(err)
	}
	p := NewProcess("p1", w.user, w.shared)
	if err := p.DefineModule(bytecode.MustAssemble(`
.class a/T
.method m ()V static
.locals 1
.stack 1
T0:	return
T1:	astore 0
	return
.catch java/lang/Throwable T0 T1 T1
.end
.end`)); err != nil {
		t.Fatal(err)
	}
	c, _ := p.Class("a/T")
	m, _ := c.DeclaredMethod("m()V")
	th, _ := p.Class("java/lang/Throwable")
	if len(m.HandlerClasses) != 1 || m.HandlerClasses[0] != th {
		t.Errorf("handler classes = %v", m.HandlerClasses)
	}
}

func TestUnload(t *testing.T) {
	w := newWorld(t)
	p := NewProcess("p1", w.user, w.shared)
	if err := p.DefineModule(bytecode.MustAssemble(".class a/C\n.static x I\n.end")); err != nil {
		t.Fatal(err)
	}
	var statics int
	p.StaticsRoots(func(o *object.Object) { statics++ })
	if statics != 1 {
		t.Fatalf("statics roots = %d", statics)
	}
	p.Unload()
	if p.Defined("a/C") {
		t.Error("class survived unload")
	}
	statics = 0
	p.StaticsRoots(func(o *object.Object) { statics++ })
	if statics != 0 {
		t.Error("statics roots survived unload")
	}
	// Shared classes still resolvable after a process unload.
	if _, err := p.Class("java/lang/Object"); err != nil {
		t.Error("delegation broken after unload")
	}
}

func TestClassesSorted(t *testing.T) {
	w := newWorld(t)
	p := NewProcess("p1", w.user, w.shared)
	if err := p.DefineModule(bytecode.MustAssemble(".class b/B\n.end\n.class a/A\n.end")); err != nil {
		t.Fatal(err)
	}
	cs := p.Classes()
	if len(cs) != 2 || cs[0].Name != "a/A" || cs[1].Name != "b/B" {
		t.Errorf("Classes() = %v", cs)
	}
}

func TestDuplicateDefineRejected(t *testing.T) {
	w := newWorld(t)
	p := NewProcess("p1", w.user, w.shared)
	mod := bytecode.MustAssemble(".class a/C\n.end")
	if err := p.DefineModule(mod); err != nil {
		t.Fatal(err)
	}
	if err := p.DefineModule(bytecode.MustAssemble(".class a/C\n.end")); err == nil {
		t.Error("duplicate definition accepted")
	}
}

// Verification is a property of a module's content and runs once per
// *Module: a second DefineModule of the same module, into a fresh
// namespace, runs no verifier, so it costs exactly the allocations
// DefinePreverified does, and a refused module is refused again.
func TestVerifyOncePerModule(t *testing.T) {
	const src = `
.class v/Sum
.method sum (I)I static
.locals 3
.stack 2
	iconst 0
	istore 1
	iconst 0
	istore 2
L0:	iload 2
	iload 0
	if_icmpge DONE
	iload 1
	iload 2
	iadd
	istore 1
	iinc 2 1
	goto L0
DONE:	iload 1
	ireturn
.end
.end`
	const runs = 20
	// The pin below is only as good as the verifier's own allocations:
	// verifying fresh copies of the module must allocate.
	fresh := make([]*bytecode.Module, runs+1)
	for i := range fresh {
		fresh[i] = bytecode.MustAssemble(src)
	}
	i := 0
	verify := testing.AllocsPerRun(runs, func() {
		if err := bytecode.VerifyModule(fresh[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if verify == 0 {
		t.Fatal("verifying a fresh module allocated nothing; the pin cannot see a verifier")
	}

	w := newWorld(t)
	m := fresh[0]
	define := func(def func(*Loader, *bytecode.Module) error) float64 {
		return testing.AllocsPerRun(runs, func() {
			if err := def(NewProcess("p", w.user, w.shared), m); err != nil {
				t.Fatal(err)
			}
		})
	}
	again, preverified := define((*Loader).DefineModule), define((*Loader).DefinePreverified)
	t.Logf("verify %v, DefineModule again %v, DefinePreverified %v allocations", verify, again, preverified)
	if again != preverified {
		t.Errorf("a second DefineModule of one module: %v allocations, DefinePreverified %v: the verifier ran again", again, preverified)
	}

	bad := bytecode.MustAssemble(".class v/Bad\n.method m ()V\npop\nreturn\n.end\n.end")
	for n := 0; n < 2; n++ {
		p := NewProcess("p", w.user, w.shared)
		if err := p.DefineModule(bad); err == nil || !strings.Contains(err.Error(), "pops") || p.Defined("v/Bad") {
			t.Errorf("define %d of an unverifiable module: %v", n+1, err)
		}
	}
}
