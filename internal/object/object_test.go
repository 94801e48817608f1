package object

import (
	"testing"

	"repro/internal/bytecode"
)

func TestNewInstanceStorage(t *testing.T) {
	root := rootClass(t)
	c := defClass(t, ".class t/P\n.field x I\n.field y D\n.field s Ljava/lang/Object;\n.end", "t/P", root)
	o := New(c)
	if len(o.Prims) != 2 || len(o.Refs) != 1 {
		t.Fatalf("storage prims=%d refs=%d", len(o.Prims), len(o.Refs))
	}
	x, _ := c.FieldByName("x")
	y, _ := c.FieldByName("y")
	o.SetPrim(x.Slot, 42)
	o.SetDouble(y.Slot, 3.25)
	if o.GetPrim(x.Slot) != 42 {
		t.Error("prim round trip failed")
	}
	if o.GetDouble(y.Slot) != 3.25 {
		t.Error("double round trip failed")
	}
}

func TestArrayStorage(t *testing.T) {
	root := rootClass(t)
	d, _ := bytecode.ParseDesc("I")
	ia := NewArrayClass("[I", d, nil, root, "test")
	arr := NewArray(ia, 5)
	if !arr.IsArray() || arr.ArrayLen() != 5 {
		t.Fatalf("array len = %d", arr.ArrayLen())
	}
	rd, _ := bytecode.ParseDesc("Ljava/lang/Object;")
	oa := NewArrayClass("[Ljava/lang/Object;", rd, root, root, "test")
	rarr := NewArray(oa, 3)
	if rarr.ArrayLen() != 3 || len(rarr.Refs) != 3 {
		t.Fatalf("ref array storage = %d", len(rarr.Refs))
	}
}

func TestMarkFlags(t *testing.T) {
	root := rootClass(t)
	o := New(root)
	if o.Marked() {
		t.Error("fresh object marked")
	}
	o.SetMark(true)
	if !o.Marked() {
		t.Error("mark not set")
	}
	o.SetMark(false)
	if o.Marked() {
		t.Error("mark not cleared")
	}
}

func TestSever(t *testing.T) {
	root := rootClass(t)
	c := defClass(t, ".class t/N\n.field next Lt/N;\n.end", "t/N", root)
	a, b := New(c), New(c)
	a.SetRef(0, b)
	a.Data = "payload"
	a.Sever()
	if a.GetRef(0) != nil {
		t.Error("sever left reference")
	}
	if a.Data != nil {
		t.Error("sever left data")
	}
	if !a.Dead() {
		t.Error("severed object not dead")
	}
}

func TestStringer(t *testing.T) {
	var o *Object
	if o.String() != "null" {
		t.Errorf("nil String = %q", o.String())
	}
}

func TestBuilderEndToEnd(t *testing.T) {
	b := NewModuleBuilder()
	fn := func() {}
	b.Class("lib/Sys", "java/lang/Object").
		StaticField("count", "I").
		KernelNative("exit", "(I)V", true, fn).
		Method("inc", "()V", true, `
	.locals 0
	.stack 2
	getstatic lib/Sys.count I
	iconst 1
	iadd
	putstatic lib/Sys.count I
	return`)
	b.Class("lib/Obj", "java/lang/Object").
		Field("v", "I").
		DefaultInit()

	def, ok := b.Module.Class("lib/Sys")
	if !ok {
		t.Fatal("class missing from module")
	}
	if len(def.Methods) != 2 {
		t.Fatalf("methods = %d, want 2", len(def.Methods))
	}
	key := bytecode.NativeKey("lib/Sys", "exit", "(I)V")
	if b.Natives[key] == nil {
		t.Error("native not registered")
	}
	if !b.Kernel[key] {
		t.Error("kernel flag not set")
	}
	if err := bytecode.VerifyModule(b.Module); err != nil {
		// Native methods have no code; skip them in verification here.
		t.Logf("verify: %v (expected for natives)", err)
	}
	objDef, _ := b.Module.Class("lib/Obj")
	if len(objDef.Methods) != 1 || objDef.Methods[0].Name != "<init>" {
		t.Fatalf("DefaultInit methods = %+v", objDef.Methods)
	}
}

func TestBuilderPanicsOnBadInput(t *testing.T) {
	cases := []func(){
		func() { NewModuleBuilder().Class("a/B", "").Field("f", "Q") },
		func() { NewModuleBuilder().Class("a/B", "").Native("m", "(Q)V", true, nil) },
		func() { NewModuleBuilder().Class("a/B", "").Method("m", "()V", true, "bogus_op") },
		func() {
			b := NewModuleBuilder()
			b.Class("a/B", "")
			b.Class("a/B", "")
		},
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestAddMethodDuplicate(t *testing.T) {
	root := rootClass(t)
	md := &bytecode.MethodDef{Name: "m", Sig: "()V", Code: &bytecode.Code{}, MaxStack: 1, MaxLocals: 1}
	c, err := NewClass(&bytecode.ClassDef{Name: "t/D"}, root, "test", false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddMethod(md, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddMethod(md, nil); err == nil {
		t.Fatal("duplicate method accepted")
	}
}

func TestMethodRetFlags(t *testing.T) {
	root := rootClass(t)
	c, _ := NewClass(&bytecode.ClassDef{Name: "t/R"}, root, "test", false)
	mv, _ := c.AddMethod(&bytecode.MethodDef{Name: "v", Sig: "()V", Code: &bytecode.Code{}}, nil)
	mi, _ := c.AddMethod(&bytecode.MethodDef{Name: "i", Sig: "(ID)I", Code: &bytecode.Code{}}, nil)
	mr, _ := c.AddMethod(&bytecode.MethodDef{Name: "r", Sig: "()Ljava/lang/Object;", Code: &bytecode.Code{}}, nil)
	if mv.HasRet || mv.NArgs != 0 {
		t.Errorf("void method flags: %+v", mv)
	}
	if !mi.HasRet || mi.RetRef || mi.NArgs != 2 {
		t.Errorf("int method flags: %+v", mi)
	}
	if !mr.HasRet || !mr.RetRef {
		t.Errorf("ref method flags: %+v", mr)
	}
}
