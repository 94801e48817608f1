package kaffeos

import (
	"bytes"
	"strings"
	"testing"
)

const addSrc = `
.class app/Add
.method main ()I static
.locals 0
.stack 2
	iconst 40
	iconst 2
	iadd
	ireturn
.end
.end`

func TestQuickstart(t *testing.T) {
	vm, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := vm.NewProcess("calc", ProcessConfig{MemLimit: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.LoadSource(addSrc); err != nil {
		t.Fatal(err)
	}
	th, err := p.Start("app/Add")
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if !th.Done() || th.Result() != 42 {
		t.Fatalf("result = %d, done = %v", th.Result(), th.Done())
	}
	if !p.Exited() {
		t.Errorf("process did not exit cleanly")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Engine: "warp-drive"}); err == nil {
		t.Error("bad engine accepted")
	}
	if _, err := New(Config{Barrier: "psychic"}); err == nil {
		t.Error("bad barrier accepted")
	}
	for _, e := range []Engine{Interp, JITOpt} {
		for _, b := range []WriteBarrier{NoWriteBarrier, HeapPointer, NoHeapPointer, FakeHeapPointer} {
			if _, err := New(Config{Engine: e, Barrier: b}); err != nil {
				t.Errorf("New(%s,%s): %v", e, b, err)
			}
		}
	}
}

func TestStdout(t *testing.T) {
	vm, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	p, err := vm.NewProcess("printer", ProcessConfig{Stdout: &out})
	if err != nil {
		t.Fatal(err)
	}
	err = p.LoadSource(`
.class app/P
.method main ()V static
.locals 0
.stack 2
	getstatic java/lang/System.out Ljava/io/PrintStream;
	ldc "printed"
	invokevirtual java/io/PrintStream.println (Ljava/lang/String;)V
	return
.end
.end`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Start("app/P"); err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != "printed\n" {
		t.Errorf("out = %q", got)
	}
}

func TestKillAndFailureClass(t *testing.T) {
	vm, _ := New(Config{})
	p, err := vm.NewProcess("hog", ProcessConfig{MemLimit: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	err = p.LoadSource(`
.class app/Hog
.static keep Ljava/util/Vector;
.method main ()V static
.locals 0
.stack 4
	new java/util/Vector
	dup
	invokespecial java/util/Vector.<init> ()V
	putstatic app/Hog.keep Ljava/util/Vector;
L0:	getstatic app/Hog.keep Ljava/util/Vector;
	ldc 512
	newarray [I
	invokevirtual java/util/Vector.add (Ljava/lang/Object;)V
	goto L0
.end
.end`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Start("app/Hog"); err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if p.Alive() {
		t.Fatal("hog survived")
	}
	if got := p.FailureClass(); got != "java/lang/OutOfMemoryError" {
		t.Errorf("failure class = %q", got)
	}
}

func TestStartMethodWithArgs(t *testing.T) {
	vm, _ := New(Config{Engine: JITOpt})
	p, err := vm.NewProcess("m", ProcessConfig{})
	if err != nil {
		t.Fatal(err)
	}
	err = p.LoadSource(`
.class app/M
.method twice (I)I static
.locals 1
.stack 2
	iload 0
	iconst 2
	imul
	ireturn
.end
.end`)
	if err != nil {
		t.Fatal(err)
	}
	th, err := p.StartMethod("app/M", "twice(I)I", 21)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if th.Result() != 42 {
		t.Errorf("result = %d", th.Result())
	}
}

func TestBadSourceRejected(t *testing.T) {
	vm, _ := New(Config{})
	p, _ := vm.NewProcess("bad", ProcessConfig{})
	if err := p.LoadSource("this is not assembly"); err == nil {
		t.Error("garbage source accepted")
	}
	err := p.LoadSource(".class a/B\n.method m ()V\npop\nreturn\n.end\n.end")
	if err == nil || !strings.Contains(err.Error(), "pops") {
		t.Errorf("unverifiable code accepted: %v", err)
	}
}

func TestRegisterProgramAndSyscallSpawn(t *testing.T) {
	vm, _ := New(Config{})
	if err := vm.RegisterProgram("worker", `
.class app/W
.method main ()V static
.locals 0
.stack 1
	return
.end
.end`); err != nil {
		t.Fatal(err)
	}
	p, _ := vm.NewProcess("parent", ProcessConfig{})
	err := p.LoadSource(`
.class app/Par
.method main ()I static
.locals 0
.stack 3
	ldc "worker"
	ldc "app/W"
	ldc 1024
	invokestatic kaffeos/Kernel.spawn (Ljava/lang/String;Ljava/lang/String;I)I
	ireturn
.end
.end`)
	if err != nil {
		t.Fatal(err)
	}
	th, err := p.Start("app/Par")
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if th.Result() <= 0 {
		t.Errorf("spawn returned %d", th.Result())
	}
}

func TestBarrierCounterVisible(t *testing.T) {
	vm, _ := New(Config{Barrier: HeapPointer})
	p, _ := vm.NewProcess("b", ProcessConfig{})
	err := p.LoadSource(`
.class app/B
.static hold Ljava/lang/Object;
.method main ()V static
.locals 0
.stack 2
	new java/lang/Object
	putstatic app/B.hold Ljava/lang/Object;
	return
.end
.end`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Start("app/B"); err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if vm.BarriersExecuted() == 0 {
		t.Error("no barriers counted")
	}
}
