package interp

import (
	"testing"

	"repro/internal/barrier"
	"repro/internal/bytecode"
	"repro/internal/heap"
	"repro/internal/loader"
	"repro/internal/memlimit"
	"repro/internal/object"
	"repro/internal/vmaddr"
)

// fixtureLib is the minimal library every interpreter test namespace gets.
const fixtureLib = `
.class java/lang/Object
.method <init> ()V
.locals 1
.stack 1
	return
.end
.end

.class java/lang/String
.end

.class java/lang/Throwable
.field message Ljava/lang/String;
.method <init> ()V
.locals 1
.stack 1
	aload 0
	invokespecial java/lang/Object.<init> ()V
	return
.end
.end

.class java/lang/Exception extends java/lang/Throwable
.method <init> ()V
.locals 1
.stack 1
	aload 0
	invokespecial java/lang/Throwable.<init> ()V
	return
.end
.end

.class java/lang/Error extends java/lang/Throwable
.end
.class java/lang/RuntimeException extends java/lang/Exception
.end
.class java/lang/NullPointerException extends java/lang/RuntimeException
.end
.class java/lang/ArithmeticException extends java/lang/RuntimeException
.end
.class java/lang/ArrayIndexOutOfBoundsException extends java/lang/RuntimeException
.end
.class java/lang/ArrayStoreException extends java/lang/RuntimeException
.end
.class java/lang/ClassCastException extends java/lang/RuntimeException
.end
.class java/lang/NegativeArraySizeException extends java/lang/RuntimeException
.end
.class java/lang/IllegalMonitorStateException extends java/lang/RuntimeException
.end
.class java/lang/OutOfMemoryError extends java/lang/Error
.end
.class java/lang/StackOverflowError extends java/lang/Error
.end
.class java/lang/ThreadDeath extends java/lang/Error
.end
.class kaffeos/SegmentationViolationError extends java/lang/Error
.end
`

type fixture struct {
	t      testing.TB
	reg    *heap.Registry
	root   *memlimit.Limit
	kernel *heap.Heap
	user   *heap.Heap
	shared *loader.Loader
	proc   *loader.Loader
	env    *Env
	intern map[string]*object.Object
	nextID int32
}

func newFixture(t testing.TB, b barrier.Barrier, userMax uint64) *fixture {
	t.Helper()
	space := vmaddr.NewSpace()
	reg := heap.NewRegistry(space, heap.Config{HeaderExtra: b.HeaderExtra()})
	root := memlimit.NewRoot("root", memlimit.Unlimited)
	fx := &fixture{
		t:      t,
		reg:    reg,
		root:   root,
		intern: make(map[string]*object.Object),
	}
	fx.kernel = reg.NewHeap(heap.KindKernel, "kernel", root.MustChild("kernel", memlimit.Unlimited, false))
	fx.user = reg.NewHeap(heap.KindUser, "user", root.MustChild("user", userMax, false))
	fx.shared = loader.NewShared(fx.kernel)
	if err := fx.shared.DefineModule(bytecode.MustAssemble(fixtureLib)); err != nil {
		t.Fatal(err)
	}
	fx.proc = loader.NewProcess("p1", fx.user, fx.shared)

	fx.env = &Env{
		Reg:            reg,
		Barrier:        b,
		BarrierStats:   &barrier.Stats{},
		FastExceptions: true,
		ThinLocks:      true,
		Throwable: func(t *Thread, className, msg string) (*object.Object, error) {
			c, err := fx.shared.Class(className)
			if err != nil {
				return nil, err
			}
			o, err := fx.kernel.Alloc(c)
			if err != nil {
				return nil, err
			}
			o.Data = msg
			return o, nil
		},
		Intern: func(t *Thread, s string) (*object.Object, error) {
			if o, ok := fx.intern[s]; ok {
				return o, nil
			}
			c, err := fx.shared.Class("java/lang/String")
			if err != nil {
				return nil, err
			}
			o, err := t.AllocHeap().Alloc(c)
			if err != nil {
				return nil, err
			}
			o.Data = s
			fx.intern[s] = o
			return o, nil
		},
	}
	fx.env.CollectHeap = func(t *Thread, h *heap.Heap) {
		h.Collect(func(visit func(*object.Object)) {
			t.Roots(visit)
			fx.proc.StaticsRoots(visit)
			for _, o := range fx.intern {
				visit(o)
			}
		})
	}
	return fx
}

// define loads test program source into the process namespace and runs no
// clinits (fixture programs do not use them unless a test runs them).
func (fx *fixture) define(src string) {
	fx.t.Helper()
	if err := fx.proc.DefineModule(bytecode.MustAssemble(src)); err != nil {
		fx.t.Fatal(err)
	}
}

func (fx *fixture) method(cls, key string) *object.Method {
	fx.t.Helper()
	c, err := fx.proc.Class(cls)
	if err != nil {
		fx.t.Fatal(err)
	}
	m, ok := c.MethodByKey(key)
	if !ok {
		fx.t.Fatalf("method %s.%s not found", cls, key)
	}
	return m
}

func (fx *fixture) newThread() *Thread {
	fx.nextID++
	return &Thread{
		ID:    fx.nextID,
		Env:   fx.env,
		Heap:  fx.user,
		State: StateRunnable,
	}
}

// run executes cls.key(args) to completion on a fresh thread and returns it.
func (fx *fixture) run(cls, key string, args ...Slot) *Thread {
	fx.t.Helper()
	th := fx.newThread()
	m := fx.method(cls, key)
	if err := th.PushFrame(m, args); err != nil {
		fx.t.Fatal(err)
	}
	fx.drive(th)
	return th
}

// drive steps th until it finishes, dies, or blocks forever (fails test).
func (fx *fixture) drive(th *Thread) {
	fx.t.Helper()
	var eng Interpreter
	for i := 0; i < 100000; i++ {
		th.Fuel = 5000
		switch eng.Step(th) {
		case StepFinished, StepKilled:
			return
		case StepBlocked:
			fx.t.Fatalf("thread blocked on %v with no other runner", th.BlockedOn)
		}
	}
	fx.t.Fatal("thread did not finish in step budget")
}

// mustInt asserts the thread finished normally returning v.
func (fx *fixture) mustInt(th *Thread, v int64) {
	fx.t.Helper()
	if th.State != StateFinished {
		fx.t.Fatalf("thread state %v, err %v, uncaught %v", th.State, th.Err, th.Uncaught)
	}
	if th.Result.I != v {
		fx.t.Fatalf("result = %d, want %d", th.Result.I, v)
	}
}

// mustUncaught asserts the thread died with an uncaught throwable of class.
func (fx *fixture) mustUncaught(th *Thread, cls string) {
	fx.t.Helper()
	if th.State != StateKilled || th.Uncaught == nil {
		fx.t.Fatalf("state %v uncaught %v err %v, want uncaught %s", th.State, th.Uncaught, th.Err, cls)
	}
	if th.Uncaught.Class.Name != cls {
		fx.t.Fatalf("uncaught %s, want %s", th.Uncaught.Class.Name, cls)
	}
}
