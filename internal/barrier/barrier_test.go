package barrier

import (
	"errors"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/heap"
	"repro/internal/memlimit"
	"repro/internal/object"
	"repro/internal/vmaddr"
)

type world struct {
	reg    *heap.Registry
	root   *memlimit.Limit
	kernel *heap.Heap
	userA  *heap.Heap
	userB  *heap.Heap
	shared *heap.Heap
	node   *object.Class
}

func newWorld(t *testing.T, b Barrier) *world {
	t.Helper()
	space := vmaddr.NewSpace()
	reg := heap.NewRegistry(space, heap.Config{HeaderExtra: b.HeaderExtra()})
	root := memlimit.NewRoot("root", memlimit.Unlimited)
	w := &world{reg: reg, root: root}
	w.kernel = reg.NewHeap(heap.KindKernel, "kernel", root.MustChild("kernel", memlimit.Unlimited, false))
	w.userA = reg.NewHeap(heap.KindUser, "userA", root.MustChild("userA", memlimit.Unlimited, false))
	w.userB = reg.NewHeap(heap.KindUser, "userB", root.MustChild("userB", memlimit.Unlimited, false))
	w.shared = reg.NewHeap(heap.KindShared, "shared", root.MustChild("shared", memlimit.Unlimited, false))

	mod := bytecode.MustAssemble(`
.class java/lang/Object
.end
.class t/Node
.field next Lt/Node;
.end`)
	objDef, _ := mod.Class("java/lang/Object")
	objC, err := object.NewClass(objDef, nil, "t", true)
	if err != nil {
		t.Fatal(err)
	}
	nodeDef, _ := mod.Class("t/Node")
	w.node, err = object.NewClass(nodeDef, objC, "t", false)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func (w *world) mk(t *testing.T, h *heap.Heap) *object.Object {
	t.Helper()
	o, err := h.Alloc(w.node)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func realBarriers() []Barrier {
	return []Barrier{HeapPointer, NoHeapPointer, FakeHeapPointer}
}

func TestLegalityMatrix(t *testing.T) {
	for _, b := range realBarriers() {
		t.Run(b.Name(), func(t *testing.T) {
			w := newWorld(t, b)
			var st Stats
			uA := w.mk(t, w.userA)
			uA2 := w.mk(t, w.userA)
			uB := w.mk(t, w.userB)
			k := w.mk(t, w.kernel)
			s := w.mk(t, w.shared)
			s2 := w.mk(t, w.shared)

			cases := []struct {
				name        string
				holder, ref *object.Object
				kernelMode  bool
				legal       bool
			}{
				{"user->same user", uA, uA2, false, true},
				{"user->kernel", uA, k, false, true},
				{"user->shared", uA, s, false, true},
				{"user->other user", uA, uB, false, false},
				{"shared->shared same", s, s2, false, true},
				{"shared->kernel", s, k, false, true},
				{"shared->user", s, uA, false, false},
				{"kernel->user in kernel mode", k, uA, true, true},
				{"kernel->user in user mode", k, uA, false, false},
				{"kernel->kernel in kernel mode", k, w.mk(t, w.kernel), true, true},
				{"null store", uA, nil, false, true},
			}
			for _, c := range cases {
				err := b.Write(w.reg, c.holder, c.ref, c.kernelMode, &st)
				if c.legal && err != nil {
					t.Errorf("%s: unexpected violation: %v", c.name, err)
				}
				if !c.legal {
					var v *Violation
					if !errors.As(err, &v) {
						t.Errorf("%s: err = %v, want *Violation", c.name, err)
					}
				}
			}
		})
	}
}

func TestFrozenSharedObjectImmutable(t *testing.T) {
	for _, b := range realBarriers() {
		w := newWorld(t, b)
		var st Stats
		s := w.mk(t, w.shared)
		s2 := w.mk(t, w.shared)
		// Before freeze: intra-shared-heap stores are legal.
		if err := b.Write(w.reg, s, s2, false, &st); err != nil {
			t.Fatalf("%s: pre-freeze write: %v", b.Name(), err)
		}
		w.shared.Freeze()
		// After freeze, even intra-heap and null stores are violations:
		// non-primitive fields cannot be reassigned after initialization.
		if err := b.Write(w.reg, s, s2, false, &st); err == nil {
			t.Errorf("%s: post-freeze write allowed", b.Name())
		}
		if err := b.Write(w.reg, s, nil, false, &st); err == nil {
			t.Errorf("%s: post-freeze null store allowed", b.Name())
		}
	}
}

func TestCrossRefRecorded(t *testing.T) {
	w := newWorld(t, NoHeapPointer)
	var st Stats
	u := w.mk(t, w.userA)
	k := w.mk(t, w.kernel)
	if err := NoHeapPointer.Write(w.reg, u, k, false, &st); err != nil {
		t.Fatal(err)
	}
	if w.userA.ExitCount() != 1 {
		t.Error("user->kernel store did not create an exit item")
	}
	if w.kernel.EntryCount() != 1 {
		t.Error("user->kernel store did not create an entry item")
	}
}

func TestIntraHeapNotRecorded(t *testing.T) {
	w := newWorld(t, NoHeapPointer)
	var st Stats
	a := w.mk(t, w.userA)
	b := w.mk(t, w.userA)
	if err := NoHeapPointer.Write(w.reg, a, b, false, &st); err != nil {
		t.Fatal(err)
	}
	if w.userA.ExitCount() != 0 || w.userA.EntryCount() != 0 {
		t.Error("intra-heap store created items")
	}
}

func TestStatsCount(t *testing.T) {
	w := newWorld(t, HeapPointer)
	var st Stats
	a := w.mk(t, w.userA)
	b := w.mk(t, w.userA)
	for i := 0; i < 10; i++ {
		if err := HeapPointer.Write(w.reg, a, b, false, &st); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.Executed.Load(); got != 10 {
		t.Errorf("Executed = %d, want 10", got)
	}
	if got := st.Executed.Load() * HeapPointer.CheckCost(); got != 10*25 {
		t.Errorf("barrier cycles = %d, want 250", got)
	}
}

func TestNoBarrierIsFree(t *testing.T) {
	w := newWorld(t, NoBarrier)
	var st Stats
	a := w.mk(t, w.userA)
	b := w.mk(t, w.userB)
	// No barrier: even an illegal store passes unchecked (the
	// configuration runs everything on the kernel heap, so this cannot
	// happen in practice; the baseline measures pure cost).
	if err := NoBarrier.Write(w.reg, a, b, false, &st); err != nil {
		t.Fatal(err)
	}
	if st.Executed.Load() != 0 {
		t.Error("NoBarrier counted executions")
	}
	if NoBarrier.Enabled() {
		t.Error("NoBarrier reports enabled")
	}
}

func TestBarrierCosts(t *testing.T) {
	if HeapPointer.CheckCost() != 25 {
		t.Errorf("HeapPointer cost = %d, want 25 (paper §4.1)", HeapPointer.CheckCost())
	}
	if NoHeapPointer.CheckCost() != 41 {
		t.Errorf("NoHeapPointer cost = %d, want 41 (paper §4.1)", NoHeapPointer.CheckCost())
	}
	if HeapPointer.HeaderExtra() != 4 || FakeHeapPointer.HeaderExtra() != 4 {
		t.Error("heap-pointer style barriers must pad the header by 4 bytes")
	}
	if NoHeapPointer.HeaderExtra() != 0 {
		t.Error("NoHeapPointer must not pad the header")
	}
}

func TestPageAndHeaderAgree(t *testing.T) {
	// Invariant 7 from DESIGN.md: the page table and object headers always
	// agree on an object's heap.
	w := newWorld(t, NoHeapPointer)
	for _, h := range []*heap.Heap{w.kernel, w.userA, w.shared} {
		for i := 0; i < 50; i++ {
			o := w.mk(t, h)
			if got, ok := w.reg.Space.HeapOf(o.Addr); !ok || got != o.Heap {
				t.Fatalf("heap %s object %d: page says %v/%v, header says %v", h.Name, i, got, ok, o.Heap)
			}
		}
	}
}

func TestByName(t *testing.T) {
	for _, b := range All() {
		got, ok := ByName(b.Name())
		if !ok || got.Name() != b.Name() {
			t.Errorf("ByName(%q) failed", b.Name())
		}
	}
	if _, ok := ByName("bogus"); ok {
		t.Error("ByName accepted bogus")
	}
}

func TestViolationError(t *testing.T) {
	v := &Violation{HolderHeap: "a", RefHeap: "b", Reason: "r"}
	if v.Error() == "" {
		t.Error("empty violation message")
	}
}

// A checked reference store runs on every putfield and aastore, so it
// allocates nothing under any barrier. The cross-heap store records its
// entry item in the warm-up run; the measured runs only find it.
func TestStoreAllocatesNothing(t *testing.T) {
	for _, b := range All() {
		w := newWorld(t, b)
		holder := w.mk(t, w.userA)
		for _, to := range []*heap.Heap{w.userA, w.kernel} {
			ref := w.mk(t, to)
			var st Stats
			var err error
			if n := testing.AllocsPerRun(100, func() { err = b.Write(w.reg, holder, ref, false, &st) }); n != 0 || err != nil {
				t.Errorf("%s store into %s: %v Go allocations (err %v), want 0", b.Name(), to.Name, n, err)
			}
		}
	}
}
