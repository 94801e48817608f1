package shared

import (
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
	mgr    *Manager
	cls    *object.Class
}

func newWorld(t *testing.T) *world {
	t.Helper()
	space := vmaddr.NewSpace()
	reg := heap.NewRegistry(space, heap.Config{})
	root := memlimit.NewRoot("root", memlimit.Unlimited)
	kernel := reg.NewHeap(heap.KindKernel, "kernel", root.MustChild("kernel", memlimit.Unlimited, false))
	base := root.MustChild("shared-base", memlimit.Unlimited, false)
	mod := bytecode.MustAssemble(".class java/lang/Object\n.end\n.class t/Box\n.field v I\n.end")
	objDef, _ := mod.Class("java/lang/Object")
	objC, err := object.NewClass(objDef, nil, "t", true)
	if err != nil {
		t.Fatal(err)
	}
	boxDef, _ := mod.Class("t/Box")
	boxC, err := object.NewClass(boxDef, objC, "t", false)
	if err != nil {
		t.Fatal(err)
	}
	return &world{reg: reg, root: root, kernel: kernel, mgr: NewManager(reg, base), cls: boxC}
}

func (w *world) procLimit(t *testing.T, name string, max uint64) *memlimit.Limit {
	t.Helper()
	l, err := w.root.NewChild(name, max, false)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func buildFrozen(t *testing.T, w *world, creator *memlimit.Limit, name string) *Heap {
	t.Helper()
	sh, err := w.mgr.Create(name, creator, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	root, err := sh.H.Alloc(w.cls)
	if err != nil {
		t.Fatal(err)
	}
	sh.Root = root
	if err := w.mgr.Freeze(sh); err != nil {
		t.Fatal(err)
	}
	return sh
}

func TestLifecycle(t *testing.T) {
	w := newWorld(t)
	creator := w.procLimit(t, "creator", 1<<20)
	sh, err := w.mgr.Create("box", creator, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	// During population, the creator pays (soft child).
	root, err := sh.H.Alloc(w.cls)
	if err != nil {
		t.Fatal(err)
	}
	if creator.Use() == 0 {
		t.Error("creator not charged during population")
	}
	sh.Root = root
	if err := w.mgr.Freeze(sh); err != nil {
		t.Fatal(err)
	}
	if !sh.Frozen() || sh.Size == 0 {
		t.Fatalf("frozen=%v size=%d", sh.Frozen(), sh.Size)
	}
	// After the freeze the storage moved off the creator's limit.
	if creator.Use() != 0 {
		t.Errorf("creator still pays storage after freeze: %d", creator.Use())
	}
	// Attach charges the full size.
	if err := w.mgr.Attach(sh, "creator", creator); err != nil {
		t.Fatal(err)
	}
	if creator.Use() != sh.Size {
		t.Errorf("creator charge = %d, want %d", creator.Use(), sh.Size)
	}
}

func TestFreezeRequiresRoot(t *testing.T) {
	w := newWorld(t)
	creator := w.procLimit(t, "c", 1<<20)
	sh, err := w.mgr.Create("noroot", creator, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.mgr.Freeze(sh); err != ErrNoRoot {
		t.Fatalf("err = %v, want ErrNoRoot", err)
	}
}

func TestDoubleCreateAndFreeze(t *testing.T) {
	w := newWorld(t)
	creator := w.procLimit(t, "c", 1<<20)
	sh := buildFrozen(t, w, creator, "a")
	if _, err := w.mgr.Create("a", creator, 1<<10); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := w.mgr.Freeze(sh); err != ErrFrozen {
		t.Errorf("double freeze: %v", err)
	}
}

func TestEverySharerPaysFullSize(t *testing.T) {
	w := newWorld(t)
	creator := w.procLimit(t, "c", 1<<20)
	sh := buildFrozen(t, w, creator, "buf")
	a := w.procLimit(t, "a", 1<<20)
	bl := w.procLimit(t, "b", 1<<20)
	if err := w.mgr.Attach(sh, "a", a); err != nil {
		t.Fatal(err)
	}
	if err := w.mgr.Attach(sh, "b", bl); err != nil {
		t.Fatal(err)
	}
	// Full charge each — not 1/n — so nobody is charged asynchronously
	// when another sharer exits (§2).
	if a.Use() != sh.Size || bl.Use() != sh.Size {
		t.Errorf("charges %d/%d, want %d each", a.Use(), bl.Use(), sh.Size)
	}
	// Idempotent attach.
	if err := w.mgr.Attach(sh, "a", a); err != nil {
		t.Fatal(err)
	}
	if a.Use() != sh.Size {
		t.Error("double attach double charged")
	}
	// Detach credits; other sharers unaffected.
	w.mgr.Detach(sh, "a")
	if a.Use() != 0 || bl.Use() != sh.Size {
		t.Errorf("after detach: a=%d b=%d", a.Use(), bl.Use())
	}
}

func TestAttachFailsWhenSharerCannotPay(t *testing.T) {
	w := newWorld(t)
	creator := w.procLimit(t, "c", 1<<20)
	sh := buildFrozen(t, w, creator, "big")
	poor := w.procLimit(t, "poor", 8) // 8 bytes
	if err := w.mgr.Attach(sh, "poor", poor); err == nil {
		t.Fatal("attach succeeded beyond the sharer's limit")
	}
	if sh.SharedBy("poor") {
		t.Error("failed attach recorded a sharer")
	}
}

func TestAttachBeforeFreezeRejected(t *testing.T) {
	w := newWorld(t)
	creator := w.procLimit(t, "c", 1<<20)
	sh, _ := w.mgr.Create("raw", creator, 1<<10)
	if err := w.mgr.Attach(sh, "x", creator); err != ErrNotFrozen {
		t.Fatalf("err = %v", err)
	}
}

func TestOrphanReclaim(t *testing.T) {
	w := newWorld(t)
	creator := w.procLimit(t, "c", 1<<20)
	sh := buildFrozen(t, w, creator, "orphan")
	if err := w.mgr.Attach(sh, "c", creator); err != nil {
		t.Fatal(err)
	}
	// Still shared: not reclaimed.
	if names := w.mgr.ReclaimOrphans(w.kernel); len(names) != 0 {
		t.Fatalf("reclaimed %v with a live sharer", names)
	}
	w.mgr.Detach(sh, "c")
	names := w.mgr.ReclaimOrphans(w.kernel)
	if len(names) != 1 || names[0] != "orphan" {
		t.Fatalf("reclaimed %v", names)
	}
	if _, err := w.mgr.Lookup("orphan"); err == nil {
		t.Error("orphan still findable")
	}
	// Kernel GC then frees the merged objects.
	w.kernel.Collect(nil)
	if w.kernel.Bytes() != 0 {
		t.Errorf("kernel retains %d bytes", w.kernel.Bytes())
	}
}

func TestDetachAll(t *testing.T) {
	w := newWorld(t)
	creator := w.procLimit(t, "c", 1<<20)
	a := buildFrozen(t, w, creator, "a")
	b := buildFrozen(t, w, creator, "b")
	lim := w.procLimit(t, "p", 1<<20)
	if err := w.mgr.Attach(a, "p", lim); err != nil {
		t.Fatal(err)
	}
	if err := w.mgr.Attach(b, "p", lim); err != nil {
		t.Fatal(err)
	}
	w.mgr.DetachAll("p")
	if lim.Use() != 0 {
		t.Errorf("residual charge %d", lim.Use())
	}
	if a.SharedBy("p") || b.SharedBy("p") {
		t.Error("sharer records survived DetachAll")
	}
}

func TestUnfrozenOwnedByReclaimsAbandonedPopulation(t *testing.T) {
	w := newWorld(t)
	creator := w.procLimit(t, "dead", 1<<20)
	sh, err := w.mgr.Create("halfway", creator, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.H.Alloc(w.cls); err != nil {
		t.Fatal(err)
	}
	w.mgr.UnfrozenOwnedBy(creator, w.kernel)
	if _, err := w.mgr.Lookup("halfway"); err == nil {
		t.Error("abandoned heap still registered")
	}
	if creator.Use() != 0 {
		t.Errorf("dead creator still charged %d", creator.Use())
	}
	// Its limit can now be released (no children).
	creator.Release()
}

func TestFrozenHeapRejectsAllocation(t *testing.T) {
	w := newWorld(t)
	creator := w.procLimit(t, "c", 1<<20)
	sh := buildFrozen(t, w, creator, "sealed")
	if _, err := sh.H.Alloc(w.cls); err == nil {
		t.Error("allocation on frozen heap succeeded")
	}
	// Size never changes (invariant 6).
	if sh.Size != sh.H.Bytes() {
		t.Errorf("size %d != live bytes %d", sh.Size, sh.H.Bytes())
	}
}

// Freezing moves the heap's storage from the creator's soft limit to the
// base, both children of the root: the root holds those bytes before and
// after, so the freeze must succeed however little headroom it has left.
func TestFreezeUnderNearlyFullRoot(t *testing.T) {
	w := newWorld(t)
	creator := w.procLimit(t, "creator", 1<<20)
	sh, err := w.mgr.Create("big", creator, 512<<10)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Root, err = sh.H.AllocExtra(w.cls, 256<<10); err != nil {
		t.Fatal(err)
	}
	if err := w.root.SetMax(w.root.Use()); err != nil { // no headroom at all
		t.Fatal(err)
	}
	if err := w.mgr.Freeze(sh); err != nil {
		t.Fatalf("freeze under a full root: %v", err)
	}
	if creator.Use() != 0 || w.root.Use() != sh.Size {
		t.Fatalf("after freeze: creator %d, root %d, want 0 and %d", creator.Use(), w.root.Use(), sh.Size)
	}
}

// Sharer reads take the ledger lock: this fails under -race if they read
// the sharer map while a kill detaches on another goroutine.
func TestSharerReadsRaceAttachDetach(t *testing.T) {
	w := newWorld(t)
	sh := buildFrozen(t, w, w.procLimit(t, "c", 1<<20), "raced")
	lim := w.procLimit(t, "p", 1<<20)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 300; i++ {
			if err := w.mgr.Attach(sh, "p", lim); err != nil {
				t.Error(err)
				return
			}
			if i%2 == 0 {
				w.mgr.Detach(sh, "p")
			} else {
				w.mgr.DetachAll("p")
			}
		}
	}()
	for i := 0; i < 300; i++ {
		_ = sh.Sharers()
		_ = sh.SharedBy("p")
		_ = sh.Frozen()
	}
	<-done
	if n := sh.Sharers(); n != 0 || lim.Use() != 0 {
		t.Fatalf("after churn: %d sharer(s), %d bytes charged", n, lim.Use())
	}
}
