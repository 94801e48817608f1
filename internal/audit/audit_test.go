package audit

import (
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/heap"
	"repro/internal/memlimit"
	"repro/internal/object"
	"repro/internal/shared"
	"repro/internal/vmaddr"
)

// world is a miniature VM: a registry, a kernel heap, and class fixtures.
type world struct {
	space  *vmaddr.Space
	reg    *heap.Registry
	root   *memlimit.Limit
	kernel *heap.Heap
	node   *object.Class
}

func newWorld(t *testing.T) *world {
	t.Helper()
	space := vmaddr.NewSpace()
	reg := heap.NewRegistry(space, heap.Config{})
	root := memlimit.NewRoot("root", 64<<20)
	kernelLim := root.MustChild("kernel", 32<<20, false)
	w := &world{
		space:  space,
		reg:    reg,
		root:   root,
		kernel: reg.NewHeap(heap.KindKernel, "kernel", kernelLim),
	}
	mod := bytecode.MustAssemble(`
.class java/lang/Object
.end
.class t/Node
.field next Lt/Node;
.field other Lt/Node;
.field v I
.end`)
	objDef, _ := mod.Class("java/lang/Object")
	objCls, err := object.NewClass(objDef, nil, "test", true)
	if err != nil {
		t.Fatal(err)
	}
	nodeDef, _ := mod.Class("t/Node")
	w.node, err = object.NewClass(nodeDef, objCls, "test", false)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func (w *world) userHeap(t *testing.T, name string, pid int32) *heap.Heap {
	t.Helper()
	lim, err := w.root.NewChild(name, 8<<20, false)
	if err != nil {
		t.Fatal(err)
	}
	h := w.reg.NewHeap(heap.KindUser, name, lim)
	h.Pid = pid
	return h
}

func (w *world) alloc(t *testing.T, h *heap.Heap) *object.Object {
	t.Helper()
	o, err := h.Alloc(w.node)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// capture builds a World snapshot the way core.VM.Audit does.
func (w *world) capture() World {
	var aw World
	aw.Heaps = w.reg.SnapshotAll(func() {
		aw.Limits = w.root.Snapshot()
		aw.Pages = w.space.Dump()
	})
	aw.KernelID = w.kernel.ID
	return aw
}

// crossRef stores ref into holder's first reference slot and records the
// exit/entry pair, as the write barrier would.
func crossRef(t *testing.T, reg *heap.Registry, holder, ref *object.Object) {
	t.Helper()
	holder.SetRef(0, ref)
	hh, _ := reg.Lookup(holder.Heap)
	if err := hh.RecordCrossRef(ref); err != nil {
		t.Fatal(err)
	}
}

func wantOK(t *testing.T, rep *Report) {
	t.Helper()
	if !rep.OK() {
		t.Fatalf("audit failed:\n%s", rep)
	}
}

func wantViolation(t *testing.T, rep *Report, rule string) {
	t.Helper()
	for _, v := range rep.Violations {
		if v.Rule == rule {
			return
		}
	}
	t.Fatalf("expected a %q violation, got:\n%s", rule, rep)
}

func TestCleanWorldPasses(t *testing.T) {
	w := newWorld(t)
	u1 := w.userHeap(t, "u1", 1)
	u2 := w.userHeap(t, "u2", 2)
	var last *object.Object
	for i := 0; i < 50; i++ {
		o := w.alloc(t, u1)
		if last != nil {
			o.SetRef(0, last)
		}
		last = o
	}
	k := w.alloc(t, w.kernel)
	crossRef(t, w.reg, last, k)
	crossRef(t, w.reg, w.alloc(t, u2), k)

	rep := Check(w.capture(), Options{Graph: true})
	wantOK(t, rep)
	if rep.HeapsChecked != 3 || rep.ObjectsChecked != 52 {
		t.Fatalf("checked %d heaps / %d objects, want 3 / 52", rep.HeapsChecked, rep.ObjectsChecked)
	}
	if rep.EdgesChecked == 0 {
		t.Fatal("graph mode walked no edges")
	}
}

func TestSurvivesCollectionAndMerge(t *testing.T) {
	w := newWorld(t)
	u := w.userHeap(t, "u", 1)
	var keep []*object.Object
	for i := 0; i < 200; i++ {
		o := w.alloc(t, u)
		if i%3 == 0 {
			keep = append(keep, o)
		}
	}
	u.Collect(func(visit func(*object.Object)) {
		for _, o := range keep {
			visit(o)
		}
	})
	wantOK(t, Check(w.capture(), Options{Graph: true}))

	if err := u.MergeInto(w.kernel); err != nil {
		t.Fatal(err)
	}
	// The merged process' limit is now empty; release it so the tree has no
	// stale node (as process reclaim does).
	u.Limit().Release()
	wantOK(t, Check(w.capture(), Options{Graph: true}))
}

func TestDetectsUnbackedCrossRef(t *testing.T) {
	w := newWorld(t)
	u := w.userHeap(t, "u", 1)
	o := w.alloc(t, u)
	k := w.alloc(t, w.kernel)
	o.SetRef(0, k) // no RecordCrossRef: exit item missing
	rep := Check(w.capture(), Options{Graph: true})
	wantViolation(t, rep, "unbacked-ref")
}

func TestDetectsIllegalUserToUserRef(t *testing.T) {
	w := newWorld(t)
	u1 := w.userHeap(t, "u1", 1)
	u2 := w.userHeap(t, "u2", 2)
	a := w.alloc(t, u1)
	b := w.alloc(t, u2)
	a.SetRef(0, b)
	rep := Check(w.capture(), Options{Graph: true})
	wantViolation(t, rep, "illegal-ref")
}

func TestDetectsAccountingCorruption(t *testing.T) {
	w := newWorld(t)
	u := w.userHeap(t, "u", 1)
	w.alloc(t, u)

	aw := w.capture()
	wantOK(t, Check(aw, Options{}))

	// Tamper with the snapshot the way real corruption would surface.
	t.Run("heap-bytes", func(t *testing.T) {
		mod := w.capture()
		for i := range mod.Heaps {
			if mod.Heaps[i].Name == "u" {
				mod.Heaps[i].Bytes += 8
			}
		}
		rep := Check(mod, Options{})
		wantViolation(t, rep, "heap-bytes")
		wantViolation(t, rep, "limit-reconcile")
	})
	t.Run("object-dead", func(t *testing.T) {
		mod := w.capture()
		for i := range mod.Heaps {
			if mod.Heaps[i].Name == "u" {
				mod.Heaps[i].Objects[0].Dead = true // a swept object left on the list
			}
		}
		wantViolation(t, Check(mod, Options{}), "object-dead")
	})
	t.Run("page-owner", func(t *testing.T) {
		mod := w.capture()
		mod.Pages[0xdead] = 9999
		wantViolation(t, Check(mod, Options{}), "page-owner")
	})
	t.Run("heap-pid", func(t *testing.T) {
		mod := w.capture()
		mod.LivePids = map[int32]bool{} // process 1 is gone
		wantViolation(t, Check(mod, Options{}), "heap-pid")
	})
	t.Run("entry-refcount", func(t *testing.T) {
		mod := w.capture()
		k := w.alloc(t, w.kernel)
		mod.Heaps[0].Entries[k] = 3 // phantom entry item, no exits back it
		wantViolation(t, Check(mod, Options{}), "entry-refcount")
	})
	// Sharer charges, on a heap entry and on a code entry: dropping a
	// sharer, adding a phantom one, or changing an entry's size must each
	// fail the limit reconciliation.
	t.Run("sharer-charges", func(t *testing.T) {
		w := newWorld(t)
		mgr := shared.NewManager(w.reg, w.root.MustChild("shared-heaps", memlimit.Unlimited, false))
		creator := w.root.MustChild("creator", 1<<20, false)
		sh, err := mgr.Create("box", creator, 64<<10)
		if err != nil {
			t.Fatal(err)
		}
		sh.Root = w.alloc(t, sh.H)
		if err := mgr.Freeze(sh); err != nil {
			t.Fatal(err)
		}
		code := &shared.Entry{Name: "mod", Size: 4096}
		if err := mgr.Ledger.Add(code, w.root.MustChild("codecache", memlimit.Unlimited, false)); err != nil {
			t.Fatal(err)
		}
		sharer := w.root.MustChild("sharer", 1<<20, false)
		phantom := w.root.MustChild("phantom", 1<<20, false)
		for _, e := range []*shared.Entry{&sh.Entry, code} {
			if err := mgr.Ledger.Attach(e, "sharer", sharer); err != nil {
				t.Fatal(err)
			}
		}
		capture := func() World {
			var aw World
			mgr.Snapshot(func(entries []shared.ChargeInfo) {
				aw = w.capture()
				aw.Ledger = entries
			})
			return aw
		}
		wantOK(t, Check(capture(), Options{Graph: true}))

		for _, name := range []string{"heap", "code"} {
			kind := map[string]shared.Kind{"heap": shared.KindHeap, "code": shared.KindCode}[name]
			tamper := func(f func(e *shared.ChargeInfo)) World {
				aw := capture()
				for i := range aw.Ledger {
					if aw.Ledger[i].Kind == kind {
						f(&aw.Ledger[i])
					}
				}
				return aw
			}
			t.Run(name+"/dropped-sharer", func(t *testing.T) {
				wantViolation(t, Check(tamper(func(e *shared.ChargeInfo) { e.Sharers = nil }), Options{}), "limit-reconcile")
			})
			t.Run(name+"/phantom-sharer", func(t *testing.T) {
				wantViolation(t, Check(tamper(func(e *shared.ChargeInfo) {
					e.Sharers = append(e.Sharers, phantom)
				}), Options{}), "limit-reconcile")
			})
			t.Run(name+"/size", func(t *testing.T) {
				wantViolation(t, Check(tamper(func(e *shared.ChargeInfo) { e.Size += 8 }), Options{}), "limit-reconcile")
			})
		}
	})
}

func TestDetectsExitCounterDrift(t *testing.T) {
	w := newWorld(t)
	u := w.userHeap(t, "u", 1)
	o := w.alloc(t, u)
	k := w.alloc(t, w.kernel)
	crossRef(t, w.reg, o, k)

	mod := w.capture()
	for i := range mod.Heaps {
		if mod.Heaps[i].Name == "u" {
			mod.Heaps[i].ExitsTo[w.kernel.ID] = 7
		}
	}
	wantViolation(t, Check(mod, Options{}), "exitsto-counter")
}

func TestReportString(t *testing.T) {
	w := newWorld(t)
	rep := Check(w.capture(), Options{})
	if !strings.Contains(rep.String(), "OK") {
		t.Fatalf("clean report renders as %q", rep.String())
	}
	mod := w.capture()
	mod.Pages[0xbeef] = 424242
	s := Check(mod, Options{}).String()
	if !strings.Contains(s, "page-owner") {
		t.Fatalf("violating report renders as %q", s)
	}
}
