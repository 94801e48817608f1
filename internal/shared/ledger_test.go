package shared_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/audit"
	"repro/internal/bytecode"
	"repro/internal/codecache"
	"repro/internal/faults"
	"repro/internal/heap"
	"repro/internal/interp"
	"repro/internal/memlimit"
	"repro/internal/object"
	"repro/internal/shared"
	"repro/internal/vmaddr"
)

// book is a miniature VM around one ledger: shared heaps and a code
// cache over it, a kernel heap for orphans, and the auditor's capture.
type book struct {
	space  *vmaddr.Space
	reg    *heap.Registry
	root   *memlimit.Limit
	kernel *heap.Heap
	mgr    *shared.Manager
	code   *codecache.Manager
	cls    *object.Class
}

func newBook(t testing.TB, rootMax uint64) *book {
	t.Helper()
	b := &book{space: vmaddr.NewSpace(), root: memlimit.NewRoot("vm", rootMax)}
	b.reg = heap.NewRegistry(b.space, heap.Config{})
	b.kernel = b.reg.NewHeap(heap.KindKernel, "kernel", b.root.MustChild("kernel", memlimit.Unlimited, false))
	b.mgr = shared.NewManager(b.reg, b.root.MustChild("shared-heaps", memlimit.Unlimited, false))
	b.code = codecache.NewManager(&b.mgr.Ledger, b.root.MustChild("codecache", memlimit.Unlimited, false))
	mod := bytecode.MustAssemble(".class java/lang/Object\n.end\n.class t/Box\n.field v I\n.end")
	objDef, _ := mod.Class("java/lang/Object")
	objC, err := object.NewClass(objDef, nil, "t", true)
	if err != nil {
		t.Fatal(err)
	}
	boxDef, _ := mod.Class("t/Box")
	if b.cls, err = object.NewClass(boxDef, objC, "t", false); err != nil {
		t.Fatal(err)
	}
	return b
}

// audit captures the world the way VM.Audit does — the ledger in one
// critical section around the heap snapshot — and checks it.
func (b *book) audit() *audit.Report {
	var w audit.World
	b.mgr.Snapshot(func(entries []shared.ChargeInfo) {
		w.Ledger = entries
		w.Heaps = b.reg.SnapshotAll(func() {
			w.Limits = b.root.Snapshot()
			w.Pages = b.space.Dump()
		})
	})
	w.KernelID = b.kernel.ID
	return audit.Check(w, audit.Options{Graph: true})
}

// A freeze the root cannot fund changes nothing: the heap stays open in
// both the heap and the ledger, and the books still reconcile.
func TestFailedFreezeChangesNothing(t *testing.T) {
	b := newBook(t, 1<<20)
	creator := b.root.MustChild("creator", 512<<10, true) // a reservation
	sh, err := b.mgr.Create("box", creator, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Root, err = sh.H.AllocExtra(b.cls, 64<<10); err != nil {
		t.Fatal(err)
	}
	if err := b.root.SetMax(b.root.Use()); err != nil { // root full
		t.Fatal(err)
	}
	if err := b.mgr.Freeze(sh); err == nil {
		t.Fatal("freeze past a full root succeeded")
	}
	if sh.Frozen() || sh.H.Frozen() {
		t.Fatalf("after a failed freeze: ledger frozen=%v, heap frozen=%v", sh.Frozen(), sh.H.Frozen())
	}
	if rep := b.audit(); !rep.OK() {
		t.Fatalf("failed freeze left the books disagreeing:\n%s", rep)
	}
	// With headroom the same heap freezes.
	if err := b.root.SetMax(2 << 20); err != nil {
		t.Fatal(err)
	}
	if err := b.mgr.Freeze(sh); err != nil {
		t.Fatal(err)
	}
	if rep := b.audit(); !rep.OK() {
		t.Fatal(rep)
	}
}

// FuzzSharingLedger runs random create/freeze/insert/attach/detach/
// detach-all/evict/reclaim-orphans sequences over heap and code entries
// and three sharers, with the codecache.attach site armed. After every
// step the auditor must find the captured world clean and each sharer
// must be charged exactly the sizes the model says it holds; once every
// sharer has detached and the orphans are gone, every limit reads 0.
func FuzzSharingLedger(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 3, 0, 2, 1, 3, 4, 5, 0, 4, 0, 6, 0, 7, 0})
	f.Add([]byte{2, 0, 2, 1, 3, 3, 3, 4, 3, 5, 6, 0, 5, 1, 6, 0, 4, 2})
	f.Add([]byte{0, 1, 1, 1, 3, 1, 0, 2, 3, 2, 4, 0, 7, 0, 3, 1, 5, 2, 7, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		b := newBook(t, 4<<20)
		plan, err := faults.ParsePlan(fmt.Sprintf("seed=%d,codecache.attach=0.25", len(ops)))
		if err != nil {
			t.Fatal(err)
		}
		b.mgr.Faults = faults.NewPlane(plan)
		maker := b.root.MustChild("maker", 1<<20, false)
		var lims [3]*memlimit.Limit
		for i := range lims {
			lims[i] = b.root.MustChild(fmt.Sprintf("sharer%d", i), 64<<10<<(2*i), false)
		}
		held := [3]map[*shared.Entry]bool{{}, {}, {}}
		arts := map[int]*codecache.Artifact{}
		// entry resolves arg to a heap (0-3) or code (4-7) entry, if any.
		entry := func(arg byte) *shared.Entry {
			if n := int(arg % 8); n >= 4 {
				if a := arts[n-4]; a != nil {
					return &a.Entry
				}
				return nil
			}
			if sh, err := b.mgr.Lookup(fmt.Sprintf("h%d", arg%4)); err == nil {
				return &sh.Entry
			}
			return nil
		}
		for i := 0; i+1 < len(ops) && i < 128; i += 2 {
			op, arg := ops[i]%8, ops[i+1]
			who, s := int(arg%3), int(arg/3%3)
			switch op {
			case 0: // create and populate a heap
				sh, err := b.mgr.Create(fmt.Sprintf("h%d", arg%4), maker, 64<<10)
				if err != nil {
					break
				}
				for k := 0; k <= int(arg%5); k++ {
					o, err := sh.H.AllocExtra(b.cls, uint64(arg)*16)
					if err != nil {
						break
					}
					if sh.Root == nil {
						sh.Root = o
					}
				}
			case 1: // freeze
				if sh, err := b.mgr.Lookup(fmt.Sprintf("h%d", arg%4)); err == nil {
					_ = b.mgr.Freeze(sh)
				}
			case 2: // insert code
				k := int(arg % 4)
				var h [32]byte
				h[0] = byte(k)
				a, err := b.code.Insert(codecache.Key{ModuleHash: h, Variant: "v"}, fmt.Sprintf("m%d", k),
					interp.SyntheticProgram(k+1, 10*int(arg)))
				if err != nil {
					t.Fatal(err)
				}
				arts[k] = a
			case 3: // attach
				if e := entry(arg / 9); e != nil && b.mgr.Ledger.Attach(e, who, lims[who]) == nil {
					held[who][e] = true
				}
			case 4: // detach
				if e := entry(arg / 9); e != nil {
					b.mgr.Ledger.Detach(e, who)
					delete(held[who], e)
				}
			case 5: // detach-all: the sharer dies
				b.mgr.DetachAll(s)
				held[s] = map[*shared.Entry]bool{}
			case 6: // evict orphaned code under pressure
				b.code.EvictOrphans()
			case 7: // the kernel collector's orphan merge
				b.mgr.ReclaimOrphans(b.kernel)
				b.kernel.Collect(nil)
			}
			if rep := b.audit(); !rep.OK() {
				t.Fatalf("step %d (op %d, arg %d):\n%s", i/2, op, arg, rep)
			}
			for w := range lims {
				var want uint64
				for e := range held[w] {
					want += e.Size
				}
				if got := lims[w].Use(); got != want {
					t.Fatalf("step %d: sharer %d charged %d, model holds %d", i/2, w, got, want)
				}
			}
		}
		for w := range lims {
			b.mgr.DetachAll(w)
		}
		b.mgr.ReclaimOrphans(b.kernel)
		b.mgr.UnfrozenOwnedBy(maker, b.kernel)
		b.code.EvictOrphans()
		b.kernel.Collect(nil)
		if rep := b.audit(); !rep.OK() {
			t.Fatalf("after teardown:\n%s", rep)
		}
		var walk func(n *memlimit.Node)
		walk = func(n *memlimit.Node) {
			if n.Use != 0 {
				t.Errorf("limit %q still reads %d after teardown", n.Name, n.Use)
			}
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(b.root.Snapshot())
	})
}

// Attaching to an entry that left the ledger is refused, so no sharer is
// ever charged for storage the kernel already took back.
func TestAttachAfterOrphanMergeRefused(t *testing.T) {
	b := newBook(t, 1<<20)
	creator := b.root.MustChild("creator", 512<<10, false)
	sh, err := b.mgr.Create("gone", creator, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Root, err = sh.H.Alloc(b.cls); err != nil {
		t.Fatal(err)
	}
	if err := b.mgr.Freeze(sh); err != nil {
		t.Fatal(err)
	}
	b.mgr.ReclaimOrphans(b.kernel)
	if err := b.mgr.Attach(sh, "late", creator); !errors.Is(err, shared.ErrNotFound) {
		t.Fatalf("attach to a merged heap: %v, want ErrNotFound", err)
	}
	if creator.Use() != 0 {
		t.Fatalf("refused attach charged %d bytes", creator.Use())
	}
}
