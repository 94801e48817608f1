package heap

import (
	"testing"

	"repro/internal/bytecode"
	"repro/internal/memlimit"
	"repro/internal/object"
	"repro/internal/vmaddr"
)

// testWorld builds a registry with a kernel heap and node class fixtures.
type testWorld struct {
	reg    *Registry
	root   *memlimit.Limit
	kernel *Heap
	obj    *object.Class // java/lang/Object
	node   *object.Class // t/Node {next, other Lt/Node;, v I}
}

func newWorld(t *testing.T, cfg Config) *testWorld {
	t.Helper()
	space := vmaddr.NewSpace()
	reg := NewRegistry(space, cfg)
	rootLim := memlimit.NewRoot("root", memlimit.Unlimited)
	kernelLim := rootLim.MustChild("kernel", memlimit.Unlimited, false)
	w := &testWorld{
		reg:  reg,
		root: rootLim,
	}
	w.kernel = reg.NewHeap(KindKernel, "kernel", kernelLim)

	mod := bytecode.MustAssemble(`
.class java/lang/Object
.end
.class t/Node
.field next Lt/Node;
.field other Lt/Node;
.field v I
.end`)
	objDef, _ := mod.Class("java/lang/Object")
	var err error
	w.obj, err = object.NewClass(objDef, nil, "test", true)
	if err != nil {
		t.Fatal(err)
	}
	nodeDef, _ := mod.Class("t/Node")
	w.node, err = object.NewClass(nodeDef, w.obj, "test", false)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func (w *testWorld) userHeap(t *testing.T, name string, max uint64) *Heap {
	t.Helper()
	lim, err := w.root.NewChild(name, max, false)
	if err != nil {
		t.Fatal(err)
	}
	return w.reg.NewHeap(KindUser, name, lim)
}

func (w *testWorld) alloc(t *testing.T, h *Heap) *object.Object {
	t.Helper()
	o, err := h.Alloc(w.node)
	if err != nil {
		t.Fatalf("alloc on %s: %v", h.Name, err)
	}
	return o
}

func rootsOf(objs ...*object.Object) RootFunc {
	return func(visit func(*object.Object)) {
		for _, o := range objs {
			visit(o)
		}
	}
}

func TestAllocAccountsAndAddresses(t *testing.T) {
	w := newWorld(t, Config{})
	h := w.userHeap(t, "p1", memlimit.Unlimited)
	o := w.alloc(t, h)
	if o.Heap != h.ID {
		t.Errorf("object heap = %d, want %d", o.Heap, h.ID)
	}
	if got, ok := w.reg.Space.HeapOf(o.Addr); !ok || got != h.ID {
		t.Errorf("page table says heap %d, %v", got, ok)
	}
	// The limit carries the live bytes plus the standing headroom lease.
	if h.Bytes()+h.Lease() != h.Limit().Use() {
		t.Errorf("heap bytes %d + lease %d != limit use %d", h.Bytes(), h.Lease(), h.Limit().Use())
	}
	if h.Bytes() == 0 {
		t.Error("allocation accounted zero bytes")
	}
}

func TestHeaderExtraAffectsAccounting(t *testing.T) {
	w0 := newWorld(t, Config{})
	w4 := newWorld(t, Config{HeaderExtra: 4})
	h0 := w0.userHeap(t, "a", memlimit.Unlimited)
	h4 := w4.userHeap(t, "b", memlimit.Unlimited)
	w0.alloc(t, h0)
	w4.alloc(t, h4)
	if h4.Bytes() != h0.Bytes()+4 {
		t.Errorf("header extra: %d vs %d", h4.Bytes(), h0.Bytes())
	}
}

func TestAllocFailsAtLimit(t *testing.T) {
	w := newWorld(t, Config{})
	h := w.userHeap(t, "small", 40) // one 32-byte node fits, two do not
	if _, err := h.Alloc(w.node); err != nil {
		t.Fatalf("first alloc: %v", err)
	}
	if _, err := h.Alloc(w.node); err == nil {
		t.Fatal("allocation past limit succeeded")
	}
	// Failed alloc must not leak accounting.
	if h.Limit().Use() != h.Bytes() {
		t.Errorf("use %d != bytes %d after failed alloc", h.Limit().Use(), h.Bytes())
	}
}

func TestCollectFreesGarbageKeepsLive(t *testing.T) {
	w := newWorld(t, Config{})
	h := w.userHeap(t, "p", memlimit.Unlimited)
	a := w.alloc(t, h)
	b := w.alloc(t, h)
	c := w.alloc(t, h)
	a.SetRef(0, b) // a -> b live chain; c garbage
	_ = c

	res := h.Collect(rootsOf(a))
	if res.Swept != 1 {
		t.Fatalf("swept %d, want 1", res.Swept)
	}
	if a.Dead() || b.Dead() {
		t.Error("live object swept")
	}
	if !c.Dead() {
		t.Error("garbage survived")
	}
	if h.Objects() != 2 {
		t.Errorf("%d objects after GC, want 2", h.Objects())
	}
	if h.Bytes() != h.Limit().Use() {
		t.Errorf("bytes %d != use %d", h.Bytes(), h.Limit().Use())
	}
}

func TestCollectCycles(t *testing.T) {
	w := newWorld(t, Config{})
	h := w.userHeap(t, "p", memlimit.Unlimited)
	a := w.alloc(t, h)
	b := w.alloc(t, h)
	a.SetRef(0, b)
	b.SetRef(0, a) // unreachable cycle
	res := h.Collect(rootsOf())
	if res.Swept != 2 {
		t.Fatalf("cycle not collected: swept %d", res.Swept)
	}
}

func TestCollectChargesGCCycles(t *testing.T) {
	w := newWorld(t, Config{})
	h := w.userHeap(t, "p", memlimit.Unlimited)
	a := w.alloc(t, h)
	w.alloc(t, h)
	res := h.Collect(rootsOf(a))
	if res.Cycles == 0 {
		t.Error("GC reported zero cycle cost")
	}
	if h.Stats().GCCycles != res.Cycles {
		t.Error("stats do not accumulate GC cycles")
	}
}

func TestEntryItemsPinTargets(t *testing.T) {
	w := newWorld(t, Config{})
	h := w.userHeap(t, "p", memlimit.Unlimited)
	k := w.kernel
	ko, err := k.Alloc(w.node)
	if err != nil {
		t.Fatal(err)
	}
	uo := w.alloc(t, h)
	// Kernel object references user object (legal: kernel -> user).
	ko.SetRef(0, uo)
	if err := k.RecordCrossRef(uo); err != nil {
		t.Fatal(err)
	}
	if h.EntryCount() != 1 || k.ExitCount() != 1 {
		t.Fatalf("entries=%d exits=%d, want 1/1", h.EntryCount(), k.ExitCount())
	}
	// User GC with no local roots: uo must survive via the entry item.
	res := h.Collect(rootsOf())
	if res.Swept != 0 || uo.Dead() {
		t.Fatal("entry item did not pin target")
	}
	// Kernel drops the reference; kernel GC releases the exit item.
	ko.SetRef(0, nil)
	k.Collect(rootsOf(ko))
	if k.ExitCount() != 0 {
		t.Fatalf("exit item survived kernel GC")
	}
	if h.EntryCount() != 0 {
		t.Fatalf("entry item survived refcount drop")
	}
	// Now the user object is collectable.
	h.Collect(rootsOf())
	if !uo.Dead() {
		t.Error("orphaned target survived")
	}
}

func TestCrossRefDedup(t *testing.T) {
	w := newWorld(t, Config{})
	h := w.userHeap(t, "p", memlimit.Unlimited)
	ko, _ := w.kernel.Alloc(w.node)
	uo := w.alloc(t, h)
	ko.SetRef(0, uo)
	for i := 0; i < 5; i++ {
		if err := w.kernel.RecordCrossRef(uo); err != nil {
			t.Fatal(err)
		}
	}
	if w.kernel.ExitCount() != 1 || h.EntryCount() != 1 {
		t.Fatalf("dedup failed: exits=%d entries=%d", w.kernel.ExitCount(), h.EntryCount())
	}
}

func TestItemAccounting(t *testing.T) {
	w := newWorld(t, Config{})
	h := w.userHeap(t, "p", memlimit.Unlimited)
	ko, _ := w.kernel.Alloc(w.node)
	uo := w.alloc(t, h)
	ko.SetRef(0, uo)
	beforeK, beforeH := w.kernel.Limit().Use(), h.Limit().Use()
	if err := w.kernel.RecordCrossRef(uo); err != nil {
		t.Fatal(err)
	}
	if w.kernel.Limit().Use() != beforeK+exitItemBytes {
		t.Error("exit item not charged to source heap")
	}
	if h.Limit().Use() != beforeH+entryItemBytes {
		t.Error("entry item not charged to target heap")
	}
}

func TestMergeIntoKernel(t *testing.T) {
	w := newWorld(t, Config{})
	h := w.userHeap(t, "p", memlimit.Unlimited)
	a := w.alloc(t, h)
	b := w.alloc(t, h)
	a.SetRef(0, b)
	userBytes := h.Bytes()
	kernelBefore := w.kernel.Bytes()

	if err := h.MergeInto(w.kernel); err != nil {
		t.Fatal(err)
	}
	if !h.Dead() {
		t.Error("merged heap not dead")
	}
	if h.Limit().Use() != 0 {
		t.Errorf("merged heap still charged %d", h.Limit().Use())
	}
	if w.kernel.Bytes() != kernelBefore+userBytes {
		t.Errorf("kernel bytes %d, want %d", w.kernel.Bytes(), kernelBefore+userBytes)
	}
	if a.Heap != w.kernel.ID || b.Heap != w.kernel.ID {
		t.Error("objects did not move to kernel heap")
	}
	if got, _ := w.reg.Space.HeapOf(a.Addr); got != w.kernel.ID {
		t.Error("page table not reassigned")
	}
	// Kernel GC with no roots reclaims everything that came from the
	// process (full reclamation of memory).
	w.kernel.Collect(rootsOf())
	if !a.Dead() || !b.Dead() {
		t.Error("merged garbage not reclaimed by kernel GC")
	}
	if w.kernel.Bytes() != 0 {
		t.Errorf("kernel retains %d bytes", w.kernel.Bytes())
	}
}

func TestMergeDissolvesMutualItems(t *testing.T) {
	w := newWorld(t, Config{})
	h := w.userHeap(t, "p", memlimit.Unlimited)
	ko, _ := w.kernel.Alloc(w.node)
	uo := w.alloc(t, h)
	// kernel -> user and user -> kernel references.
	ko.SetRef(0, uo)
	if err := w.kernel.RecordCrossRef(uo); err != nil {
		t.Fatal(err)
	}
	uo.SetRef(0, ko)
	if err := h.RecordCrossRef(ko); err != nil {
		t.Fatal(err)
	}
	if err := h.MergeInto(w.kernel); err != nil {
		t.Fatal(err)
	}
	if w.kernel.EntryCount() != 0 || w.kernel.ExitCount() != 0 {
		t.Errorf("items survived merge: entries=%d exits=%d",
			w.kernel.EntryCount(), w.kernel.ExitCount())
	}
	// User-kernel cycle of garbage is collectable now.
	ko.SetRef(0, nil)
	uo.SetRef(0, nil)
	w.kernel.Collect(rootsOf())
	if !ko.Dead() || !uo.Dead() {
		t.Error("user-kernel garbage cycle not collected after merge")
	}
}

func TestMergePreservesThirdPartyEntries(t *testing.T) {
	w := newWorld(t, Config{})
	// A shared heap referenced by a user heap; the shared heap merges into
	// the kernel; the user's reference must keep pinning the object.
	shLim := w.root.MustChild("sh", memlimit.Unlimited, false)
	sh := w.reg.NewHeap(KindShared, "sh", shLim)
	user := w.userHeap(t, "p", memlimit.Unlimited)

	so, err := sh.Alloc(w.node)
	if err != nil {
		t.Fatal(err)
	}
	uo := w.alloc(t, user)
	uo.SetRef(0, so)
	if err := user.RecordCrossRef(so); err != nil {
		t.Fatal(err)
	}
	if err := sh.MergeInto(w.kernel); err != nil {
		t.Fatal(err)
	}
	if w.kernel.EntryCount() != 1 {
		t.Fatalf("entry items after merge = %d, want 1", w.kernel.EntryCount())
	}
	// Kernel GC must keep so alive (entry item is a root).
	w.kernel.Collect(rootsOf())
	if so.Dead() {
		t.Error("third-party-referenced object reclaimed")
	}
}

func TestFreezeStopsAllocation(t *testing.T) {
	w := newWorld(t, Config{})
	lim := w.root.MustChild("sh", memlimit.Unlimited, false)
	sh := w.reg.NewHeap(KindShared, "sh", lim)
	o, err := sh.Alloc(w.node)
	if err != nil {
		t.Fatal(err)
	}
	sh.Freeze()
	if !o.Frozen() {
		t.Error("object not frozen")
	}
	if _, err := sh.Alloc(w.node); err != ErrFrozen {
		t.Errorf("alloc on frozen heap: %v, want ErrFrozen", err)
	}
}

func TestOrphanedSharedHeap(t *testing.T) {
	w := newWorld(t, Config{})
	lim := w.root.MustChild("sh", memlimit.Unlimited, false)
	sh := w.reg.NewHeap(KindShared, "sh", lim)
	user := w.userHeap(t, "p", memlimit.Unlimited)
	so, _ := sh.Alloc(w.node)
	uo := w.alloc(t, user)
	uo.SetRef(0, so)
	if err := user.RecordCrossRef(so); err != nil {
		t.Fatal(err)
	}
	if !user.HasExitsTo(sh.ID) || sh.EntryCount() != 1 {
		t.Fatal("reference into the shared heap left no exit/entry item pair")
	}
	// User drops the reference and collects: the item pair dies, which is
	// what lets the sharing ledger credit the user's charge.
	uo.SetRef(0, nil)
	user.Collect(rootsOf(uo))
	if user.HasExitsTo(sh.ID) || sh.EntryCount() != 0 {
		t.Fatal("unreferenced shared heap still has an exit/entry item pair")
	}
}

func TestAllocOnDeadHeap(t *testing.T) {
	w := newWorld(t, Config{})
	h := w.userHeap(t, "p", memlimit.Unlimited)
	if err := h.MergeInto(w.kernel); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Alloc(w.node); err != ErrHeapDead {
		t.Errorf("alloc on dead heap: %v", err)
	}
	if err := h.MergeInto(w.kernel); err != ErrHeapDead {
		t.Errorf("double merge: %v", err)
	}
}

func TestAllocArray(t *testing.T) {
	w := newWorld(t, Config{})
	h := w.userHeap(t, "p", memlimit.Unlimited)
	d, _ := bytecode.ParseDesc("I")
	ia := object.NewArrayClass("[I", d, nil, w.obj, "test")
	arr, err := h.AllocArray(ia, 100)
	if err != nil {
		t.Fatal(err)
	}
	if arr.ArrayLen() != 100 {
		t.Errorf("len = %d", arr.ArrayLen())
	}
	if _, err := h.AllocArray(ia, -1); err == nil {
		t.Error("negative array size accepted")
	}
	// Array accounting is by element size.
	if h.Bytes() < 400 {
		t.Errorf("array accounted %d bytes, want >= 400", h.Bytes())
	}
}

func TestLargeObjectGetsOwnChunk(t *testing.T) {
	w := newWorld(t, Config{PagesPerChunk: 1})
	h := w.userHeap(t, "p", memlimit.Unlimited)
	d, _ := bytecode.ParseDesc("B")
	ba := object.NewArrayClass("[B", d, nil, w.obj, "test")
	// 64 KiB object with 4 KiB pages.
	arr, err := h.AllocArray(ba, 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := w.reg.Space.HeapOf(arr.Addr + 60000); got != h.ID {
		t.Error("large object pages not all owned by heap")
	}
}

func TestRegistryLookup(t *testing.T) {
	w := newWorld(t, Config{})
	h := w.userHeap(t, "p", memlimit.Unlimited)
	got, ok := w.reg.Lookup(h.ID)
	if !ok || got != h {
		t.Fatal("lookup failed")
	}
	o := w.alloc(t, h)
	hh, ok := w.reg.HeapOfObject(o)
	if !ok || hh != h {
		t.Fatal("HeapOfObject failed")
	}
	if err := h.MergeInto(w.kernel); err != nil {
		t.Fatal(err)
	}
	if _, ok := w.reg.Lookup(h.ID); ok {
		t.Error("dead heap still registered")
	}
	if len(w.reg.Heaps()) != 1 {
		t.Errorf("heaps = %d, want 1 (kernel)", len(w.reg.Heaps()))
	}
}

func TestLeaseFastPathAndFlush(t *testing.T) {
	w := newWorld(t, Config{})
	h := w.userHeap(t, "p", memlimit.Unlimited)
	o := w.alloc(t, h)
	if h.Lease() == 0 {
		t.Fatal("no standing lease after first allocation")
	}
	if h.Bytes()+h.Lease() != h.Limit().Use() {
		t.Fatalf("bytes %d + lease %d != use %d", h.Bytes(), h.Lease(), h.Limit().Use())
	}
	// Subsequent small allocations are served from the lease.
	w.alloc(t, h)
	st := h.Stats()
	if st.FastMisses != 1 || st.FastHits != 1 {
		t.Errorf("fastpath hits=%d misses=%d, want 1/1", st.FastHits, st.FastMisses)
	}
	// Collect flushes the lease: the accounting invariant tightens to
	// exactly the live bytes.
	h.Collect(rootsOf(o))
	if h.Lease() != 0 {
		t.Errorf("lease %d after collect, want 0", h.Lease())
	}
	if h.Bytes() != h.Limit().Use() {
		t.Errorf("bytes %d != use %d after collect", h.Bytes(), h.Limit().Use())
	}
}

func TestLeaseDisabled(t *testing.T) {
	w := newWorld(t, Config{LeaseBatch: -1})
	h := w.userHeap(t, "p", memlimit.Unlimited)
	w.alloc(t, h)
	w.alloc(t, h)
	if h.Lease() != 0 {
		t.Errorf("lease %d with leasing disabled", h.Lease())
	}
	if h.Bytes() != h.Limit().Use() {
		t.Errorf("bytes %d != use %d", h.Bytes(), h.Limit().Use())
	}
	if st := h.Stats(); st.FastHits != 0 || st.FastMisses != 2 {
		t.Errorf("fastpath hits=%d misses=%d, want 0/2", st.FastHits, st.FastMisses)
	}
}

func TestChunkRecyclingBoundsAddressSpace(t *testing.T) {
	w := newWorld(t, Config{PagesPerChunk: 1})
	h := w.userHeap(t, "p", memlimit.Unlimited)
	baseline := w.reg.Space.Pages()
	// Each round allocates ~8 one-page chunks of garbage; the heap may keep
	// maxFreeChunks of them on its free list and must release the rest, so
	// the page table stays bounded instead of growing by 8 pages per round.
	const perRound = 1024 // 1024 * 32 B = 8 pages
	for round := 0; round < 8; round++ {
		for i := 0; i < perRound; i++ {
			w.alloc(t, h)
		}
		if res := h.Collect(rootsOf()); res.Swept != perRound {
			t.Fatalf("round %d: swept %d, want %d", round, res.Swept, perRound)
		}
	}
	if extra := w.reg.Space.Pages() - baseline; extra > maxFreeChunks {
		t.Errorf("heap retains %d pages after collecting everything, want <= %d", extra, maxFreeChunks)
	}
	if h.Stats().PagesReleased == 0 {
		t.Error("no pages released to the address space")
	}
	// The free list must actually be reused: a fresh allocation must not
	// grow the page table.
	pages := w.reg.Space.Pages()
	w.alloc(t, h)
	if w.reg.Space.Pages() != pages {
		t.Error("allocation reserved fresh pages despite a populated free list")
	}
}

func TestHasExitsToCounter(t *testing.T) {
	w := newWorld(t, Config{})
	h := w.userHeap(t, "p", memlimit.Unlimited)
	ko, _ := w.kernel.Alloc(w.node)
	uo := w.alloc(t, h)
	uo.SetRef(0, ko)
	if err := h.RecordCrossRef(ko); err != nil {
		t.Fatal(err)
	}
	if !h.HasExitsTo(w.kernel.ID) {
		t.Fatal("HasExitsTo(kernel) = false with a live exit")
	}
	if h.HasExitsTo(h.ID) {
		t.Fatal("HasExitsTo reports exits to self")
	}
	// Dropping the reference and collecting releases the exit and its
	// counter.
	uo.SetRef(0, nil)
	h.Collect(rootsOf(uo))
	if h.HasExitsTo(w.kernel.ID) {
		t.Error("exit counter survived the collection that released the exit")
	}
}

func TestExitCounterFollowsTargetMerge(t *testing.T) {
	w := newWorld(t, Config{})
	shLim := w.root.MustChild("sh", memlimit.Unlimited, false)
	sh := w.reg.NewHeap(KindShared, "sh", shLim)
	user := w.userHeap(t, "p", memlimit.Unlimited)
	so, err := sh.Alloc(w.node)
	if err != nil {
		t.Fatal(err)
	}
	uo := w.alloc(t, user)
	uo.SetRef(0, so)
	if err := user.RecordCrossRef(so); err != nil {
		t.Fatal(err)
	}
	shID := sh.ID
	if err := sh.MergeInto(w.kernel); err != nil {
		t.Fatal(err)
	}
	// The exit's target now lives in the kernel heap; the O(1) counter
	// must have been remapped with it.
	if user.HasExitsTo(shID) {
		t.Error("exit counter still aimed at the dead heap")
	}
	if !user.HasExitsTo(w.kernel.ID) {
		t.Error("exit counter did not follow the merged target")
	}
}

func TestAllocateBlackSurvivesInFlightGC(t *testing.T) {
	w := newWorld(t, Config{})
	h := w.userHeap(t, "p", memlimit.Unlimited)
	// White-box: open the allocate-black window as a collection's window 1
	// does, then allocate. The object must be born marked, survive the
	// sweep of "its" collection, and carry no stale mark into the next.
	h.mu.Lock()
	h.gcActive = true
	h.mu.Unlock()
	born := w.alloc(t, h)
	if !born.Marked() {
		t.Fatal("object not allocated black during an active collection")
	}
	h.mu.Lock()
	h.gcActive = false
	h.mu.Unlock()
	// First collection: the stale-looking mark makes it a survivor, and
	// sweep must clear the bit.
	if res := h.Collect(rootsOf()); res.Swept != 0 || born.Dead() {
		t.Fatal("allocate-black object swept by its own collection")
	}
	// Second collection: unrooted, it is collected normally.
	if res := h.Collect(rootsOf()); res.Swept != 1 || !born.Dead() {
		t.Error("allocate-black object kept a stale mark bit")
	}
}

// TestStaleRootsAreIgnored roots a collection at objects that left the
// heap — swept by an earlier collection, merged into another heap, or
// destroyed with theirs. Membership is the header plus the dead flag, so
// none of them may be marked, scanned or reported as contained.
func TestStaleRootsAreIgnored(t *testing.T) {
	w := newWorld(t, Config{})
	h := w.userHeap(t, "p", memlimit.Unlimited)
	keep := w.alloc(t, h)
	swept := w.alloc(t, h)
	if res := h.Collect(rootsOf(keep)); res.Swept != 1 || !swept.Dead() {
		t.Fatalf("setup: swept %d, garbage dead %v", res.Swept, swept.Dead())
	}

	g := w.userHeap(t, "g", memlimit.Unlimited)
	merged := w.alloc(t, g)
	if err := g.MergeInto(w.kernel); err != nil {
		t.Fatal(err)
	}
	d := w.userHeap(t, "d", memlimit.Unlimited)
	destroyed := w.alloc(t, d)
	if err := d.Destroy(); err != nil {
		t.Fatal(err)
	}

	for name, c := range map[string]struct {
		o    *object.Object
		from *Heap
	}{"swept": {swept, h}, "merged": {merged, g}, "destroyed": {destroyed, d}} {
		if c.from.Contains(c.o) {
			t.Errorf("%s: old heap still contains it", name)
		}
		if h.Contains(c.o) {
			t.Errorf("%s: collected heap contains it", name)
		}
	}
	if !w.kernel.Contains(merged) {
		t.Error("merge target does not contain the merged object")
	}

	res := h.Collect(rootsOf(keep, swept, merged, destroyed))
	if res.Scanned != 1 || res.Swept != 0 {
		t.Errorf("collection with stale roots scanned %d, swept %d; want 1, 0", res.Scanned, res.Swept)
	}
	if h.Objects() != 1 || !h.Contains(keep) {
		t.Errorf("heap lists %d objects after the collection, want only the live one", h.Objects())
	}
	for _, o := range []*object.Object{swept, merged, destroyed} {
		if o.Marked() {
			t.Errorf("stale root %v left marked", o)
		}
	}
}

// TestAllocAllocationCeiling pins the Go allocations of Heap.Alloc: listing,
// addressing and charging an object cost nothing amortised beyond building
// it with object.New.
func TestAllocAllocationCeiling(t *testing.T) {
	w := newWorld(t, Config{})
	h := w.userHeap(t, "p", memlimit.Unlimited)
	var sink *object.Object
	built := testing.AllocsPerRun(1000, func() { sink = object.New(w.node) })
	var err error
	allocated := testing.AllocsPerRun(1000, func() { sink, err = h.Alloc(w.node) })
	if err != nil || allocated > built {
		t.Errorf("Heap.Alloc: %v Go allocations per object (err %v), object.New alone %v", allocated, err, built)
	}
	t.Logf("Heap.Alloc %v, object.New %v Go allocations per object (%v)", allocated, built, sink)
}
