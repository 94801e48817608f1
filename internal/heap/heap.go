// Package heap implements KaffeOS heaps: separately collected object pools
// with full memory accounting.
//
// Each process has its own heap, collected independently of all others;
// there is one kernel heap, and any number of frozen shared heaps used for
// inter-process communication. Cross-heap references are tracked with entry
// and exit items, a technique borrowed from distributed garbage collection
// (paper §2, "Full reclamation of memory"): an entry item in the target
// heap records that some other heap references an object, and a reference-
// counted exit item in the source heap remembers the entry item. Entry
// items act as GC roots for their heap, so each heap can be collected
// without scanning any other heap; when a heap's collector finds an exit
// item unreachable, it decrements the entry item's count, eventually
// letting the target heap reclaim the object.
//
// Collections of different heaps genuinely overlap: the registry-wide
// crossMu is held only for two short windows per collection (snapshotting
// entry-item roots, and releasing dead exit items), while mark and sweep
// run under the heap's own mutex. A per-heap gcMu serializes collections
// and merges of the *same* heap against each other. The lock order, used
// everywhere, is:
//
//	gcMu (both heaps', ordered by ID, when merging) → reg.crossMu → h.mu
//	(both heaps', ordered by ID, when merging) → memlimit tree → Space
//
// Space's mutex orders only its writers (Reserve, Release, Reassign); page
// table readers — the No Heap Pointer barrier — take no lock at all.
//
// When a process terminates, its heap is merged into the kernel heap; the
// kernel collector then reclaims everything, including user/kernel cycles.
package heap

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/faults"
	"repro/internal/memlimit"
	"repro/internal/object"
	"repro/internal/telemetry"
	"repro/internal/vmaddr"
)

// Kind classifies a heap.
type Kind uint8

const (
	KindKernel Kind = iota + 1
	KindUser
	KindShared
	// KindTemplate is an immutable checkpoint of a warmed user heap: the
	// backing store of a process template. Template heaps are frozen for
	// their whole post-copy lifetime, are never collected or merged, may
	// reference only kernel and shared heaps, and must never be referenced
	// by any other heap — forks deep-copy out of them instead.
	KindTemplate
)

func (k Kind) String() string {
	switch k {
	case KindKernel:
		return "kernel"
	case KindUser:
		return "user"
	case KindShared:
		return "shared"
	case KindTemplate:
		return "template"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Accounted sizes of GC bookkeeping structures. Entry and exit items are
// real memory in the paper's implementation and are charged to the heap
// that holds them.
const (
	entryItemBytes = 24
	exitItemBytes  = 24
)

// Simulated cycle costs of GC work, used to charge collection time to the
// owning process (paper §2: "Precise memory and CPU accounting" covers GC).
const (
	cyclesPerScan  = 12
	cyclesPerSweep = 20
)

// maxFreeChunks bounds the per-heap free list of recycled chunks; chunks
// beyond it are released back to the address space.
const maxFreeChunks = 4

var (
	// ErrHeapDead reports allocation on a merged (terminated) heap.
	ErrHeapDead = errors.New("heap: heap has been merged")
	// ErrFrozen reports allocation on a frozen shared heap.
	ErrFrozen = errors.New("heap: shared heap is frozen")
)

// Config carries allocation parameters that depend on the write-barrier
// implementation.
type Config struct {
	// HeaderExtra is added to every object's accounted size. The "Heap
	// Pointer" barrier needs 4 bytes in the header for the heap ID; the
	// "Fake Heap Pointer" configuration pads by 4 bytes without using them
	// (paper §4.1).
	HeaderExtra int
	// PagesPerChunk is how many pages a heap leases at a time from the
	// address space (default 16).
	PagesPerChunk int
	// LeaseBatch is the headroom, in bytes, a heap debits from its
	// memlimit beyond each allocation that misses the standing lease, so
	// subsequent allocations touch only the heap's own mutex (the Go
	// runtime's mcache idea applied to memlimits). 0 selects the default
	// of 64 KiB; a negative value disables leasing entirely.
	LeaseBatch int
}

func (c Config) pagesPerChunk() int {
	if c.PagesPerChunk <= 0 {
		return 16
	}
	return c.PagesPerChunk
}

func (c Config) leaseBatch() uint64 {
	if c.LeaseBatch < 0 {
		return 0
	}
	if c.LeaseBatch == 0 {
		return 64 << 10
	}
	return uint64(c.LeaseBatch)
}

// Registry tracks every live heap of one VM and owns the cross-heap
// structures' lock.
type Registry struct {
	Space *vmaddr.Space
	Cfg   Config

	mu    sync.RWMutex
	heaps map[vmaddr.HeapID]*Heap

	// crossMu serializes all entry/exit item manipulation across heaps,
	// avoiding lock-order cycles between pairs of heaps. Collections hold
	// it only for two short windows (root snapshot, exit release), not for
	// the whole mark/sweep.
	crossMu sync.Mutex

	// active counts collections currently in flight; maxActive is the
	// high-water mark since VM start (the gc.overlap gauge).
	active    atomic.Int64
	maxActive atomic.Int64

	// Telemetry, when set, receives EvGCStart/EvGCEnd events for every
	// collection of every heap in the registry.
	Telemetry telemetry.Sink

	// Faults, when set, is the injection plane: SiteHeapAlloc makes adopt
	// refuse an allocation as if the memlimit were exhausted, SiteHeapMark
	// interrupts a collection between its mark and re-check windows.
	Faults *faults.Plane
	// OnFaultKill is invoked (outside all heap locks' critical mutations,
	// but with the collection in flight) when SiteHeapMark fires during a
	// collection of h; the VM wires it to kill the heap's owning process,
	// provoking the paper's kill-during-GC corner.
	OnFaultKill func(h *Heap)
}

// NewRegistry creates a registry over an address space.
func NewRegistry(space *vmaddr.Space, cfg Config) *Registry {
	return &Registry{
		Space: space,
		Cfg:   cfg,
		heaps: make(map[vmaddr.HeapID]*Heap),
	}
}

// Lookup resolves a heap ID.
func (r *Registry) Lookup(id vmaddr.HeapID) (*Heap, bool) {
	r.mu.RLock()
	h, ok := r.heaps[id]
	r.mu.RUnlock()
	return h, ok
}

// HeapOfObject resolves the heap owning o via its header heap ID.
func (r *Registry) HeapOfObject(o *object.Object) (*Heap, bool) {
	return r.Lookup(o.Heap)
}

// Heaps returns a snapshot of all live heaps.
func (r *Registry) Heaps() []*Heap {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Heap, 0, len(r.heaps))
	for _, h := range r.heaps {
		out = append(out, h)
	}
	return out
}

// MaxConcurrentGCs reports the largest number of collections that have
// ever been in flight simultaneously.
func (r *Registry) MaxConcurrentGCs() int { return int(r.maxActive.Load()) }

// noteOverlap raises the overlap high-water mark to n and emits an
// EvGCOverlap event on every new maximum.
func (r *Registry) noteOverlap(n int64) {
	for {
		m := r.maxActive.Load()
		if n <= m {
			return
		}
		if r.maxActive.CompareAndSwap(m, n) {
			if r.Telemetry != nil {
				r.Telemetry.Emit(telemetry.Event{Kind: telemetry.EvGCOverlap, A: uint64(n)})
			}
			return
		}
	}
}

// EntryItem records that objects in other heaps reference Target, which
// lives in the heap holding the item. A positive RefCount pins Target as a
// GC root of its heap.
type EntryItem struct {
	Target   *object.Object
	RefCount int
}

// ExitItem lives in the source heap and remembers the entry item its heap's
// references point at.
type ExitItem struct {
	Target *object.Object
	Entry  *EntryItem
	// gen is the source heap's collection generation when the exit was
	// created or last re-confirmed by a store. An exit stamped with the
	// generation of an in-flight collection is not released by it: the
	// store happened after the mark snapshot, so the collection cannot
	// prove the exit dead.
	gen uint64
}

// Stats accumulates per-heap counters.
type Stats struct {
	Allocs     uint64
	AllocBytes uint64
	GCs        uint64
	Scanned    uint64
	Swept      uint64
	FreedBytes uint64
	GCCycles   uint64
	// FastHits/FastMisses count allocations served from the standing
	// memlimit lease vs. those that had to debit the tree.
	FastHits   uint64
	FastMisses uint64
	// PagesReleased counts address-space pages returned by chunk
	// reclamation (sweep and merge).
	PagesReleased uint64
}

// GCResult reports one collection.
type GCResult struct {
	Scanned    int
	Swept      int
	FreedBytes uint64
	// PagesReleased is the number of address-space pages returned by this
	// collection's chunk reclamation.
	PagesReleased int
	// Cycles is the simulated CPU cost, to be charged to the heap's owner.
	Cycles uint64
}

// Heap is one independently collected object pool.
type Heap struct {
	ID   vmaddr.HeapID
	Kind Kind
	Name string

	reg   *Registry
	limit *memlimit.Limit

	// gcMu serializes collections and merges involving this heap against
	// each other, while collections of different heaps run concurrently.
	// It is acquired before reg.crossMu and h.mu, never after.
	gcMu sync.Mutex

	mu sync.Mutex
	// objects lists the heap's objects in allocation order (a merge
	// appends the merged heap's list). Membership needs no lookup: see
	// owns.
	objects []*object.Object
	chunks  []chunk
	cur     int // index of chunk being bump-allocated
	free    []chunk
	bytes   uint64
	// byBase is sweep scratch: indexes into chunks sorted by base address.
	byBase []int
	// lease is headroom already debited from limit but not yet allocated:
	// allocations that fit take it with only h.mu held.
	lease uint64
	// gcActive is true from a collection's root snapshot until its sweep
	// completes; objects adopted in that window are allocated black
	// (marked) so the in-flight sweep cannot free them.
	gcActive bool
	// gcGen counts collections; it stamps exit items (see ExitItem.gen).
	gcGen uint64

	// entries: target object in THIS heap <- referenced from other heaps.
	// exits: target object in ANOTHER heap referenced from this heap.
	// exitsTo: number of exit items per target heap, kept in lockstep with
	// exits so HasExitsTo is O(1). All three are guarded by reg.crossMu,
	// not h.mu.
	entries map[*object.Object]*EntryItem
	exits   map[*object.Object]*ExitItem
	exitsTo map[vmaddr.HeapID]int

	frozen bool
	dead   bool

	stats Stats
	// fastFlushed* remember the stats values already emitted as
	// EvGCFastPath deltas (guarded by h.mu).
	fastFlushedHits   uint64
	fastFlushedMisses uint64

	// Owner is an opaque back-pointer to the heap's owner — a process, a
	// template, a shared heap's ledger entry — or nil for the kernel heap.
	Owner any

	// Pid tags GC telemetry with the owning process (0 = kernel/shared).
	// Set by the VM layer when it creates the heap for a process.
	Pid int32

	// requester is the serving-plane request id (0 = none) to charge the
	// next collection's telemetry to. The VM layer sets it around the
	// collections a request triggers so EvGCStart/EvGCEnd carry the
	// request stamp. Atomic because GC runs under heap locks the setter
	// does not hold.
	requester atomic.Uint64
}

// SetRequester stamps the request id (0 to clear) that subsequent
// collections of this heap will be attributed to.
func (h *Heap) SetRequester(req uint64) { h.requester.Store(req) }

type chunk struct {
	base  uint64
	pages int
	off   uint64
	// live is sweep scratch: some surviving object lies in the chunk.
	live bool
}

// NewHeap creates a heap whose allocations are debited from limit.
func (r *Registry) NewHeap(kind Kind, name string, limit *memlimit.Limit) *Heap {
	return r.NewOwnedHeap(kind, name, limit, nil, 0)
}

// NewOwnedHeap is NewHeap for a heap handed to an owner (see Heap.Owner and
// Heap.Pid): both are set before the registry publishes the heap, so
// concurrent snapshots never see it unowned.
func (r *Registry) NewOwnedHeap(kind Kind, name string, limit *memlimit.Limit, owner any, pid int32) *Heap {
	h := &Heap{
		ID:      r.Space.NewHeapID(),
		Kind:    kind,
		Name:    name,
		Owner:   owner,
		Pid:     pid,
		reg:     r,
		limit:   limit,
		entries: make(map[*object.Object]*EntryItem),
		exits:   make(map[*object.Object]*ExitItem),
		exitsTo: make(map[vmaddr.HeapID]int),
	}
	r.mu.Lock()
	r.heaps[h.ID] = h
	r.mu.Unlock()
	return h
}

// Limit returns the heap's memlimit.
func (h *Heap) Limit() *memlimit.Limit { return h.limit }

// Bytes reports live accounted bytes.
func (h *Heap) Bytes() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.bytes
}

// Lease reports the standing memlimit headroom lease: bytes debited from
// the limit tree but not yet allocated. The accounting invariant, on every
// path, is limit-use attributable to the heap == Bytes() + Lease().
func (h *Heap) Lease() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lease
}

// Objects reports the number of live objects.
func (h *Heap) Objects() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.objects)
}

// Stats returns a copy of the heap's counters.
func (h *Heap) Stats() Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stats
}

// Frozen reports whether the heap has been frozen (shared heaps only).
func (h *Heap) Frozen() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.frozen
}

// Dead reports whether the heap has been merged away.
func (h *Heap) Dead() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dead
}

// Alloc allocates an instance of class c on h.
func (h *Heap) Alloc(c *object.Class) (*object.Object, error) {
	return h.AllocExtra(c, 0)
}

// AllocExtra allocates an instance of c charged with extra additional
// bytes, for objects carrying native payloads (string characters, buffers).
func (h *Heap) AllocExtra(c *object.Class, extra uint64) (*object.Object, error) {
	size := c.InstanceBytes + extra + uint64(h.reg.Cfg.HeaderExtra)
	o := object.New(c)
	o.SizeExtra = uint32(extra)
	if err := h.adopt(o, size); err != nil {
		return nil, err
	}
	return o, nil
}

// AllocArray allocates an n-element array of array class c on h.
func (h *Heap) AllocArray(c *object.Class, n int) (*object.Object, error) {
	if n < 0 {
		return nil, fmt.Errorf("heap: negative array size %d", n)
	}
	size := c.ArraySizeBytes(n) + uint64(h.reg.Cfg.HeaderExtra)
	o := object.NewArray(c, n)
	if err := h.adopt(o, size); err != nil {
		return nil, err
	}
	return o, nil
}

// adopt charges, addresses, and registers a freshly built object. The fast
// path — lease covers the size and the current chunk has room — touches
// only h.mu.
func (h *Heap) adopt(o *object.Object, size uint64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.dead {
		return ErrHeapDead
	}
	if h.frozen {
		return ErrFrozen
	}
	if h.reg.Faults.Fire(faults.SiteHeapAlloc) {
		// Injected allocation failure: refuse before any charge, exactly as
		// an exhausted memlimit would surface (OutOfMemoryError upstream).
		return &memlimit.ErrExceeded{Limit: h.limit, Need: size}
	}
	if h.lease >= size {
		h.lease -= size
		h.stats.FastHits++
	} else {
		h.stats.FastMisses++
		lease, err := h.limit.DebitLease(size, h.reg.Cfg.leaseBatch(), h.lease)
		if err != nil {
			// DebitLease consumed the refund; the lease is gone.
			h.lease = 0
			return err
		}
		h.lease = lease
	}
	addr, err := h.bump(size)
	if err != nil {
		h.limit.Credit(size)
		return err
	}
	o.Addr = addr
	o.Heap = h.ID
	o.Hash = int32(addr>>3) ^ int32(addr>>19)
	if h.gcActive {
		// Allocate black: an in-flight collection of this heap must not
		// sweep an object born after its root snapshot.
		o.SetMark(true)
	}
	h.objects = append(h.objects, o)
	h.bytes += size
	h.stats.Allocs++
	h.stats.AllocBytes += size
	return nil
}

// bump assigns an address, recycling a free chunk or leasing new pages as
// needed. Caller holds h.mu.
func (h *Heap) bump(size uint64) (uint64, error) {
	// An object never spans chunks; oversized objects get a dedicated
	// multi-page chunk.
	for h.cur < len(h.chunks) {
		c := &h.chunks[h.cur]
		capacity := uint64(c.pages) << vmaddr.PageShift
		if c.off+size <= capacity {
			addr := c.base + c.off
			c.off += size
			return addr, nil
		}
		h.cur++
	}
	std := h.reg.Cfg.pagesPerChunk()
	if n := len(h.free); n > 0 && size <= uint64(std)<<vmaddr.PageShift {
		c := h.free[n-1]
		h.free = h.free[:n-1]
		c.off = size
		h.chunks = append(h.chunks, c)
		h.cur = len(h.chunks) - 1
		return c.base, nil
	}
	pages := std
	if need := vmaddr.PagesFor(size); need > pages {
		pages = need
	}
	base, err := h.reg.Space.Reserve(h.ID, pages)
	if err != nil {
		return 0, err
	}
	h.chunks = append(h.chunks, chunk{base: base, pages: pages, off: size})
	h.cur = len(h.chunks) - 1
	return base, nil
}

// Contains reports whether o is registered in h.
func (h *Heap) Contains(o *object.Object) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.owns(o)
}

// owns reports whether o is on h's object list, without searching it. The
// header heap ID and the dead flag decide, because of three rules:
//   - adopt stamps o.Heap only once o is charged, addressed and listed, so
//     an object whose allocation failed carries no heap;
//   - MergeInto rewrites the headers of everything it moves under both
//     heaps' mutexes, so an object merged away no longer names h;
//   - sweep and Destroy set FlagDead on every object they drop, and no
//     path clears it.
//
// Caller holds h.mu, which makes o's header stable if it names h.
func (h *Heap) owns(o *object.Object) bool {
	return o.Heap == h.ID && !o.Dead()
}

// RecordCrossRef notes that an object in h now references target, which
// lives in another heap. The write barrier calls this for every legal
// cross-heap pointer store. The exit item is charged to h and the entry
// item to the target's heap.
func (h *Heap) RecordCrossRef(target *object.Object) error {
	th, ok := h.reg.Lookup(target.Heap)
	if !ok {
		return fmt.Errorf("heap: cross ref to object in unknown heap %d", target.Heap)
	}
	if th == h {
		return nil
	}
	h.reg.crossMu.Lock()
	defer h.reg.crossMu.Unlock()
	if exit, ok := h.exits[target]; ok {
		// Re-confirm for any in-flight collection of h: the store proves
		// the exit live even if the mark snapshot predates it.
		exit.gen = h.gcGen
		return nil
	}
	entry, ok := th.entries[target]
	if !ok {
		if err := th.limit.Debit(entryItemBytes); err != nil {
			return err
		}
		entry = &EntryItem{Target: target}
		th.entries[target] = entry
	}
	if err := h.limit.Debit(exitItemBytes); err != nil {
		if entry.RefCount == 0 {
			delete(th.entries, target)
			th.limit.Credit(entryItemBytes)
		}
		return err
	}
	entry.RefCount++
	h.exits[target] = &ExitItem{Target: target, Entry: entry, gen: h.gcGen}
	h.exitsTo[target.Heap]++
	return nil
}

// EntryCount reports the number of entry items (for tests/stats).
func (h *Heap) EntryCount() int {
	h.reg.crossMu.Lock()
	defer h.reg.crossMu.Unlock()
	return len(h.entries)
}

// ExitCount reports the number of exit items (for tests/stats).
func (h *Heap) ExitCount() int {
	h.reg.crossMu.Lock()
	defer h.reg.crossMu.Unlock()
	return len(h.exits)
}

// RootFunc enumerates external GC roots of a heap (thread stacks, statics,
// VM handles). It must call visit for every root reference; visit ignores
// nils and objects outside the heap being collected, so providers may
// over-approximate.
type RootFunc func(visit func(*object.Object))

// Collect runs a full mark-and-sweep over h. roots supplies the external
// roots; entry items with positive counts are roots implicitly. References
// that leave the heap are not followed (that is the point of the design);
// instead the set of still-referenced exit targets is recomputed, and exit
// items that became unreachable release their entry items.
//
// Collections of different heaps overlap: reg.crossMu is held only to
// snapshot entry-item roots (plus a re-check for entries that appeared
// while marking) and to release dead exit items at the end. Mark and sweep
// run under h.mu alone. Callers must guarantee that the heap's own object
// graph and root set are not mutated during the collection — in the VM
// that holds because a heap's mutator threads and its collections share
// the scheduler goroutine (or the scheduler is stopped, for CollectAll).
// Cross-heap mutations (RecordCrossRef, allocations into other heaps,
// merges of unrelated heaps) are safe at any point.
func (h *Heap) Collect(roots RootFunc) GCResult {
	h.gcMu.Lock()
	defer h.gcMu.Unlock()

	reg := h.reg
	inFlight := reg.active.Add(1)
	defer reg.active.Add(-1)
	reg.noteOverlap(inFlight)

	var res GCResult
	var stack []*object.Object
	externalLive := make(map[*object.Object]bool)

	pushRoot := func(o *object.Object) {
		// Ownership is checked before the mark bit is touched: roots may
		// over-approximate (stale, swept or foreign objects), and a foreign
		// object's flags must never be read while its own heap collects —
		// owns reads them only once the header names h.
		if o == nil || !h.owns(o) {
			return
		}
		if o.Marked() {
			return
		}
		o.SetMark(true)
		stack = append(stack, o)
	}
	mark := func() {
		for len(stack) > 0 {
			o := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			res.Scanned++
			for _, ref := range o.Refs {
				if ref == nil {
					continue
				}
				if ref.Heap == h.ID {
					if !ref.Marked() {
						ref.SetMark(true)
						stack = append(stack, ref)
					}
				} else {
					externalLive[ref] = true
				}
			}
		}
	}

	// Window 1 (crossMu + h.mu): snapshot entry-item roots, open the
	// allocate-black window, and advance the exit generation so exits
	// recorded from here on survive this collection.
	reg.crossMu.Lock()
	h.mu.Lock()
	if h.dead {
		h.mu.Unlock()
		reg.crossMu.Unlock()
		return GCResult{}
	}
	h.gcGen++
	gen := h.gcGen
	h.gcActive = true
	if reg.Telemetry != nil {
		reg.Telemetry.Emit(telemetry.Event{
			Kind: telemetry.EvGCStart, Pid: h.Pid, Req: h.requester.Load(),
			A: h.bytes, B: uint64(len(h.objects)), Detail: h.Name,
		})
	}
	for _, e := range h.entries {
		if e.RefCount > 0 {
			pushRoot(e.Target)
		}
	}
	reg.crossMu.Unlock() // h.mu stays held: mark runs under the heap's own lock

	if roots != nil {
		roots(pushRoot)
	}
	mark()
	h.mu.Unlock()

	// Fault site: kill the owner between the mark and the entry re-check
	// windows — the collection must still complete and every invariant must
	// survive the process dying mid-GC (paper §2, safe termination).
	if reg.Faults.Fire(faults.SiteHeapMark) && reg.OnFaultKill != nil {
		reg.OnFaultKill(h)
	}

	// Window 2 (crossMu + h.mu): entry items created while marking ran (a
	// concurrent RecordCrossRef targeting this heap) are roots this
	// collection must still honor; close the marking under them.
	reg.crossMu.Lock()
	h.mu.Lock()
	for _, e := range h.entries {
		if e.RefCount > 0 {
			pushRoot(e.Target)
		}
	}
	reg.crossMu.Unlock() // h.mu stays held for the supplementary mark + sweep
	mark()

	// Sweep (h.mu only): compact the object list in place, noting the
	// chunk of every survivor as it goes. Freed bytes and the standing
	// lease are credited back to the memlimit tree in one batch, and
	// chunks no survivor lies in are recycled or released.
	for i := range h.chunks {
		h.chunks[i].live = false
	}
	h.byBase = h.byBase[:0]
	var lo, hi uint64 // the chunk the previous survivor lay in
	kept := h.objects[:0]
	for _, o := range h.objects {
		if !o.Marked() {
			size := h.sizeOf(o)
			h.bytes -= size
			res.Swept++
			res.FreedBytes += size
			o.Sever()
			continue
		}
		o.SetMark(false)
		kept = append(kept, o)
		// Allocation order keeps neighbours on one chunk; search only when
		// a survivor leaves the previous one.
		if o.Addr-lo >= hi-lo {
			lo, hi = h.markChunkLocked(o.Addr)
		}
	}
	clear(h.objects[len(kept):])
	h.objects = kept
	if res.Swept > 0 {
		res.PagesReleased = h.sweepChunksLocked()
	}
	if credit := res.FreedBytes + h.lease; credit > 0 {
		h.lease = 0
		h.limit.Credit(credit)
	}
	h.gcActive = false
	h.mu.Unlock()

	// Window 3 (crossMu + h.mu): release exit items whose targets this
	// heap provably no longer references, then publish stats.
	reg.crossMu.Lock()
	h.mu.Lock()
	var exitCredit uint64
	for target, exit := range h.exits {
		if externalLive[target] || exit.gen == gen {
			continue
		}
		delete(h.exits, target)
		if n := h.exitsTo[target.Heap] - 1; n > 0 {
			h.exitsTo[target.Heap] = n
		} else {
			delete(h.exitsTo, target.Heap)
		}
		exitCredit += exitItemBytes
		h.releaseEntryLocked(exit.Entry)
	}
	if exitCredit > 0 {
		h.limit.Credit(exitCredit)
	}

	res.Cycles = uint64(res.Scanned)*cyclesPerScan + uint64(res.Swept)*cyclesPerSweep
	h.stats.GCs++
	h.stats.Scanned += uint64(res.Scanned)
	h.stats.Swept += uint64(res.Swept)
	h.stats.FreedBytes += res.FreedBytes
	h.stats.GCCycles += res.Cycles
	h.stats.PagesReleased += uint64(res.PagesReleased)
	if reg.Telemetry != nil {
		h.emitFastPathLocked()
		reg.Telemetry.Emit(telemetry.Event{
			Kind: telemetry.EvGCEnd, Pid: h.Pid, Req: h.requester.Load(),
			A: res.Cycles, B: res.FreedBytes, Detail: h.Name,
		})
	}
	h.mu.Unlock()
	reg.crossMu.Unlock()
	return res
}

// emitFastPathLocked emits the allocation fast-path counters accumulated
// since the last emission. Caller holds h.mu and reg.Telemetry != nil.
func (h *Heap) emitFastPathLocked() {
	fh := h.stats.FastHits - h.fastFlushedHits
	fm := h.stats.FastMisses - h.fastFlushedMisses
	if fh == 0 && fm == 0 {
		return
	}
	h.fastFlushedHits = h.stats.FastHits
	h.fastFlushedMisses = h.stats.FastMisses
	h.reg.Telemetry.Emit(telemetry.Event{
		Kind: telemetry.EvGCFastPath, Pid: h.Pid, A: fh, B: fm, Detail: h.Name,
	})
}

// markChunkLocked flags the chunk holding addr live and returns its
// address range. The first call of a sweep sorts an index of the chunks by
// base: they are not address-ordered in general (merge appends foreign
// ranges, recycling re-appends old bases). Caller holds h.mu.
func (h *Heap) markChunkLocked(addr uint64) (lo, hi uint64) {
	if len(h.byBase) == 0 {
		for i := range h.chunks {
			h.byBase = append(h.byBase, i)
		}
		slices.SortFunc(h.byBase, func(a, b int) int { return cmp.Compare(h.chunks[a].base, h.chunks[b].base) })
	}
	i, found := slices.BinarySearchFunc(h.byBase, addr, func(i int, addr uint64) int {
		c := &h.chunks[i]
		switch {
		case addr >= c.base+uint64(c.pages)<<vmaddr.PageShift:
			return -1
		case addr < c.base:
			return 1
		}
		return 0
	})
	if !found {
		return 0, 0 // outside every chunk: the auditor's object-chunk rule
	}
	c := &h.chunks[h.byBase[i]]
	c.live = true
	return c.base, c.base + uint64(c.pages)<<vmaddr.PageShift
}

// sweepChunksLocked retires chunks that no surviving object lies in (the
// sweep flagged the others live): standard-size chunks go to the heap's
// bounded free list for reuse, everything else (oversized chunks,
// free-list overflow) is released back to the address space. Returns the
// number of pages released. Caller holds h.mu.
func (h *Heap) sweepChunksLocked() int {
	std := h.reg.Cfg.pagesPerChunk()
	released := 0
	curSurvived := -1
	kept := h.chunks[:0]
	for i := range h.chunks {
		c := h.chunks[i]
		if c.live {
			if i == h.cur {
				curSurvived = len(kept)
			}
			kept = append(kept, c)
			continue
		}
		if c.pages == std && len(h.free) < maxFreeChunks {
			c.off = 0
			h.free = append(h.free, c)
			continue
		}
		h.reg.Space.Release(h.ID, c.base, c.pages)
		released += c.pages
	}
	h.chunks = kept
	if curSurvived >= 0 {
		h.cur = curSurvived
	} else {
		h.cur = len(h.chunks)
	}
	return released
}

// flushLeaseLocked returns the standing headroom lease to the memlimit
// tree. Called before any operation that assumes limit use == live bytes
// (+ item bytes): merge, freeze, retarget. Caller holds h.mu.
func (h *Heap) flushLeaseLocked() {
	if h.lease > 0 {
		h.limit.Credit(h.lease)
		h.lease = 0
	}
}

// releaseEntryLocked decrements an entry item; at zero the item is removed
// from its heap. Caller holds reg.crossMu.
func (h *Heap) releaseEntryLocked(e *EntryItem) {
	e.RefCount--
	if e.RefCount > 0 {
		return
	}
	th, ok := h.reg.Lookup(e.Target.Heap)
	if !ok {
		return
	}
	if cur, present := th.entries[e.Target]; present && cur == e {
		delete(th.entries, e.Target)
		th.limit.Credit(entryItemBytes)
	}
}

// sizeOf recomputes the accounted size of o. Caller holds h.mu.
func (h *Heap) sizeOf(o *object.Object) uint64 {
	if o.IsArray() {
		return o.Class.ArraySizeBytes(o.ArrayLen()) + uint64(h.reg.Cfg.HeaderExtra)
	}
	return o.Class.InstanceBytes + uint64(o.SizeExtra) + uint64(h.reg.Cfg.HeaderExtra)
}

// RetargetLimit moves the heap's accounted use to a new memlimit and makes
// future credits/debits flow there. Used when a populated shared heap is
// frozen: its storage stops being the creator's and becomes system-wide,
// while sharers are charged through their own memlimits.
func (h *Heap) RetargetLimit(newLimit *memlimit.Limit) error {
	h.reg.crossMu.Lock()
	defer h.reg.crossMu.Unlock()
	h.mu.Lock()
	defer h.mu.Unlock()
	// The lease is an artifact of the old limit; return it first so the
	// transfer moves exactly the live bytes.
	h.flushLeaseLocked()
	// Item bytes are charged to h.limit as well; move everything.
	var itemBytes uint64
	itemBytes += uint64(len(h.entries)) * entryItemBytes
	itemBytes += uint64(len(h.exits)) * exitItemBytes
	if err := h.limit.Transfer(h.bytes+itemBytes, newLimit); err != nil {
		return err
	}
	h.limit = newLimit
	return nil
}

// HasExitsTo reports whether this heap holds any exit item targeting an
// object in heap id — i.e. whether objects in h still reference that heap.
// O(1): the per-target-heap exit counters are maintained by RecordCrossRef,
// Collect, and MergeInto.
func (h *Heap) HasExitsTo(id vmaddr.HeapID) bool {
	h.reg.crossMu.Lock()
	defer h.reg.crossMu.Unlock()
	return h.exitsTo[id] > 0
}

// Freeze marks a shared heap read-only for reference fields and closed for
// allocation (paper §2: after a shared heap is populated, "it is frozen and
// its size remains fixed for its lifetime"). The standing lease is
// returned: a frozen heap never allocates again.
func (h *Heap) Freeze() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.flushLeaseLocked()
	h.frozen = true
	for _, o := range h.objects {
		o.Flags |= object.FlagFrozen
	}
}
