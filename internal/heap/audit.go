package heap

import (
	"sort"

	"repro/internal/memlimit"
	"repro/internal/object"
	"repro/internal/vmaddr"
)

// PageRange is one leased chunk of the address space, as seen by a heap.
type PageRange struct {
	Base  uint64
	Pages int
}

// ObjView pairs a live object pointer with the values of its mutable
// ownership header and dead flag, captured inside the snapshot cut. Numeric
// checks must use the captured fields, never the live header: a reclaim
// merge rewrites Object.Heap, and a sweep sets FlagDead, after the cut's
// locks are released.
type ObjView struct {
	Obj  *object.Object
	Heap vmaddr.HeapID
	Dead bool
}

// HeapView is a point-in-time copy of one heap's accounting state, captured
// by Registry.SnapshotAll for the whole-kernel invariant auditor. Numeric
// fields (including the captured object headers) are copies; the object
// pointers themselves reference live objects, so graph-level inspection of
// Object.Refs is only meaningful while the VM is quiescent (no mutator
// running).
type HeapView struct {
	ID     vmaddr.HeapID
	Kind   Kind
	Name   string
	Pid    int32
	Frozen bool

	// Bytes is the heap's accounted live bytes; Lease its standing memlimit
	// headroom; SizedBytes the recomputed sum of sizeOf over every live
	// object (must equal Bytes).
	Bytes      uint64
	Lease      uint64
	SizedBytes uint64

	// Limit is the memlimit the heap charges; EntryBytes/ExitBytes are the
	// item bytes currently charged there.
	Limit      *memlimit.Limit
	EntryBytes uint64
	ExitBytes  uint64

	// Objects lists every live object with its captured header. Entries maps
	// entry-item targets (in THIS heap) to their reference counts; Exits maps
	// exit-item targets (in OTHER heaps) to the heap the target lived in at
	// capture; ExitsTo is the per-target-heap exit counter.
	Objects []ObjView
	Entries map[*object.Object]int
	Exits   map[*object.Object]vmaddr.HeapID
	ExitsTo map[vmaddr.HeapID]int

	// Chunks are the page ranges the heap bump-allocates in; Free is its
	// recycled-chunk free list. Together they are exactly the pages the heap
	// owns in the address-space table.
	Chunks []PageRange
	Free   []PageRange
}

// SnapshotAll captures every live heap's accounting state in one globally
// consistent cut: it acquires every heap's gcMu (by ID), the registry cross
// lock, and every heap's mutex (by ID), so no collection, merge, allocation,
// or cross-reference recording is in flight while the views are built.
//
// extra, if non-nil, runs while all locks are held; the caller uses it to
// capture the memlimit tree and the page table inside the same cut (the
// established lock order is h.mu → memlimit tree → Space, so both are safe
// to read there).
func (r *Registry) SnapshotAll(extra func()) []HeapView {
	heaps := r.Heaps()
	sort.Slice(heaps, func(i, j int) bool { return heaps[i].ID < heaps[j].ID })
	for _, h := range heaps {
		h.gcMu.Lock()
	}
	r.crossMu.Lock()
	for _, h := range heaps {
		h.mu.Lock()
	}

	views := make([]HeapView, 0, len(heaps))
	for _, h := range heaps {
		if h.dead {
			// Merged away between listing and locking; its pages and objects
			// already belong to the destination heap.
			continue
		}
		v := HeapView{
			ID:         h.ID,
			Kind:       h.Kind,
			Name:       h.Name,
			Pid:        h.Pid,
			Frozen:     h.frozen,
			Bytes:      h.bytes,
			Lease:      h.lease,
			Limit:      h.limit,
			EntryBytes: uint64(len(h.entries)) * entryItemBytes,
			ExitBytes:  uint64(len(h.exits)) * exitItemBytes,
			Objects:    make([]ObjView, 0, len(h.objects)),
			Entries:    make(map[*object.Object]int, len(h.entries)),
			Exits:      make(map[*object.Object]vmaddr.HeapID, len(h.exits)),
			ExitsTo:    make(map[vmaddr.HeapID]int, len(h.exitsTo)),
			Chunks:     make([]PageRange, 0, len(h.chunks)),
			Free:       make([]PageRange, 0, len(h.free)),
		}
		for _, o := range h.objects {
			v.Objects = append(v.Objects, ObjView{Obj: o, Heap: o.Heap, Dead: o.Dead()})
			v.SizedBytes += h.sizeOf(o)
		}
		for target, e := range h.entries {
			v.Entries[target] = e.RefCount
		}
		for target := range h.exits {
			v.Exits[target] = target.Heap
		}
		for id, n := range h.exitsTo {
			v.ExitsTo[id] = n
		}
		for _, c := range h.chunks {
			v.Chunks = append(v.Chunks, PageRange{Base: c.base, Pages: c.pages})
		}
		for _, c := range h.free {
			v.Free = append(v.Free, PageRange{Base: c.base, Pages: c.pages})
		}
		views = append(views, v)
	}
	if extra != nil {
		extra()
	}

	for i := len(heaps) - 1; i >= 0; i-- {
		heaps[i].mu.Unlock()
	}
	r.crossMu.Unlock()
	for i := len(heaps) - 1; i >= 0; i-- {
		heaps[i].gcMu.Unlock()
	}
	return views
}
