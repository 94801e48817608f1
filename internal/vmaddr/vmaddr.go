// Package vmaddr provides the simulated virtual address space that underlies
// all KaffeOS heaps.
//
// KaffeOS does not assume an MMU or OS virtual-memory support (the paper
// targets hosts as small as a Palm Pilot), but its "No Heap Pointer" write
// barrier still needs to map an object's address to the heap that owns it by
// looking at the page on which the object lies. This package implements that
// substrate: heaps lease aligned page ranges from a single Space, every
// object is assigned an address inside its heap's pages, and a global page
// table maps any address back to the owning heap.
//
// The page table has two levels: a directory of fixed-size leaves, each
// holding one atomic word per page. Readers take no lock — resolving an
// address is three atomic loads — while the writers (Reserve, Release,
// Reassign) serialize on the Space's mutex. A leaf whose pages have all
// been released, and which lies wholly below the next unleased address, can
// never be mapped again and is dropped, so the table's memory follows the
// live pages rather than every address ever leased.
//
// When a process terminates, its heap is merged into the kernel heap; the
// page table supports reassigning leased pages to a different heap so the
// merge is O(pages), not O(objects).
package vmaddr

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// HeapID names a heap within a Space. IDs are never reused, so a stale
// address can be detected as belonging to a dead heap.
type HeapID uint32

// NoHeap is the zero HeapID; no heap is ever allocated with it. An unmapped
// page's table entry holds it.
const NoHeap HeapID = 0

const (
	// PageShift is log2 of the simulated page size. 4 KiB pages match the
	// x86 hosts the paper measured on.
	PageShift = 12
	// PageSize is the simulated page size in bytes.
	PageSize = 1 << PageShift
	// baseAddr is the first address handed out. Keeping it nonzero means
	// address 0 behaves like a null pointer in diagnostics.
	baseAddr = uint64(1) << 32

	// leafShift is log2 of the pages one page-table leaf maps: 512 pages,
	// 2 MiB of simulated address space in a 2 KiB leaf.
	leafShift = 9
	leafPages = 1 << leafShift
	leafMask  = leafPages - 1
)

// ErrSpaceExhausted is returned when the address space cannot satisfy a
// reservation. With a 64-bit space this indicates a runaway allocation loop.
var ErrSpaceExhausted = errors.New("vmaddr: address space exhausted")

// leaf maps leafPages consecutive pages to their owning heaps.
type leaf struct {
	owner [leafPages]atomic.Uint32 // HeapID per page; NoHeap = unmapped
	live  int                      // mapped pages (guarded by Space.mu)
}

// directory is one immutable-shape generation of the page table's top
// level: leaves[i] maps leaf number first+i. A directory is replaced
// whole when it must grow; its slots are filled and emptied in place.
type directory struct {
	first  uint64
	leaves []atomic.Pointer[leaf]
}

// emptyDir is the directory of a fresh Space. It has no slots, so it is
// never written, and NewSpace allocates no table at all.
var emptyDir directory

// Space is a simulated address space shared by all heaps of one VM.
// All methods are safe for concurrent use.
type Space struct {
	dir atomic.Pointer[directory]

	mu     sync.Mutex
	next   uint64 // next unleased address (page aligned)
	pages  int    // mapped pages
	nextID HeapID
	limit  uint64 // exclusive upper bound of the space
}

// NewSpace returns an empty address space.
func NewSpace() *Space {
	s := &Space{next: baseAddr, nextID: 1, limit: ^uint64(0)}
	s.dir.Store(&emptyDir)
	return s
}

// NewHeapID mints a fresh heap identifier. IDs are unique for the lifetime
// of the Space.
func (s *Space) NewHeapID() HeapID {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextID
	s.nextID++
	return id
}

// leafOf returns the leaf mapping page, or nil if none exists. Caller
// holds s.mu (or accepts a racing answer, as HeapOf does).
func (s *Space) leafOf(page uint64) *leaf {
	d := s.dir.Load()
	i := page>>leafShift - d.first
	if i >= uint64(len(d.leaves)) {
		return nil
	}
	return d.leaves[i].Load()
}

// leafFor returns the leaf mapping page, creating it — and growing the
// directory — as needed. Caller holds s.mu.
func (s *Space) leafFor(page uint64) *leaf {
	if l := s.leafOf(page); l != nil {
		return l
	}
	n := page >> leafShift
	d := s.dir.Load()
	if n-d.first >= uint64(len(d.leaves)) {
		d = s.grow(d, n)
	}
	l := new(leaf)
	d.leaves[n-d.first].Store(l)
	return l
}

// grow publishes a directory that has a slot for leaf number n. Leaves are
// only ever created at the top of the leased range (next is monotonic), so
// the new directory starts at the old one's lowest surviving leaf — slots
// of dropped leaves below it are not carried over — and doubles the span
// up to n. Caller holds s.mu.
func (s *Space) grow(old *directory, n uint64) *directory {
	first := n
	for i := range old.leaves {
		if old.leaves[i].Load() != nil {
			first = old.first + uint64(i)
			break
		}
	}
	d := &directory{first: first, leaves: make([]atomic.Pointer[leaf], 2*(n-first+1))}
	for i := range old.leaves {
		if k := old.first + uint64(i); k >= first {
			d.leaves[k-first].Store(old.leaves[i].Load())
		}
	}
	s.dir.Store(d)
	return d
}

// drop unhooks leaf number n once it maps nothing and lies wholly below
// next: no reservation can map its pages again. A reader that loaded the
// leaf before it was unhooked still sees only NoHeap entries in it. Caller
// holds s.mu.
func (s *Space) drop(l *leaf, n uint64) {
	if l.live > 0 || (n+1)<<(leafShift+PageShift) > s.next {
		return
	}
	d := s.dir.Load()
	d.leaves[n-d.first].Store(nil)
}

// Reserve leases n contiguous pages to heap h and returns the base address
// of the range. n must be positive and h must be a minted heap ID.
func (s *Space) Reserve(h HeapID, n int) (uint64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("vmaddr: reserve of %d pages", n)
	}
	if h == NoHeap {
		return 0, errors.New("vmaddr: reserve for NoHeap")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	size := uint64(n) << PageShift
	if s.next+size < s.next || s.next+size > s.limit {
		return 0, ErrSpaceExhausted
	}
	base := s.next
	s.next += size
	var l *leaf
	for page := base >> PageShift; page < s.next>>PageShift; page++ {
		if l == nil || page&leafMask == 0 {
			l = s.leafFor(page)
		}
		l.owner[page&leafMask].Store(uint32(h))
		l.live++
	}
	s.pages += n
	return base, nil
}

// Release returns a leased page range to the space on behalf of heap h.
// The pages become unmapped: HeapOf reports false for addresses inside
// them. Releasing a page that is mapped to a different heap panics — it
// means heap chunk accounting is corrupt, which is a kernel bug. Fresh
// reservations never reuse released addresses (next is monotonic), so a
// dangling simulated address can only alias an object if the owning heap
// itself recycled the chunk — which the heap layer only does within one
// heap, where the collector has already proven the chunk dead.
func (s *Space) Release(h HeapID, base uint64, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	page := base >> PageShift
	for end := page + uint64(n); page < end; page++ {
		l := s.leafOf(page)
		if l == nil {
			continue
		}
		owner := HeapID(l.owner[page&leafMask].Load())
		if owner == NoHeap {
			continue
		}
		if owner != h {
			panic(fmt.Sprintf("vmaddr: heap %d releasing page %#x owned by heap %d", h, page<<PageShift, owner))
		}
		l.owner[page&leafMask].Store(uint32(NoHeap))
		l.live--
		s.pages--
		s.drop(l, page>>leafShift)
	}
}

// Pages reports the total number of mapped pages in the space. It is the
// soak-test observable for address-space leaks: with chunk recycling and
// release, it must stay bounded under process churn instead of growing
// monotonically.
func (s *Space) Pages() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pages
}

// Reassign transfers ownership of a leased page range to heap h. It is the
// mechanism behind merging a terminated process' heap into the kernel heap.
// Unmapped pages in the range stay unmapped.
func (s *Space) Reassign(base uint64, n int, h HeapID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	page := base >> PageShift
	for end := page + uint64(n); page < end; page++ {
		if l := s.leafOf(page); l != nil && l.owner[page&leafMask].Load() != uint32(NoHeap) {
			l.owner[page&leafMask].Store(uint32(h))
		}
	}
}

// HeapOf resolves an address to the heap owning its page. This is the page
// lookup at the core of the "No Heap Pointer" write barrier (41 cycles with
// a hot cache, per the paper). It takes no lock: one atomic load each for
// the directory, the leaf and the entry. Racing a writer, it returns the
// page's owner from before or after that write.
func (s *Space) HeapOf(addr uint64) (HeapID, bool) {
	page := addr >> PageShift
	l := s.leafOf(page)
	if l == nil {
		return NoHeap, false
	}
	h := HeapID(l.owner[page&leafMask].Load())
	return h, h != NoHeap
}

// walk calls f for every mapped page. Caller holds s.mu.
func (s *Space) walk(f func(page uint64, h HeapID)) {
	d := s.dir.Load()
	for i := range d.leaves {
		l := d.leaves[i].Load()
		if l == nil {
			continue
		}
		for j := range l.owner {
			if h := HeapID(l.owner[j].Load()); h != NoHeap {
				f((d.first+uint64(i))<<leafShift+uint64(j), h)
			}
		}
	}
}

// Dump copies the page table (page index → owning heap) for the invariant
// auditor. The copy is consistent: no reservation, release, or reassignment
// is in flight while it is taken.
func (s *Space) Dump() map[uint64]HeapID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[uint64]HeapID, s.pages)
	s.walk(func(page uint64, h HeapID) { out[page] = h })
	return out
}

// PagesOwned reports how many pages heap h currently owns. It exists for
// tests and introspection; it walks every allocated leaf.
func (s *Space) PagesOwned(h HeapID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	s.walk(func(_ uint64, owner HeapID) {
		if owner == h {
			n++
		}
	})
	return n
}

// PagesFor reports the number of pages needed to hold size bytes.
func PagesFor(size uint64) int {
	if size == 0 {
		return 0
	}
	return int((size + PageSize - 1) >> PageShift)
}
