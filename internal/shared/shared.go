// Package shared implements the VM's sharing ledger (ledger.go) and, over
// it, KaffeOS shared heaps — the direct-sharing mechanism of the paper
// (§2, "Direct sharing between processes").
//
// A shared heap has a strict lifecycle: a creator process creates it (the
// heap's memlimit is a soft child of the creator's, so it cannot grow past
// what the creator can pay), populates it with objects, then freezes it.
// After the freeze its size is fixed forever, and the reference fields of
// its objects are immutable (enforced by the write barrier), so one process
// can never use a shared object to keep another process' objects alive.
//
// A frozen heap is a ledger entry: every sharer is charged its full size
// while holding it. When a sharer's collector finds no remaining
// references into the heap, the size is credited back; when the last
// sharer drops it, the heap is orphaned and the kernel collector merges it
// into the kernel heap at the start of its next cycle.
package shared

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/heap"
	"repro/internal/memlimit"
	"repro/internal/object"
	"repro/internal/telemetry"
)

// Errors.
var (
	ErrExists    = errors.New("shared: heap name already in use")
	ErrNotFound  = errors.New("shared: no such shared heap")
	ErrNotFrozen = errors.New("shared: heap is not frozen yet")
	ErrFrozen    = errors.New("shared: heap is already frozen")
	ErrNoRoot    = errors.New("shared: heap has no root object")
)

// Heap is one shared heap: a KindHeap ledger entry, whose H is its
// storage (and H.Owner the Heap). Until the freeze its Size is the
// population cap.
type Heap struct {
	Entry
	// Root is the object sharers obtain from Lookup; it must live on H.
	Root *object.Object
}

// Manager tracks every shared heap of one VM and owns the VM's ledger,
// which the code cache shares. The shared namespace is a global resource
// (the paper notes this makes it harder to account for precisely); names
// are charged nothing, contents are charged fully. The ledger's lock also
// guards the name table.
type Manager struct {
	Ledger

	reg   *heap.Registry
	base  *memlimit.Limit // home of frozen shared heaps
	heaps map[string]*Heap
}

// NewManager creates a manager; base is the memlimit that owns frozen
// shared-heap storage (typically a child of the VM root).
func NewManager(reg *heap.Registry, base *memlimit.Limit) *Manager {
	return &Manager{reg: reg, base: base, heaps: make(map[string]*Heap)}
}

// Create makes a new, unfrozen shared heap. creatorLimit is the creator
// process' memlimit; max bounds the heap's size during population. The
// returned heap is ready to receive allocations (the VM layer points the
// creating thread's allocation override at it).
func (m *Manager) Create(name string, creatorLimit *memlimit.Limit, max uint64) (*Heap, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.heaps[name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	// "Those heaps are initially associated with a soft memlimit that is a
	// child of the current process heap's memlimit" (§2).
	lim, err := creatorLimit.NewChild("shared:"+name, max, false)
	if err != nil {
		return nil, err
	}
	sh := &Heap{Entry: Entry{Name: name, Size: max}}
	sh.H = m.reg.NewOwnedHeap(heap.KindShared, "shared:"+name, lim, sh, 0)
	m.enterLocked(&sh.Entry, KindHeap, lim)
	m.heaps[name] = sh
	m.emit(&sh.Entry, telemetry.EvSharedCreate, "", nil)
	return sh, nil
}

// Freeze seals the heap: no further allocation, reference fields become
// immutable, the size is fixed, and the storage accounting moves from the
// creator to the manager's base limit. The creator must then Attach itself
// (it is the first sharer and keeps paying while it holds the heap).
func (m *Manager) Freeze(sh *Heap) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if sh.frozen {
		return ErrFrozen
	}
	if sh.Root == nil {
		return ErrNoRoot
	}
	// Move the storage first: a refused transfer leaves the heap open and
	// both books as they were.
	if err := sh.H.RetargetLimit(m.base); err != nil {
		return err
	}
	sh.H.Freeze()
	sh.Size = sh.H.Bytes()
	sh.home.Release()
	sh.home = m.base
	sh.frozen = true
	m.emit(&sh.Entry, telemetry.EvSharedFreeze, "", nil)
	return nil
}

// Lookup finds a shared heap by name.
func (m *Manager) Lookup(name string) (*Heap, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	sh, ok := m.heaps[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return sh, nil
}

// Attach charges who (through limit) the full size of the heap. Attaching
// twice is idempotent. The heap must be frozen.
func (m *Manager) Attach(sh *Heap, who any, limit *memlimit.Limit) error {
	return m.Ledger.Attach(&sh.Entry, who, limit)
}

// Detach credits who's charge back. Detaching a non-sharer is a no-op.
func (m *Manager) Detach(sh *Heap, who any) { m.Ledger.Detach(&sh.Entry, who) }

// HeldBy lists the shared heaps who is currently charged for.
func (m *Manager) HeldBy(who any) []*Heap {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []*Heap
	for _, e := range m.bySharer[who] {
		if e.Kind == KindHeap {
			out = append(out, m.heaps[e.Name])
		}
	}
	return out
}

// ReclaimOrphans merges every orphaned shared heap (frozen, zero sharers)
// into the kernel heap; the kernel collector then reclaims the memory.
// "The kernel garbage collector checks for orphaned shared heaps at the
// beginning of each GC cycle and merges them into the kernel heap" (§2).
// It returns the names reclaimed.
func (m *Manager) ReclaimOrphans(kernel *heap.Heap) []string {
	return m.merge(kernel, func(sh *Heap) bool { return sh.frozen && len(sh.sharers) == 0 })
}

// UnfrozenOwnedBy removes unfrozen heaps created by a process that died
// mid-population: the heap merges into the kernel heap and the name frees.
func (m *Manager) UnfrozenOwnedBy(creatorLimit *memlimit.Limit, kernel *heap.Heap) {
	m.merge(kernel, func(sh *Heap) bool { return !sh.frozen && sh.home.Parent() == creatorLimit })
}

// merge moves every heap pick selects into the kernel heap, drops it from
// the ledger and the name table, and returns the names merged, sorted.
func (m *Manager) merge(kernel *heap.Heap, pick func(*Heap) bool) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var names []string
	for name, sh := range m.heaps {
		if !pick(sh) || sh.H.MergeInto(kernel) != nil {
			continue
		}
		if !sh.frozen {
			sh.home.Release()
		}
		m.removeLocked(&sh.Entry)
		delete(m.heaps, name)
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
