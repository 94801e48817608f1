// Package barrier implements KaffeOS's write barriers.
//
// A write barrier is a check that happens on every pointer write to the
// heap (paper §2). Illegal cross-references — those that would prevent a
// process' memory from being reclaimed, such as a reference from one user
// heap to another — are forbidden and raise "segmentation violations".
// Legal cross-heap references create entry/exit items so that heaps remain
// independently collectable.
//
// The legality matrix follows the paper's Figure 2:
//
//   - user heap  -> same user heap: legal
//   - user heap  -> kernel heap or shared heap: legal (tracked)
//   - user heap  -> other user heap: SEGMENTATION VIOLATION
//   - shared heap-> same shared heap, before freeze: legal
//   - shared heap-> anywhere after freeze, or off-heap: VIOLATION
//     (non-primitive fields of shared objects are immutable)
//   - kernel heap-> anywhere: legal, but only in kernel mode; the kernel is
//     coded to only store user references whose lifetime matches the
//     process (that discipline is the kernel's responsibility)
//
// §4.1 of the paper measures three implementations, which differ in how
// the barrier locates the heap of the object being written:
//
//   - Heap Pointer: the heap ID sits in the object header (25 cycles, +4
//     bytes per object).
//   - No Heap Pointer: the heap is found from the page on which the object
//     lies (41 cycles, no space cost).
//   - Fake Heap Pointer: the No Heap Pointer check plus 4 bytes of unused
//     header padding, isolating the space cost of the first variant.
//
// A fourth configuration, No Write Barrier, runs everything on the kernel
// heap with no checks, and is the baseline for the "≈11% total barrier
// cost" headline.
package barrier

import (
	"fmt"
	"sync/atomic"

	"repro/internal/faults"
	"repro/internal/heap"
	"repro/internal/object"
	"repro/internal/telemetry"
	"repro/internal/vmaddr"
)

// Violation is a KaffeOS segmentation violation: an attempt to create an
// illegal cross-heap reference. The execution engine converts it into a
// catchable VM error object.
type Violation struct {
	HolderHeap string
	RefHeap    string
	Reason     string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("segmentation violation: %s (holder heap %s, ref heap %s)",
		v.Reason, v.HolderHeap, v.RefHeap)
}

// Stats counts barrier executions, matching Table 1 of the paper. The
// simulated cycles spent in barriers are Executed × the barrier's
// CheckCost.
type Stats struct {
	Executed   atomic.Uint64 // pointer-store barrier checks performed
	Violations atomic.Uint64 // segmentation violations raised

	// Sink, when set, receives an EvBarrierViolation event per violation.
	// The success path never touches it, so the per-store cost stays at
	// the one counter bump above.
	Sink telemetry.Sink

	// Faults, when set, lets the injection plane refuse stores at
	// SiteBarrierStore: the store fails with a segmentation violation even
	// though it is legal, exercising the engines' violation unwind paths
	// at arbitrary stores.
	Faults *faults.Plane
}

// violate counts and traces a segmentation violation, then returns it.
func (st *Stats) violate(v *Violation) error {
	st.Violations.Add(1)
	if st.Sink != nil {
		st.Sink.Emit(telemetry.Event{
			Kind:   telemetry.EvBarrierViolation,
			Detail: v.Reason + " (" + v.HolderHeap + " -> " + v.RefHeap + ")",
		})
	}
	return v
}

// Barrier validates and tracks reference stores.
type Barrier interface {
	// Name identifies the configuration in benchmark output.
	Name() string
	// HeaderExtra is the per-object header cost in bytes.
	HeaderExtra() int
	// CheckCost is the simulated cycles per executed barrier.
	CheckCost() uint64
	// Enabled distinguishes real barriers from the no-barrier baseline.
	Enabled() bool
	// Write validates storing ref into a reference slot of holder, given
	// whether the writing thread is in kernel mode. On success it records
	// any cross-heap reference; on failure it returns *Violation (or a
	// memlimit error if item bookkeeping cannot be charged).
	Write(reg *heap.Registry, holder, ref *object.Object, kernelMode bool, st *Stats) error
}

// heapOfFunc locates the heap ID of an object; the three real barrier
// variants differ only here and in their costs.
type heapOfFunc func(reg *heap.Registry, o *object.Object) vmaddr.HeapID

func headerHeapOf(_ *heap.Registry, o *object.Object) vmaddr.HeapID { return o.Heap }

func pageHeapOf(reg *heap.Registry, o *object.Object) vmaddr.HeapID {
	id, ok := reg.Space.HeapOf(o.Addr)
	if !ok {
		return vmaddr.NoHeap
	}
	return id
}

// checking is the shared implementation of the three real barriers.
type checking struct {
	name   string
	extra  int
	cycles uint64
	heapOf heapOfFunc
}

func (b *checking) Name() string      { return b.name }
func (b *checking) HeaderExtra() int  { return b.extra }
func (b *checking) CheckCost() uint64 { return b.cycles }
func (b *checking) Enabled() bool     { return true }

func (b *checking) Write(reg *heap.Registry, holder, ref *object.Object, kernelMode bool, st *Stats) error {
	st.Executed.Add(1)

	if st.Faults.Fire(faults.SiteBarrierStore) {
		return st.violate(&Violation{
			HolderHeap: heapName(reg, b.heapOf(reg, holder)),
			RefHeap:    refHeapName(reg, b.heapOf, ref),
			Reason:     "injected barrier fault",
		})
	}
	if holder.Frozen() {
		return st.violate(&Violation{
			HolderHeap: heapName(reg, b.heapOf(reg, holder)),
			RefHeap:    refHeapName(reg, b.heapOf, ref),
			Reason:     "write to reference field of frozen shared object",
		})
	}
	if ref == nil {
		return nil // clearing a slot can never create an illegal reference
	}
	hid := b.heapOf(reg, holder)
	rid := b.heapOf(reg, ref)
	if hid == rid {
		return nil
	}
	hh, ok := reg.Lookup(hid)
	if !ok {
		return st.violate(&Violation{HolderHeap: "?", RefHeap: heapName(reg, rid), Reason: "holder heap unknown"})
	}
	rh, ok := reg.Lookup(rid)
	if !ok {
		return st.violate(&Violation{HolderHeap: hh.Name, RefHeap: "?", Reason: "referenced heap unknown"})
	}

	switch hh.Kind {
	case heap.KindUser:
		switch rh.Kind {
		case heap.KindKernel, heap.KindShared:
			return hh.RecordCrossRef(ref)
		default: // another user heap
			return st.violate(&Violation{
				HolderHeap: hh.Name, RefHeap: rh.Name,
				Reason: "user heap may not reference another user heap",
			})
		}
	case heap.KindShared:
		// Unfrozen shared heaps are being populated by their creator;
		// they may reference the kernel heap (class metadata) but never a
		// user heap or another shared heap.
		if rh.Kind == heap.KindKernel {
			return hh.RecordCrossRef(ref)
		}
		return st.violate(&Violation{
			HolderHeap: hh.Name, RefHeap: rh.Name,
			Reason: "shared heap may only reference itself or the kernel heap",
		})
	case heap.KindKernel:
		if !kernelMode {
			return st.violate(&Violation{
				HolderHeap: hh.Name, RefHeap: rh.Name,
				Reason: "user-mode write to kernel object",
			})
		}
		return hh.RecordCrossRef(ref)
	}
	return st.violate(&Violation{HolderHeap: hh.Name, RefHeap: rh.Name, Reason: "unknown heap kind"})
}

func heapName(reg *heap.Registry, id vmaddr.HeapID) string {
	if h, ok := reg.Lookup(id); ok {
		return h.Name
	}
	return fmt.Sprintf("heap#%d", id)
}

func refHeapName(reg *heap.Registry, f heapOfFunc, ref *object.Object) string {
	if ref == nil {
		return "null"
	}
	return heapName(reg, f(reg, ref))
}

// none is the No Write Barrier baseline.
type none struct{}

func (none) Name() string      { return "NoWriteBarrier" }
func (none) HeaderExtra() int  { return 0 }
func (none) CheckCost() uint64 { return 0 }
func (none) Enabled() bool     { return false }
func (none) Write(*heap.Registry, *object.Object, *object.Object, bool, *Stats) error {
	return nil
}

// The four configurations measured in §4.1.
var (
	// NoBarrier executes without a write barrier; everything must run on
	// the kernel heap for that to be sound.
	NoBarrier Barrier = none{}
	// HeapPointer finds the heap ID in the object header: 25 cycles with a
	// hot cache, 4 bytes per object.
	HeapPointer Barrier = &checking{name: "HeapPointer", extra: 4, cycles: 25, heapOf: headerHeapOf}
	// NoHeapPointer finds the heap by the page the object lies on: 41
	// cycles, no per-object space cost.
	NoHeapPointer Barrier = &checking{name: "NoHeapPointer", extra: 0, cycles: 41, heapOf: pageHeapOf}
	// FakeHeapPointer measures the padding cost in isolation: the page
	// lookup check plus 4 bytes of unused padding per object.
	FakeHeapPointer Barrier = &checking{name: "FakeHeapPointer", extra: 4, cycles: 41, heapOf: pageHeapOf}
)

// ByName resolves a barrier configuration by its Name().
func ByName(name string) (Barrier, bool) {
	switch name {
	case "NoWriteBarrier", "none":
		return NoBarrier, true
	case "HeapPointer":
		return HeapPointer, true
	case "NoHeapPointer":
		return NoHeapPointer, true
	case "FakeHeapPointer":
		return FakeHeapPointer, true
	}
	return nil, false
}

// All lists the four configurations in the order Figure 3 reports them.
func All() []Barrier {
	return []Barrier{NoBarrier, HeapPointer, NoHeapPointer, FakeHeapPointer}
}
