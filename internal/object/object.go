package object

import (
	"fmt"
	"math"

	"repro/internal/vmaddr"
)

// Flags are per-object state bits.
type Flags uint8

const (
	// FlagMark is the GC mark bit, owned by the heap's collector.
	FlagMark Flags = 1 << iota
	// FlagDead marks a swept object; any access is a use-after-free bug in
	// the VM itself and faults loudly.
	FlagDead
	// FlagFrozen marks objects on a frozen shared heap: reference fields
	// are immutable (paper §2, "Direct sharing between processes").
	FlagFrozen
)

// Object is one heap object. Primitive fields live in Prims (doubles as
// IEEE bits), reference fields in Refs; the class layout assigns slots.
// Arrays use the same two slices as element storage.
type Object struct {
	Class *Class
	// Addr is the object's simulated address; its page identifies the
	// owning heap via the space's page table.
	Addr uint64
	// Heap is the owning heap's ID, stored in the header. The "Heap
	// Pointer" write barrier reads this field (25 cycles); the "No Heap
	// Pointer" barrier ignores it and resolves Addr through the page table
	// (41 cycles).
	Heap  vmaddr.HeapID
	Flags Flags
	// Hash is the identity hash code, assigned at allocation.
	Hash int32

	// Thin lock state (interp manages; heavyweight monitors hang off Heavy).
	LockOwner int32
	LockCount int32
	Heavy     any

	Refs  []*Object
	Prims []int64

	// Data holds a native payload for library classes implemented in Go
	// (e.g. the character data of java/lang/String).
	Data any
	// SizeExtra is extra accounted bytes beyond the class layout (native
	// payload storage such as string characters).
	SizeExtra uint32
}

// IsArray reports whether o is an array instance.
func (o *Object) IsArray() bool { return o.Class.IsArray }

// ArrayLen reports the element count of an array object. NewArray
// allocates exactly one of Refs and Prims, so the sum is that slice's
// length and reading it touches no class. Every caller passes an array.
func (o *Object) ArrayLen() int { return len(o.Refs) + len(o.Prims) }

// Marked reports the GC mark bit.
func (o *Object) Marked() bool { return o.Flags&FlagMark != 0 }

// SetMark sets or clears the GC mark bit.
func (o *Object) SetMark(v bool) {
	if v {
		o.Flags |= FlagMark
	} else {
		o.Flags &^= FlagMark
	}
}

// Dead reports whether o has been swept.
func (o *Object) Dead() bool { return o.Flags&FlagDead != 0 }

// Frozen reports whether o's reference fields are immutable.
func (o *Object) Frozen() bool { return o.Flags&FlagFrozen != 0 }

// GetRef reads reference slot i.
func (o *Object) GetRef(i int) *Object { return o.Refs[i] }

// SetRef writes reference slot i WITHOUT a write barrier. Only the heap
// internals (GC, merging) and loader bootstrap may use it; mutator stores
// go through the barrier package.
func (o *Object) SetRef(i int, v *Object) { o.Refs[i] = v }

// GetPrim reads primitive slot i.
func (o *Object) GetPrim(i int) int64 { return o.Prims[i] }

// SetPrim writes primitive slot i. Primitive stores never need a barrier.
func (o *Object) SetPrim(i int, v int64) { o.Prims[i] = v }

// GetDouble reads primitive slot i as a float64.
func (o *Object) GetDouble(i int) float64 { return math.Float64frombits(uint64(o.Prims[i])) }

// SetDouble writes primitive slot i as a float64.
func (o *Object) SetDouble(i int, v float64) { o.Prims[i] = int64(math.Float64bits(v)) }

func (o *Object) String() string {
	if o == nil {
		return "null"
	}
	return fmt.Sprintf("%s@%x", o.Class.Name, o.Addr)
}

// DataCloner is implemented by native payloads stored in Object.Data that
// carry mutable state. A process fork deep-copies objects between heaps;
// payloads implementing DataCloner are cloned through it so the copy does
// not alias the original's state. Payloads that do not implement it (and
// are not one of the copier's known builtin shapes) are shared by
// reference, which is only correct for immutable values such as strings.
type DataCloner interface {
	// CloneData returns an independent copy of the payload.
	CloneData() any
}

// New creates an instance of c with zeroed fields. The caller (a heap) is
// responsible for address assignment, accounting, and registration; this
// only builds the storage.
func New(c *Class) *Object {
	o := &Object{Class: c}
	if c.NumRefSlots > 0 {
		o.Refs = make([]*Object, c.NumRefSlots)
	}
	if c.NumPrimSlot > 0 {
		o.Prims = make([]int64, c.NumPrimSlot)
	}
	return o
}

// NewArray creates an array instance of class c (which must be an array
// class) with n zeroed elements.
func NewArray(c *Class, n int) *Object {
	o := &Object{Class: c}
	if c.ElemDesc.Ref() {
		o.Refs = make([]*Object, n)
	} else {
		o.Prims = make([]int64, n)
	}
	return o
}

// Sever clears every reference slot of o. The sweep phase calls it so the
// host garbage collector can reclaim unreachable subgraphs even if a stray
// VM-internal pointer to o itself survives.
func (o *Object) Sever() {
	for i := range o.Refs {
		o.Refs[i] = nil
	}
	o.Data = nil
	o.Heavy = nil
	o.Flags |= FlagDead
}
