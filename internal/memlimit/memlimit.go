// Package memlimit implements KaffeOS's hierarchical memory management
// (paper §2, "Hierarchical memory management").
//
// Each heap is associated with a memlimit, which consists of an upper limit
// and a current use. Memlimits form a hierarchy: each one has a parent,
// except for a root memlimit. All memory allocated to the heap is debited
// from that memlimit, and memory collected from that heap is credited to
// it; crediting/debiting is applied recursively to the node's parents.
//
// A memlimit can be hard or soft:
//
//   - A hard memlimit's maximum is immediately debited from its parent at
//     creation, which amounts to setting the memory aside (a reservation).
//     Credits and debits are therefore not propagated past a hard limit.
//   - A soft memlimit's maximum is just a limit — credits and debits of a
//     soft memlimit's current usage are reflected in the parent.
//
// Hard limits allow memory reservations but can waste memory if unused;
// soft limits allow a summary cap over multiple activities (for example, a
// shared heap is created under a soft child of its creator's memlimit so it
// cannot grow beyond its creator's ability to pay).
package memlimit

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/faults"
	"repro/internal/telemetry"
)

// Unlimited is a limit value that no realistic debit can reach.
const Unlimited = ^uint64(0) >> 1

// ErrExceeded reports a debit that some limit on the path to the root
// (stopping at hard boundaries) could not absorb. The VM surfaces it to
// user code as an OutOfMemoryError.
type ErrExceeded struct {
	Limit *Limit // the limit that rejected the debit
	Need  uint64 // bytes requested
}

func (e *ErrExceeded) Error() string {
	return fmt.Sprintf("memlimit: %q exceeded: use %d + need %d > limit %d",
		e.Limit.name, e.Limit.use, e.Need, e.Limit.max)
}

var errReleased = errors.New("memlimit: operation on released limit")

// Limit is one node in a memlimit hierarchy.
//
// The whole tree shares a single mutex (held by the root), because every
// debit walks ancestors and partial-failure rollback must be atomic. Trees
// are small (one node per process/heap), so contention is not a concern.
type Limit struct {
	mu       *sync.Mutex // shared with the whole tree
	name     string
	parent   *Limit
	children map[*Limit]struct{}
	max      uint64
	use      uint64
	hard     bool
	released bool
	// sink, when set, receives a telemetry event for every refused debit
	// (a reserve failure). Inherited from the parent at creation.
	sink telemetry.Sink
	// faults, when set, lets the injection plane refuse debits that would
	// otherwise succeed (SiteMemDebit). Inherited like sink.
	faults *faults.Plane
}

// NewRoot creates a root memlimit with the given maximum. The root is a
// hard boundary by construction (it has no parent to propagate to).
func NewRoot(name string, max uint64) *Limit {
	return &Limit{
		mu:       new(sync.Mutex),
		name:     name,
		children: make(map[*Limit]struct{}),
		max:      max,
		hard:     true,
	}
}

// NewChild creates a child memlimit under l.
//
// For a hard child the full max is debited from the parent chain
// immediately; creation fails with *ErrExceeded if the reservation does not
// fit. A soft child reserves nothing at creation.
func (l *Limit) NewChild(name string, max uint64, hard bool) (*Limit, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.released {
		return nil, errReleased
	}
	if hard {
		if err := l.debitLocked(max); err != nil {
			return nil, err
		}
	}
	c := &Limit{
		mu:       l.mu,
		name:     name,
		parent:   l,
		children: make(map[*Limit]struct{}),
		max:      max,
		hard:     hard,
		sink:     l.sink,
		faults:   l.faults,
	}
	l.children[c] = struct{}{}
	return c, nil
}

// MustChild is NewChild for callers that know the reservation fits (tests,
// static setup). It panics on failure.
func (l *Limit) MustChild(name string, max uint64, hard bool) *Limit {
	c, err := l.NewChild(name, max, hard)
	if err != nil {
		panic(err)
	}
	return c
}

// Debit charges n bytes against l and, transitively, every soft ancestor up
// to the nearest hard boundary. If any limit on that path would be
// exceeded, nothing is charged and *ErrExceeded identifies the limit.
func (l *Limit) Debit(n uint64) error {
	if n == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.released {
		return errReleased
	}
	if l.faults.Fire(faults.SiteMemDebit) {
		return &ErrExceeded{Limit: l, Need: n}
	}
	return l.debitLocked(n)
}

// SetSink installs a telemetry sink on l and its whole subtree; future
// children inherit it. Reserve failures anywhere below l then emit
// EvMemFail events.
func (l *Limit) SetSink(s telemetry.Sink) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.setSinkLocked(s)
}

func (l *Limit) setSinkLocked(s telemetry.Sink) {
	l.sink = s
	for c := range l.children {
		c.setSinkLocked(s)
	}
}

// SetFaults arms the fault-injection plane on l and its whole subtree;
// future children inherit it. Armed SiteMemDebit rules then refuse debits
// below l exactly as a genuine reservation failure would.
func (l *Limit) SetFaults(p *faults.Plane) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.setFaultsLocked(p)
}

func (l *Limit) setFaultsLocked(p *faults.Plane) {
	l.faults = p
	for c := range l.children {
		c.setFaultsLocked(p)
	}
}

func (l *Limit) debitLocked(n uint64) error {
	// First pass: verify the whole path accepts the debit.
	for node := l; node != nil; node = node.propagationParent() {
		if node.use+n > node.max || node.use+n < node.use {
			if l.sink != nil {
				l.sink.Emit(telemetry.Event{
					Kind: telemetry.EvMemFail, A: n, B: node.use,
					Detail: node.name,
				})
			}
			return &ErrExceeded{Limit: node, Need: n}
		}
	}
	// Second pass: apply.
	for node := l; node != nil; node = node.propagationParent() {
		node.use += n
	}
	return nil
}

// debitQuietLocked is debitLocked without the EvMemFail emission: used for
// opportunistic over-asks (headroom leases) where a refusal is not an
// allocation failure, merely a fall back to an exact debit.
func (l *Limit) debitQuietLocked(n uint64) error {
	for node := l; node != nil; node = node.propagationParent() {
		if node.use+n > node.max || node.use+n < node.use {
			return &ErrExceeded{Limit: node, Need: n}
		}
	}
	for node := l; node != nil; node = node.propagationParent() {
		node.use += n
	}
	return nil
}

// DebitLease is the allocation fast path's batched debit (the Go runtime's
// mcache idea applied to memlimits): in one tree-lock acquisition it
// returns the caller's previous lease (refund), then tries to debit
// size+batch so the caller can satisfy the next several allocations from
// the returned headroom without touching the tree at all. If the batched
// ask does not fit, it falls back to an exact debit of size (which emits
// EvMemFail on refusal, exactly like Debit).
//
// On success the tree has been charged size+lease and the returned lease
// is the caller's new standing headroom. On failure the refund has still
// been consumed (the caller's lease is gone) and nothing else is charged —
// so a heap's invariant "tree use == live bytes + lease" holds on every
// path. batch is clamped to max/8 so a small limit is never dominated by
// its own headroom.
func (l *Limit) DebitLease(size, batch, refund uint64) (lease uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.released {
		return 0, errReleased
	}
	if refund > 0 {
		l.creditLocked(refund)
	}
	if l.faults.Fire(faults.SiteMemDebit) {
		// The refund has been consumed, nothing new is charged: the heap's
		// "use == bytes + lease" invariant holds across injected refusals.
		return 0, &ErrExceeded{Limit: l, Need: size}
	}
	if clamp := l.max / 8; batch > clamp {
		batch = clamp
	}
	if batch > 0 && size+batch > size {
		if err := l.debitQuietLocked(size + batch); err == nil {
			return batch, nil
		}
	}
	if err := l.debitLocked(size); err != nil {
		return 0, err
	}
	return 0, nil
}

// Credit returns n bytes to l and every soft ancestor up to the nearest
// hard boundary. Crediting more than the current use panics: it means the
// caller's accounting is corrupt, which is a kernel bug in paper terms.
func (l *Limit) Credit(n uint64) {
	if n == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.creditLocked(n)
}

func (l *Limit) creditLocked(n uint64) {
	for node := l; node != nil; node = node.propagationParent() {
		if n > node.use {
			panic(fmt.Sprintf("memlimit: credit %d exceeds use %d at %q", n, node.use, node.name))
		}
		node.use -= n
	}
}

// propagationParent returns the parent that the next credit/debit hop
// should touch, or nil if l is a propagation boundary (hard or root).
func (l *Limit) propagationParent() *Limit {
	if l.hard {
		return nil
	}
	return l.parent
}

// Transfer moves n bytes of accounted use from l to dst atomically with
// respect to the tree. Both limits must belong to the same tree. It is used
// when a terminated process' heap is merged into the kernel heap: the bytes
// stop being the process' and become the kernel's until collected.
func (l *Limit) Transfer(n uint64, dst *Limit) error {
	if n == 0 {
		return nil
	}
	if l.mu != dst.mu {
		return errors.New("memlimit: transfer across trees")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.released || dst.released {
		return errReleased
	}
	if err := dst.debitLocked(n); err != nil {
		return err
	}
	l.creditLocked(n)
	return nil
}

// Release detaches l from the hierarchy. Its current use must be zero
// (callers credit everything back first); for a hard limit the reservation
// is returned to the parent. Releasing a limit with live children panics.
func (l *Limit) Release() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.released {
		return
	}
	if l.use != 0 {
		panic(fmt.Sprintf("memlimit: release of %q with use %d", l.name, l.use))
	}
	if len(l.children) != 0 {
		panic(fmt.Sprintf("memlimit: release of %q with %d children", l.name, len(l.children)))
	}
	if l.parent != nil {
		if l.hard {
			l.parent.creditLocked(l.max)
		}
		delete(l.parent.children, l)
	}
	l.released = true
}

// Use reports the current accounted use of l.
func (l *Limit) Use() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.use
}

// Max reports l's maximum.
func (l *Limit) Max() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.max
}

// Load reports l's use and max as one consistent pair. Separate Use and
// Max calls can straddle a concurrent SetMaxClamped and pair a use from
// before the shrink with a max from after it; anything that compares the
// two (admission high-water marks, invariant samplers) reads them here.
func (l *Limit) Load() (use, max uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.use, l.max
}

// Available reports how many bytes l could still debit locally (ignoring
// ancestors, which may be tighter). Saturates at zero: a controller may
// pin max to exactly the current use (SetMaxClamped), and a raw
// `max - use` here would wrap to ~2^64 the instant use crossed a stale
// max — the underflow the memlimit property suite guards against.
func (l *Limit) Available() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.use >= l.max {
		return 0
	}
	return l.max - l.use
}

// Hard reports whether l is a hard (reservation) limit.
func (l *Limit) Hard() bool { return l.hard }

// Name reports the label given at creation.
func (l *Limit) Name() string { return l.name }

// Parent returns l's parent, or nil for a root.
func (l *Limit) Parent() *Limit { return l.parent }

// SetMax adjusts l's maximum. Growing a hard limit debits the difference
// from the parent; shrinking credits it back. Shrinking below the current
// use fails.
func (l *Limit) SetMax(max uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.released {
		return errReleased
	}
	if max < l.use {
		return &ErrExceeded{Limit: l, Need: l.use - max}
	}
	if l.hard && l.parent != nil {
		switch {
		case max > l.max:
			if err := l.parent.debitLocked(max - l.max); err != nil {
				return err
			}
		case max < l.max:
			l.parent.creditLocked(l.max - max)
		}
	}
	l.max = max
	return nil
}

// SetMaxClamped is the memory-balancer's shrink: it sets l's maximum to
// max, but never below the current use, and reports the value actually
// applied. The clamp and the assignment happen under one tree-lock
// acquisition, which is the point: a caller that reads Use() and then
// calls SetMax races concurrent allocation — in particular the 64 KiB
// allocation lease (DebitLease), which raises use between the read and
// the set — and either livelocks on ErrExceeded or, if it subtracts the
// stale use from the new max, underflows. For a hard limit the grow/
// shrink delta settles with the parent exactly as SetMax does; a grow
// the parent cannot absorb falls back to the largest max the parent
// accepts (at least the current use, which is already reserved).
func (l *Limit) SetMaxClamped(max uint64) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.released {
		return 0
	}
	if max < l.use {
		max = l.use
	}
	if l.hard && l.parent != nil && max > l.max {
		if err := l.parent.debitLocked(max - l.max); err != nil {
			// The parent cannot fund the full grow; keep what we have.
			return l.max
		}
	}
	if l.hard && l.parent != nil && max < l.max {
		l.parent.creditLocked(l.max - max)
	}
	l.max = max
	return max
}

// Node is a point-in-time copy of one limit, captured by Snapshot for the
// invariant auditor. Limit identifies the live node (for matching heaps to
// tree positions); the numeric fields are copies from the capture instant.
type Node struct {
	Name     string
	Max      uint64
	Use      uint64
	Hard     bool
	Limit    *Limit
	Children []*Node
}

// Snapshot copies the subtree rooted at l in one tree-lock acquisition, so
// the returned uses and maxima are mutually consistent.
func (l *Limit) Snapshot() *Node {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapshotLocked()
}

func (l *Limit) snapshotLocked() *Node {
	n := &Node{Name: l.name, Max: l.max, Use: l.use, Hard: l.hard, Limit: l}
	kids := make([]*Limit, 0, len(l.children))
	for c := range l.children {
		kids = append(kids, c)
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].name < kids[j].name })
	for _, c := range kids {
		n.Children = append(n.Children, c.snapshotLocked())
	}
	return n
}

// String renders the subtree rooted at l, one node per line, for
// diagnostics.
func (l *Limit) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var b strings.Builder
	l.render(&b, 0)
	return b.String()
}

func (l *Limit) render(b *strings.Builder, depth int) {
	kind := "soft"
	if l.hard {
		kind = "hard"
	}
	fmt.Fprintf(b, "%s%s: %d/%d (%s)\n", strings.Repeat("  ", depth), l.name, l.use, l.max, kind)
	kids := make([]*Limit, 0, len(l.children))
	for c := range l.children {
		kids = append(kids, c)
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].name < kids[j].name })
	for _, c := range kids {
		c.render(b, depth+1)
	}
}
