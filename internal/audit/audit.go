// Package audit implements the whole-kernel invariant auditor.
//
// The auditor takes a globally consistent snapshot of every accounting
// structure in the VM — every heap, the cross-heap entry/exit items, the
// hierarchical memlimit tree, the simulated page table, and the sharing
// ledger — and re-derives the kernel's bookkeeping from first
// principles, reporting every place where the books disagree. It is the
// correctness oracle for the fault-injection plane (package faults): after
// injected allocation failures, mid-GC kills, spurious segmentation
// violations, and forced preemptions, every invariant the paper's design
// guarantees must still hold:
//
//   - every object belongs to exactly one live heap, is not marked dead,
//     lies inside one of that heap's chunks, and on a page the page table
//     maps to that heap;
//   - a heap's accounted bytes equal the recomputed sum of its objects'
//     sizes, and a frozen heap holds no allocation lease;
//   - entry and exit items are symmetric: every exit item points at an entry
//     item in the target heap whose reference count equals the number of
//     source heaps holding a matching exit;
//   - memory charged to every memlimit equals the memory attributable to it:
//     heap bytes + standing lease + entry/exit item bytes + the full size
//     of every ledger entry it shares + the residency of every code entry
//     it is home to, after subtracting child reservations;
//   - every mapped page is owned by a live heap, and each heap's chunk list
//     covers exactly the pages the table says it owns;
//   - (graph mode) every cross-heap reference in the object graph is backed
//     by an exit item, respects the paper's legality matrix (Figure 2), and
//     targets a live object — dead processes' memory is unreachable.
//
// Graph mode walks Object.Refs and therefore requires a quiescent VM (no
// mutator running); the numeric checks are valid on any consistent snapshot.
package audit

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/heap"
	"repro/internal/memlimit"
	"repro/internal/object"
	"repro/internal/shared"
	"repro/internal/vmaddr"
)

// World is the consistent snapshot the auditor checks. Capture order
// matters: the ledger must be captured in one critical section of its
// lock around the heap snapshot (shared.Ledger.Snapshot), and
// Limits/Pages inside the heap snapshot's extra callback, so that all four
// describe the same instant.
type World struct {
	Heaps  []heap.HeapView
	Limits *memlimit.Node
	Pages  map[uint64]vmaddr.HeapID
	// Ledger is every sharing entry, shared heaps and code artifacts
	// alike: every sharer owes Size, and a code entry's home owes Size
	// for its residency (code has no heap backing — the modeled bytes
	// live only in the memlimit tree).
	Ledger []shared.ChargeInfo
	// KernelID identifies the kernel heap.
	KernelID vmaddr.HeapID
	// LivePids, when non-nil, is the set of processes not yet reclaimed;
	// user heaps must belong to one of them.
	LivePids map[int32]bool
	// TemplatePids, when non-nil, is the set of registered process
	// templates; template heaps must belong to one of them.
	TemplatePids map[int32]bool
}

// Options selects optional checks.
type Options struct {
	// Graph walks every object's reference fields (legality matrix, exit
	// backing, no dangling references). Requires a quiescent VM.
	Graph bool
}

// Violation is one broken invariant.
type Violation struct {
	Rule   string // short rule name, e.g. "entry-exit-symmetry"
	Detail string
}

func (v Violation) String() string { return v.Rule + ": " + v.Detail }

// Report is the auditor's result.
type Report struct {
	Violations []Violation

	HeapsChecked   int
	ObjectsChecked int
	PagesChecked   int
	LimitsChecked  int
	EdgesChecked   int
}

// OK reports whether every invariant held.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "audit: %d heaps, %d objects, %d pages, %d limits, %d edges: ",
		r.HeapsChecked, r.ObjectsChecked, r.PagesChecked, r.LimitsChecked, r.EdgesChecked)
	if r.OK() {
		b.WriteString("OK")
		return b.String()
	}
	fmt.Fprintf(&b, "%d violation(s)", len(r.Violations))
	for _, v := range r.Violations {
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	return b.String()
}

type checker struct {
	w    World
	opts Options
	rep  *Report

	byID  map[vmaddr.HeapID]*heap.HeapView
	owner map[*object.Object]vmaddr.HeapID
}

func (c *checker) fail(rule, format string, args ...any) {
	c.rep.Violations = append(c.rep.Violations, Violation{Rule: rule, Detail: fmt.Sprintf(format, args...)})
}

// Check audits a snapshot and returns the report.
func Check(w World, opts Options) *Report {
	c := &checker{
		w:     w,
		opts:  opts,
		rep:   &Report{},
		byID:  make(map[vmaddr.HeapID]*heap.HeapView, len(w.Heaps)),
		owner: make(map[*object.Object]vmaddr.HeapID),
	}
	for i := range w.Heaps {
		v := &w.Heaps[i]
		if _, dup := c.byID[v.ID]; dup {
			c.fail("heap-dup", "heap ID %d appears twice in snapshot", v.ID)
		}
		c.byID[v.ID] = v
	}
	c.checkObjects()
	c.checkItems()
	c.checkPages()
	c.checkLimits()
	c.checkLedger()
	c.checkPids()
	c.checkTemplates()
	if opts.Graph {
		c.checkGraph()
	}
	sort.SliceStable(c.rep.Violations, func(i, j int) bool {
		return c.rep.Violations[i].Rule < c.rep.Violations[j].Rule
	})
	return c.rep
}

// checkObjects: ownership, address placement, recomputed bytes, lease state.
func (c *checker) checkObjects() {
	for i := range c.w.Heaps {
		v := &c.w.Heaps[i]
		c.rep.HeapsChecked++
		if v.SizedBytes != v.Bytes {
			c.fail("heap-bytes", "heap %q: accounted bytes %d != recomputed object bytes %d",
				v.Name, v.Bytes, v.SizedBytes)
		}
		if v.Frozen && v.Lease != 0 {
			c.fail("frozen-lease", "frozen heap %q holds a %d-byte allocation lease", v.Name, v.Lease)
		}
		for _, ov := range v.Objects {
			o := ov.Obj
			c.rep.ObjectsChecked++
			if prev, dup := c.owner[o]; dup {
				c.fail("object-dup", "object %#x registered in heaps %d and %d", o.Addr, prev, v.ID)
				continue
			}
			c.owner[o] = v.ID
			// ov.Heap is the header captured inside the snapshot cut; the
			// live o.Heap may already have been rewritten by a merge.
			if ov.Heap != v.ID {
				c.fail("object-owner", "object %#x in heap %q has header heap ID %d", o.Addr, v.Name, ov.Heap)
			}
			// Heap membership is the header plus the dead flag, so a
			// listed object must not carry FlagDead.
			if ov.Dead {
				c.fail("object-dead", "object %#x in heap %q is listed but swept", o.Addr, v.Name)
			}
			if got, ok := c.w.Pages[o.Addr>>vmaddr.PageShift]; !ok {
				c.fail("object-page", "object %#x in heap %q lies on an unmapped page", o.Addr, v.Name)
			} else if got != v.ID {
				c.fail("object-page", "object %#x in heap %q lies on a page owned by heap %d", o.Addr, v.Name, got)
			}
			if !inChunks(v.Chunks, o.Addr) {
				c.fail("object-chunk", "object %#x in heap %q lies outside every chunk", o.Addr, v.Name)
			}
		}
	}
}

func inChunks(chunks []heap.PageRange, addr uint64) bool {
	for _, ch := range chunks {
		if addr >= ch.Base && addr < ch.Base+uint64(ch.Pages)<<vmaddr.PageShift {
			return true
		}
	}
	return false
}

// checkItems: entry/exit symmetry and the O(1) exitsTo counters.
func (c *checker) checkItems() {
	// refs[target heap][target] = number of distinct source heaps holding a
	// matching exit item.
	refs := make(map[vmaddr.HeapID]map[*object.Object]int)
	for i := range c.w.Heaps {
		v := &c.w.Heaps[i]
		perHeap := make(map[vmaddr.HeapID]int)
		for target, tid := range v.Exits {
			if tid == v.ID {
				c.fail("exit-self", "heap %q holds an exit item targeting its own object %#x", v.Name, target.Addr)
				continue
			}
			tv, ok := c.byID[tid]
			if !ok {
				c.fail("exit-dangling", "heap %q holds an exit item into dead heap %d", v.Name, tid)
				continue
			}
			if own, live := c.owner[target]; live && own != tid {
				c.fail("exit-stale", "heap %q exit target %#x moved from heap %d to %d without remap",
					v.Name, target.Addr, tid, own)
			}
			if n, ok := tv.Entries[target]; !ok {
				c.fail("entry-exit-symmetry", "heap %q exit to %#x in %q has no entry item", v.Name, target.Addr, tv.Name)
			} else if n < 1 {
				c.fail("entry-refcount", "entry item for %#x in %q has count %d", target.Addr, tv.Name, n)
			}
			perHeap[tid]++
			m := refs[tid]
			if m == nil {
				m = make(map[*object.Object]int)
				refs[tid] = m
			}
			m[target]++
		}
		for tid, n := range perHeap {
			if v.ExitsTo[tid] != n {
				c.fail("exitsto-counter", "heap %q exitsTo[%d] = %d but %d exit items target it",
					v.Name, tid, v.ExitsTo[tid], n)
			}
		}
		for tid, n := range v.ExitsTo {
			if n <= 0 {
				c.fail("exitsto-counter", "heap %q exitsTo[%d] = %d (must be positive)", v.Name, tid, n)
			}
			if perHeap[tid] != n {
				c.fail("exitsto-counter", "heap %q exitsTo[%d] = %d but %d exit items target it",
					v.Name, tid, n, perHeap[tid])
			}
		}
	}
	for i := range c.w.Heaps {
		v := &c.w.Heaps[i]
		for target, rc := range v.Entries {
			if c.owner[target] != v.ID {
				c.fail("entry-foreign", "heap %q holds an entry item for %#x, which lives in heap %d",
					v.Name, target.Addr, c.owner[target])
			}
			got := refs[v.ID][target]
			if rc != got {
				c.fail("entry-refcount", "entry item for %#x in %q has count %d but %d heap(s) hold exits",
					target.Addr, v.Name, rc, got)
			}
		}
	}
}

// checkPages: the page table and the heaps' chunk lists must agree exactly.
func (c *checker) checkPages() {
	c.rep.PagesChecked = len(c.w.Pages)
	owned := make(map[vmaddr.HeapID]map[uint64]bool, len(c.w.Heaps))
	for page, id := range c.w.Pages {
		if _, ok := c.byID[id]; !ok {
			c.fail("page-owner", "page %#x owned by dead heap %d", page<<vmaddr.PageShift, id)
			continue
		}
		m := owned[id]
		if m == nil {
			m = make(map[uint64]bool)
			owned[id] = m
		}
		m[page] = true
	}
	for i := range c.w.Heaps {
		v := &c.w.Heaps[i]
		claimed := make(map[uint64]bool)
		claim := func(r heap.PageRange, kind string) {
			for k := 0; k < r.Pages; k++ {
				page := (r.Base >> vmaddr.PageShift) + uint64(k)
				if claimed[page] {
					c.fail("chunk-overlap", "heap %q claims page %#x twice", v.Name, page<<vmaddr.PageShift)
				}
				claimed[page] = true
				if !owned[v.ID][page] {
					c.fail("page-claim", "heap %q %s chunk claims page %#x, owned by %d in the table",
						v.Name, kind, page<<vmaddr.PageShift, c.w.Pages[page])
				}
			}
		}
		for _, r := range v.Chunks {
			claim(r, "live")
		}
		for _, r := range v.Free {
			claim(r, "free")
		}
		for page := range owned[v.ID] {
			if !claimed[page] {
				c.fail("page-orphan", "page %#x owned by heap %q but in none of its chunks",
					page<<vmaddr.PageShift, v.Name)
			}
		}
	}
}

// checkLimits: re-derive every limit's direct use from the heaps and ledger
// entries that bill it.
func (c *checker) checkLimits() {
	if c.w.Limits == nil {
		return
	}
	expected := make(map[*memlimit.Limit]uint64)
	for i := range c.w.Heaps {
		v := &c.w.Heaps[i]
		expected[v.Limit] += v.Bytes + v.Lease + v.EntryBytes + v.ExitBytes
	}
	for _, e := range c.w.Ledger {
		for _, lim := range e.Sharers {
			expected[lim] += e.Size
		}
		if e.Heap == nil && e.Home != nil {
			expected[e.Home] += e.Size
		}
	}
	known := make(map[*memlimit.Limit]bool)
	var walk func(n *memlimit.Node)
	walk = func(n *memlimit.Node) {
		c.rep.LimitsChecked++
		known[n.Limit] = true
		if n.Use > n.Max {
			c.fail("limit-overrun", "limit %q: use %d exceeds max %d", n.Name, n.Use, n.Max)
		}
		reserved := uint64(0)
		for _, child := range n.Children {
			if child.Hard {
				reserved += child.Max
			} else {
				reserved += child.Use
			}
		}
		if reserved > n.Use {
			c.fail("limit-reconcile", "limit %q: use %d is less than the %d its children account for",
				n.Name, n.Use, reserved)
		} else if direct := n.Use - reserved; direct != expected[n.Limit] {
			c.fail("limit-reconcile", "limit %q: direct use %d but heaps and ledger charges account for %d",
				n.Name, direct, expected[n.Limit])
		}
		for _, child := range n.Children {
			walk(child)
		}
	}
	walk(c.w.Limits)
	for lim := range expected {
		if !known[lim] {
			c.fail("limit-unknown", "limit %q is charged %d bytes but is not in the tree",
				lim.Name(), expected[lim])
		}
	}
}

// checkLedger: no entry has sharers before it is frozen; a heap entry's
// heap is live, charges the entry's home (the population limit, then the
// base once frozen), agrees on the freeze, and once frozen holds exactly
// Size bytes. (A code entry's home is checked by checkLimits.)
func (c *checker) checkLedger() {
	for _, e := range c.w.Ledger {
		if !e.Frozen && len(e.Sharers) != 0 {
			c.fail("shared-premature", "unfrozen entry %q already has %d sharer(s)", e.Name, len(e.Sharers))
		}
		if e.Heap == nil {
			continue
		}
		v, ok := c.byID[e.Heap.ID]
		if !ok {
			c.fail("shared-dead", "shared heap %q is registered but its heap %d is dead", e.Name, e.Heap.ID)
			continue
		}
		if v.Frozen != e.Frozen {
			c.fail("shared-frozen", "shared heap %q: frozen %v in the ledger but %v in the heap", e.Name, e.Frozen, v.Frozen)
		}
		if e.Frozen && v.Bytes != e.Size {
			c.fail("shared-size", "frozen shared heap %q: fixed size %d but heap holds %d bytes",
				e.Name, e.Size, v.Bytes)
		}
		if v.Limit != e.Home {
			c.fail("shared-limit", "shared heap %q charges a limit other than its ledger home", e.Name)
		}
	}
}

// checkPids: user heaps must belong to live processes.
func (c *checker) checkPids() {
	if c.w.LivePids == nil {
		return
	}
	for i := range c.w.Heaps {
		v := &c.w.Heaps[i]
		if v.Kind == heap.KindUser && !c.w.LivePids[v.Pid] {
			c.fail("heap-pid", "user heap %q belongs to dead process %d", v.Name, v.Pid)
		}
	}
}

// checkTemplates: template heaps are immutable checkpoints — frozen for
// their whole registered lifetime, owned by a registered template, and
// never referenced from any other heap (forks copy out of them, so no
// entry item may ever appear in one; this is what lets a template be
// destroyed without a merge).
func (c *checker) checkTemplates() {
	for i := range c.w.Heaps {
		v := &c.w.Heaps[i]
		if v.Kind != heap.KindTemplate {
			continue
		}
		if c.w.TemplatePids != nil && !c.w.TemplatePids[v.Pid] {
			c.fail("template-pid", "template heap %q belongs to unregistered template %d", v.Name, v.Pid)
		}
		if !v.Frozen {
			c.fail("template-unfrozen", "template heap %q is not frozen", v.Name)
		}
		if n := len(v.Entries); n != 0 {
			c.fail("template-entry", "template heap %q is referenced by other heaps (%d entry item(s))", v.Name, n)
		}
	}
}

// checkGraph walks every reference field: cross-heap edges need exit items
// and must respect the legality matrix; every edge must land on a live
// object. Requires a quiescent VM.
func (c *checker) checkGraph() {
	for i := range c.w.Heaps {
		v := &c.w.Heaps[i]
		for _, ov := range v.Objects {
			o := ov.Obj
			for _, ref := range o.Refs {
				if ref == nil {
					continue
				}
				c.rep.EdgesChecked++
				tid, live := c.owner[ref]
				if !live {
					c.fail("dangling-ref", "object %#x in heap %q references unregistered object %#x",
						o.Addr, v.Name, ref.Addr)
					continue
				}
				if tid == v.ID {
					continue
				}
				tv := c.byID[tid]
				switch v.Kind {
				case heap.KindUser:
					if tv.Kind == heap.KindUser || tv.Kind == heap.KindTemplate {
						c.fail("illegal-ref", "user heap %q references %s heap %q (object %#x -> %#x)",
							v.Name, tv.Kind, tv.Name, o.Addr, ref.Addr)
					}
				case heap.KindShared:
					if tv.Kind != heap.KindKernel {
						c.fail("illegal-ref", "shared heap %q references %s heap %q (object %#x -> %#x)",
							v.Name, tv.Kind, tv.Name, o.Addr, ref.Addr)
					}
				case heap.KindTemplate:
					// A template may keep kernel/shared objects alive through
					// its own exit items; anything else would let a fork smuggle
					// in a reference to mutable non-template state.
					if tv.Kind != heap.KindKernel && tv.Kind != heap.KindShared {
						c.fail("illegal-ref", "template heap %q references %s heap %q (object %#x -> %#x)",
							v.Name, tv.Kind, tv.Name, o.Addr, ref.Addr)
					}
				}
				if _, ok := v.Exits[ref]; !ok {
					c.fail("unbacked-ref", "cross-heap reference %#x (%q) -> %#x (%q) has no exit item",
						o.Addr, v.Name, ref.Addr, tv.Name)
				}
			}
		}
	}
}
