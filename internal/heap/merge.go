package heap

import (
	"fmt"

	"repro/internal/vmaddr"
)

// MergeInto merges h into dst, implementing the reclamation step of
// process termination (paper §2): "A process' memory is reclaimed upon
// termination by merging its heap with the kernel heap. All exit items are
// destroyed at this point and the corresponding entry items are updated.
// The kernel heap's collector can then collect all of the memory."
//
// After the merge h is dead: its pages belong to dst, its objects are
// registered with dst (and their header heap IDs updated), its accounted
// bytes move from h's memlimit to dst's, and entry/exit items between the
// two heaps dissolve. h's recycled-chunk free list is released back to the
// address space, and its standing memlimit lease is returned before the
// transfer. The caller runs dst's collector afterwards to free whatever
// was only reachable from the dead process.
func (h *Heap) MergeInto(dst *Heap) error {
	if h == dst {
		return fmt.Errorf("heap: merge of %q into itself", h.Name)
	}
	if h.reg != dst.reg {
		return fmt.Errorf("heap: merge across registries")
	}

	// Lock order: both heaps' gcMu by ID (excludes in-flight collections
	// of either heap), then the registry cross lock, then both heap
	// mutexes by ID.
	first, second := h, dst
	if first.ID > second.ID {
		first, second = second, first
	}
	first.gcMu.Lock()
	defer first.gcMu.Unlock()
	second.gcMu.Lock()
	defer second.gcMu.Unlock()

	h.reg.crossMu.Lock()
	defer h.reg.crossMu.Unlock()
	first.mu.Lock()
	defer first.mu.Unlock()
	second.mu.Lock()
	defer second.mu.Unlock()

	if h.dead {
		return ErrHeapDead
	}

	// Return the headroom lease before moving the accounted bytes, so the
	// transfer is exactly the live bytes. Flush the fast-path telemetry
	// watermark while the heap can still be attributed to its process.
	h.flushLeaseLocked()
	if h.reg.Telemetry != nil {
		h.emitFastPathLocked()
	}

	// Move accounted bytes. Item bytes move with their maps below.
	if err := h.limit.Transfer(h.bytes, dst.limit); err != nil {
		return err
	}
	dst.bytes += h.bytes
	h.bytes = 0

	// Transfer pages and objects. The free list holds chunks the collector
	// already proved empty; release them instead of handing dst dead
	// address space.
	for _, c := range h.free {
		h.reg.Space.Release(h.ID, c.base, c.pages)
		h.stats.PagesReleased += uint64(c.pages)
	}
	h.free = nil
	for _, c := range h.chunks {
		h.reg.Space.Reassign(c.base, c.pages, dst.ID)
		// Merged chunks are full from dst's perspective: dst never bump-
		// allocates into them, but its sweep releases them once every
		// object on them dies.
		dst.chunks = append(dst.chunks, chunk{base: c.base, pages: c.pages, off: uint64(c.pages) << vmaddr.PageShift})
	}
	h.chunks = nil
	for _, o := range h.objects {
		o.Heap = dst.ID
	}
	dst.objects = append(dst.objects, h.objects...)
	h.objects = nil

	// Every exit counter aimed at h now describes references into dst:
	// remap them across all live heaps before dissolving items, so the
	// O(1) HasExitsTo bookkeeping stays exact. (crossMu → reg.mu is the
	// established order, see releaseEntryLocked.)
	for _, g := range h.reg.Heaps() {
		if n := g.exitsTo[h.ID]; n > 0 {
			delete(g.exitsTo, h.ID)
			g.exitsTo[dst.ID] += n
		}
	}

	// Destroy h's exit items: each releases its entry item. Exits that
	// targeted dst objects dissolve into intra-heap references.
	for target, exit := range h.exits {
		delete(h.exits, target)
		h.limit.Credit(exitItemBytes)
		h.releaseEntryLocked(exit.Entry)
	}
	h.exitsTo = make(map[vmaddr.HeapID]int)

	// dst's exit items whose targets just moved into dst are now
	// intra-heap: dissolve them too.
	for target, exit := range dst.exits {
		if target.Heap != dst.ID {
			continue
		}
		delete(dst.exits, target)
		if n := dst.exitsTo[dst.ID] - 1; n > 0 {
			dst.exitsTo[dst.ID] = n
		} else {
			delete(dst.exitsTo, dst.ID)
		}
		dst.limit.Credit(exitItemBytes)
		dst.releaseEntryLocked(exit.Entry)
	}

	// Remaining entry items of h describe references from third-party
	// heaps into objects that now live in dst; move them (and their
	// accounting) across.
	for target, entry := range h.entries {
		delete(h.entries, target)
		h.limit.Credit(entryItemBytes)
		if entry.RefCount <= 0 {
			continue
		}
		if err := dst.limit.Debit(entryItemBytes); err != nil {
			return err
		}
		dst.entries[target] = entry
	}

	h.dead = true
	h.reg.mu.Lock()
	delete(h.reg.heaps, h.ID)
	h.reg.mu.Unlock()
	return nil
}
