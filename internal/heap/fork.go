package heap

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/faults"
	"repro/internal/object"
	"repro/internal/vmaddr"
)

// ErrCopyFault reports a checkpoint/fork copy aborted by the fork.copy
// fault site. The destination heap holds a half-built clone; the caller
// must Destroy it to unwind every charge and page.
var ErrCopyFault = errors.New("heap: fork copy aborted by fault injection")

// CopyInto deep-copies every live object of h into dst, the reverse of
// MergeInto: where a merge donates pages and identities, the copy mints
// fresh objects on dst's own chunks, charged in full to dst's memlimit.
// It is the engine of both checkpoint (warmed process heap → immutable
// template heap) and fork (template heap → new process heap).
//
// mapClass translates h's runtime classes into dst's namespace (identity
// for a checkpoint, clone-loader lookup for a fork); object layouts must
// be preserved so accounted sizes — and therefore heap bytes — come out
// identical. References between copied objects are remapped to the copies;
// references that leave h (kernel or shared heap objects) are kept and
// re-backed with dst's own exit items, so the auditor's entry/exit
// symmetry holds on the clone without inheriting anything from h. Mutable
// native payloads are deep-copied (object.DataCloner, StringBuilder
// buffers); immutable ones are shared.
//
// The caller must guarantee h is quiescent: no mutator is running over it
// (checkpoint requires a threadless source, fork reads a frozen template).
// Both heaps' gcMu are held for the whole copy, so collections and merges
// of either heap — including a concurrent Kill's reclamation of h —
// serialize deterministically before or after the copy; a reclaim that
// wins the race marks h dead and the copy refuses with ErrHeapDead.
//
// The fork.copy fault site fires once per object; when it trips, CopyInto
// stops before that object lands and returns ErrCopyFault with the
// partial copy map. On any error the caller owns the unwind (Destroy dst).
func (h *Heap) CopyInto(dst *Heap, mapClass func(*object.Class) (*object.Class, error)) (map[*object.Object]*object.Object, error) {
	if h == dst {
		return nil, fmt.Errorf("heap: copy of %q into itself", h.Name)
	}
	if h.reg != dst.reg {
		return nil, fmt.Errorf("heap: copy across registries")
	}

	first, second := h, dst
	if first.ID > second.ID {
		first, second = second, first
	}
	first.gcMu.Lock()
	defer first.gcMu.Unlock()
	second.gcMu.Lock()
	defer second.gcMu.Unlock()

	// Snapshot the source's object list under its mutex, then copy without
	// it: gcMu excludes collections/merges of h, and the quiescence
	// contract excludes mutators, so the snapshot stays exact.
	h.mu.Lock()
	if h.dead {
		h.mu.Unlock()
		return nil, ErrHeapDead
	}
	snap := slices.Clone(h.objects)
	h.mu.Unlock()
	// Address order makes the copy — allocation order, fault-site hit
	// numbering, and therefore the @N crash sweep — deterministic.
	slices.SortFunc(snap, func(a, b *object.Object) int { return cmp.Compare(a.Addr, b.Addr) })

	copies := make(map[*object.Object]*object.Object, len(snap))
	for _, o := range snap {
		if h.reg.Faults.Fire(faults.SiteForkCopy) {
			return copies, ErrCopyFault
		}
		c, err := mapClass(o.Class)
		if err != nil {
			return copies, err
		}
		var cp *object.Object
		if o.IsArray() {
			cp, err = dst.AllocArray(c, o.ArrayLen())
		} else {
			cp, err = dst.AllocExtra(c, uint64(o.SizeExtra))
		}
		if err != nil {
			return copies, err
		}
		copy(cp.Prims, o.Prims)
		cp.Data = cloneData(o.Data)
		copies[o] = cp
	}

	// Second pass: remap references. Targets inside h become the copies;
	// external targets (kernel, shared) are kept and re-backed so dst pays
	// for its own exit items and the targets' entry counts cover dst.
	for _, o := range snap {
		cp := copies[o]
		for i, ref := range o.Refs {
			if ref == nil {
				continue
			}
			if nc, ok := copies[ref]; ok {
				cp.Refs[i] = nc
				continue
			}
			cp.Refs[i] = ref
			if err := dst.RecordCrossRef(ref); err != nil {
				return copies, err
			}
		}
	}
	return copies, nil
}

// cloneData deep-copies an object's native payload for CopyInto. Payloads
// the VM mutates in place must not be aliased between a template and its
// forks (or the forks would share state through the frozen template);
// immutable payloads — strings, Throwable messages — are shared.
func cloneData(d any) any {
	switch v := d.(type) {
	case nil:
		return nil
	case object.DataCloner:
		return v.CloneData()
	case *[]byte:
		// java/lang/StringBuilder's buffer.
		nb := append([]byte(nil), *v...)
		return &nb
	default:
		return d
	}
}

// Destroy unwinds a heap without merging it anywhere: every accounted
// byte, page, and exit item is released, leaving zero residual charge on
// the heap's memlimit. It serves template release and the fork.copy crash
// path (a half-built clone must vanish without trace); process heaps with
// a live owner go through MergeInto instead.
//
// Destroy refuses while other heaps still hold references into this one
// (live entry items): callers must ensure nothing references a template
// before releasing it — the audit's template ownership rule makes such a
// reference illegal in the first place.
func (h *Heap) Destroy() error {
	h.gcMu.Lock()
	defer h.gcMu.Unlock()
	reg := h.reg
	reg.crossMu.Lock()
	defer reg.crossMu.Unlock()
	h.mu.Lock()
	defer h.mu.Unlock()

	if h.dead {
		return ErrHeapDead
	}
	for _, e := range h.entries {
		if e.RefCount > 0 {
			return fmt.Errorf("heap: destroy of %q with live entry items", h.Name)
		}
	}
	if reg.Telemetry != nil {
		h.emitFastPathLocked()
	}

	// Dissolve this heap's exit items, releasing the targets' entry items —
	// the same step a merge performs, minus any transfer.
	for target, exit := range h.exits {
		delete(h.exits, target)
		h.limit.Credit(exitItemBytes)
		h.releaseEntryLocked(exit.Entry)
	}
	h.exitsTo = make(map[vmaddr.HeapID]int)
	for target := range h.entries {
		// Only zero-count stragglers can remain after the check above.
		delete(h.entries, target)
		h.limit.Credit(entryItemBytes)
	}

	h.flushLeaseLocked()
	if h.bytes > 0 {
		h.limit.Credit(h.bytes)
		h.bytes = 0
	}
	for _, o := range h.objects {
		o.Sever()
	}
	h.objects = nil

	for _, c := range h.free {
		reg.Space.Release(h.ID, c.base, c.pages)
		h.stats.PagesReleased += uint64(c.pages)
	}
	h.free = nil
	for _, c := range h.chunks {
		reg.Space.Release(h.ID, c.base, c.pages)
		h.stats.PagesReleased += uint64(c.pages)
	}
	h.chunks = nil
	h.cur = 0

	h.dead = true
	reg.mu.Lock()
	delete(reg.heaps, h.ID)
	reg.mu.Unlock()
	return nil
}
