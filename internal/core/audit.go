package core

import (
	"repro/internal/audit"
	"repro/internal/shared"
)

// Audit captures a globally consistent snapshot of every accounting
// structure in the VM — heaps, entry/exit items, the memlimit tree, the
// page table, the sharing ledger (shared heaps and code artifacts), and
// the process table — and re-derives the books from first principles
// (see package audit). graph additionally walks every object's reference
// fields, checking the legality matrix and exit-item backing; it is only
// meaningful while no mutator runs (scheduler idle), whereas the numeric
// checks hold on any consistent cut.
//
// The capture follows the kernel lock order: one critical section of the
// ledger lock wraps the heap snapshot (the ledger precedes the heap
// locks, as in orphan reclamation), and the memlimit tree, page table,
// and process table are copied inside the heap snapshot's critical
// section.
func (vm *VM) Audit(graph bool) *audit.Report {
	var w audit.World
	vm.SharedMgr.Snapshot(func(entries []shared.ChargeInfo) {
		w.Ledger = entries
		w.Heaps = vm.Reg.SnapshotAll(func() {
			w.Limits = vm.RootLimit.Snapshot()
			w.Pages = vm.Space.Dump()
			w.LivePids = make(map[int32]bool)
			w.TemplatePids = make(map[int32]bool)
			vm.mu.Lock()
			for pid := range vm.procs {
				w.LivePids[int32(pid)] = true
			}
			for pid := range vm.templates {
				w.TemplatePids[int32(pid)] = true
			}
			vm.mu.Unlock()
		})
	})
	w.KernelID = vm.KernelHeap.ID
	return audit.Check(w, audit.Options{Graph: graph})
}
