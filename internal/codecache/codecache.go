// Package codecache implements the shared JIT code cache: compile a
// module once per engine configuration, share the immutable compiled
// artifact read-only across every process that loads identical bytecode
// (the ShareJIT observation applied to the paper's process model).
//
// Artifacts are content-addressed — keyed by the module's canonical
// hash plus the engine variant — so two processes share code iff a
// loader would build identical namespaces and the engine would compile
// identical bodies. An artifact is one more kind of entry in the VM's
// sharing ledger (shared.Ledger), which charges its residency to the
// cache's base limit on insert, charges every sharer the full artifact
// size on attach and credits it on detach, exactly as for shared heaps.
// This package keeps only the content-addressed index, hit/miss
// counting, and eviction of zero-sharer artifacts under kernel memory
// pressure — never while a live process holds a handle.
package codecache

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/interp"
	"repro/internal/memlimit"
	"repro/internal/shared"
	"repro/internal/telemetry"
)

// Key content-addresses one artifact: the module's canonical hash plus
// the compiling engine's configuration. Engine variants that Name()
// collapses ("jit-opt") stay distinct here — a body with statements and
// a plain body are different artifacts.
type Key struct {
	ModuleHash [32]byte
	Variant    string
}

// Artifact is one immutable compiled program: a KindCode ledger entry
// whose Size is the modeled resident size (see interp.CompileProgram);
// every sharer is charged exactly Size. Name is the first loader's
// module description, for ps/metrics.
type Artifact struct {
	shared.Entry
	Key Key
	// Program holds the relocatable compiled bodies, installable into
	// any namespace defining identical bytecode.
	Program *interp.Program
}

// Manager indexes every cached artifact of one VM. Like the shared-heap
// namespace, the index is a global resource: keys are charged nothing;
// residency and sharer charges live in the ledger. Lock order:
// Manager.mu → ledger.
type Manager struct {
	mu        sync.Mutex
	book      *shared.Ledger
	base      *memlimit.Limit // home of every artifact
	artifacts map[Key]*Artifact
	resident  uint64 // Σ Size over artifacts
}

// NewManager creates a manager over the VM's ledger; base is the
// memlimit that owns cache residency (typically a child of the VM root).
// The ledger's Metrics receive the codecache.* counters and gauges.
func NewManager(book *shared.Ledger, base *memlimit.Limit) *Manager {
	return &Manager{book: book, base: base, artifacts: make(map[Key]*Artifact)}
}

// Peek reports whether an artifact exists for key without counting a
// hit or miss. No load path uses it (verification is memoized per
// module, so a load needs no proof from the cache); it stays for the
// benchmark probes, which check that a first load left an artifact.
func (m *Manager) Peek(key Key) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.artifacts[key]
	return ok
}

// Lookup finds an artifact by key, counting the hit or miss.
func (m *Manager) Lookup(key Key) (*Artifact, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	a, ok := m.artifacts[key]
	if mt := m.book.Metrics; mt != nil {
		if ok {
			mt.Counter(telemetry.MCodeHits).Inc()
		} else {
			mt.Counter(telemetry.MCodeMisses).Inc()
		}
	}
	return a, ok
}

// Insert registers a freshly compiled program under key, debiting the
// base limit for its residency. If another loader raced the compile and
// inserted first, the existing artifact wins and the duplicate is
// discarded (its modeled bytes were never charged). The artifact starts
// with zero sharers; callers attach through the ledger.
func (m *Manager) Insert(key Key, name string, p *interp.Program) (*Artifact, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if a, dup := m.artifacts[key]; dup {
		return a, nil
	}
	a := &Artifact{Entry: shared.Entry{Name: name, Size: p.Size()}, Key: key, Program: p}
	if err := m.book.Add(&a.Entry, m.base); err != nil {
		return nil, fmt.Errorf("codecache: insert %q: %w", name, err)
	}
	m.artifacts[key] = a
	m.resident += a.Size
	m.gauges()
	return a, nil
}

// ResidentBytes reports the cache's total residency (charged to base).
func (m *Manager) ResidentBytes() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.resident
}

// EvictOrphans drops every zero-sharer artifact, crediting the base
// limit for each (shared.Ledger.Evict: artifacts with live sharers are
// never touched). Returns the bytes reclaimed. The VM calls this under
// kernel memory pressure (membal's budget accounting counts cache
// residency against the global budget).
func (m *Manager) EvictOrphans() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var freed uint64
	for key, a := range m.artifacts {
		if m.book.Evict(&a.Entry) {
			freed += a.Size
			delete(m.artifacts, key)
		}
	}
	m.resident -= freed
	if freed > 0 {
		m.gauges()
	}
	return freed
}

// Artifacts lists all resident artifacts sorted by name then variant.
func (m *Manager) Artifacts() []*Artifact {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Artifact, 0, len(m.artifacts))
	for _, a := range m.artifacts {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Key.Variant < out[j].Key.Variant
	})
	return out
}

// gauges refreshes the resident-size gauges; callers hold m.mu.
func (m *Manager) gauges() {
	if mt := m.book.Metrics; mt != nil {
		mt.Gauge(telemetry.MCodeArtifacts).Set(uint64(len(m.artifacts)))
		mt.Gauge(telemetry.MCodeResident).Set(m.resident)
	}
}
