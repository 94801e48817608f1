// Package codecache implements the shared JIT code cache: compile a
// module once per engine configuration, share the immutable compiled
// artifact read-only across every process that loads identical bytecode
// (the ShareJIT observation applied to the paper's process model).
//
// Artifacts are content-addressed — keyed by the module's canonical
// hash plus the engine variant ("jit", "jit+fuse+ic", ...) — so two
// processes share code iff a loader would build identical namespaces
// and the engine would compile identical bodies. Residency follows the
// paper's full-charging rule for shared state, exactly as shared heaps
// do: every sharer is charged the *full* artifact size on attach and
// credited on detach, so no process is ever charged asynchronously when
// another sharer exits. The cache's own residency is charged to a base
// memlimit (a child of the VM root), debited on insert and credited on
// evict; zero-sharer artifacts are evicted only under kernel memory
// pressure, never while a live process holds a handle.
package codecache

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/faults"
	"repro/internal/interp"
	"repro/internal/memlimit"
	"repro/internal/telemetry"
)

// ErrAttachFault is returned when the codecache.attach fault site fires
// mid-attach; the attach has fully unwound when callers see it.
var ErrAttachFault = errors.New("codecache: injected attach fault")

// Key content-addresses one artifact: the module's canonical hash plus
// the compiling engine's configuration. Engine variants that Name()
// collapses ("jit-opt") stay distinct here — a body with statements and
// a plain body are different artifacts.
type Key struct {
	ModuleHash [32]byte
	Variant    string
}

// Artifact is one immutable compiled program plus its sharing
// bookkeeping. Size is the modeled resident size (see
// interp.CompileProgram); every sharer is charged exactly Size.
type Artifact struct {
	Key  Key
	Name string // first loader's module description, for ps/metrics
	Size uint64
	// Program holds the relocatable compiled bodies, installable into
	// any namespace defining identical bytecode.
	Program *interp.Program

	sharers map[any]*memlimit.Limit
}

// Sharers reports the number of processes currently charged for the
// artifact. Callers must not rely on it for synchronization; it is a
// point-in-time read under the manager lock via Snapshot, or a racy
// convenience otherwise.
func (a *Artifact) Sharers() int { return len(a.sharers) }

// SharedBy reports whether who is currently attached.
func (a *Artifact) SharedBy(who any) bool {
	_, ok := a.sharers[who]
	return ok
}

// Manager tracks every cached artifact of one VM. Like the shared-heap
// manager, the namespace is a global resource: keys are charged
// nothing, artifact residency is charged to the base limit, and each
// sharer additionally pays the full artifact size against its own
// memlimit. The established lock order is Manager.mu → memlimit tree,
// so Snapshot callbacks may read limits.
type Manager struct {
	// Metrics, when set, receives codecache.* counters and gauges
	// (kernel scope of the owning VM). Set once at VM construction.
	Metrics *telemetry.Scope
	// Faults, when set, arms the codecache.attach crash-consistency
	// site: a firing attach unwinds its debit and reports an error,
	// leaking zero bytes and zero refcounts.
	Faults *faults.Plane

	mu        sync.Mutex
	base      *memlimit.Limit // accounting home for cache residency
	artifacts map[Key]*Artifact
}

// NewManager creates a manager; base is the memlimit that owns cache
// residency (typically a child of the VM root).
func NewManager(base *memlimit.Limit) *Manager {
	return &Manager{base: base, artifacts: make(map[Key]*Artifact)}
}

// Base returns the memlimit that owns cache residency (the auditor
// re-derives its direct use from the artifact table).
func (m *Manager) Base() *memlimit.Limit { return m.base }

// Peek reports whether an artifact exists for key without counting a
// hit or miss. Loaders use it to decide whether the module's content is
// already proven (a resident artifact implies the exact same bytecode
// verified and compiled once) before the metered Lookup on the attach
// path.
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
	if m.Metrics != nil {
		if ok {
			m.Metrics.Counter(telemetry.MCodeHits).Inc()
		} else {
			m.Metrics.Counter(telemetry.MCodeMisses).Inc()
		}
	}
	return a, ok
}

// Insert registers a freshly compiled program under key, debiting the
// base limit for its residency. If another loader raced the compile and
// inserted first, the existing artifact wins and the duplicate is
// discarded (its modeled bytes were never charged). The artifact starts
// with zero sharers; callers Attach separately.
func (m *Manager) Insert(key Key, name string, p *interp.Program) (*Artifact, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if a, dup := m.artifacts[key]; dup {
		return a, nil
	}
	size := p.Size()
	if err := m.base.Debit(size); err != nil {
		return nil, fmt.Errorf("codecache: insert %q: %w", name, err)
	}
	a := &Artifact{
		Key:     key,
		Name:    name,
		Size:    size,
		Program: p,
		sharers: make(map[any]*memlimit.Limit),
	}
	m.artifacts[key] = a
	m.gauges()
	return a, nil
}

// Attach charges who (through limit) the full artifact size. Attaching
// twice is idempotent. If the codecache.attach fault site fires, the
// attach unwinds — the debit is credited back, the sharer is not
// recorded — and the injected error surfaces to the caller.
func (m *Manager) Attach(a *Artifact, who any, limit *memlimit.Limit) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := a.sharers[who]; dup {
		return nil
	}
	if err := limit.Debit(a.Size); err != nil {
		return err
	}
	// Crash-consistency window: the debit has landed but the sharer is
	// not yet recorded. A firing here must leave no residue.
	if m.Faults != nil && m.Faults.Fire(faults.SiteCodeAttach) {
		limit.Credit(a.Size)
		if m.Metrics != nil {
			m.Metrics.Counter(telemetry.MCodeAborts).Inc()
		}
		return fmt.Errorf("attach %q: %w", a.Name, ErrAttachFault)
	}
	a.sharers[who] = limit
	if m.Metrics != nil {
		m.Metrics.Counter(telemetry.MCodeAttached).Inc()
	}
	return nil
}

// Detach credits who's charge back. Detaching a non-sharer is a no-op.
func (m *Manager) Detach(a *Artifact, who any) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if lim, ok := a.sharers[who]; ok {
		lim.Credit(a.Size)
		delete(a.sharers, who)
		if m.Metrics != nil {
			m.Metrics.Counter(telemetry.MCodeDetached).Inc()
		}
	}
}

// DetachAll removes who from every artifact (process termination).
func (m *Manager) DetachAll(who any) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, a := range m.artifacts {
		if lim, ok := a.sharers[who]; ok {
			lim.Credit(a.Size)
			delete(a.sharers, who)
			if m.Metrics != nil {
				m.Metrics.Counter(telemetry.MCodeDetached).Inc()
			}
		}
	}
}

// BytesFor reports the total artifact bytes who is currently charged
// for (the ps/top CODE column).
func (m *Manager) BytesFor(who any) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n uint64
	for _, a := range m.artifacts {
		if _, ok := a.sharers[who]; ok {
			n += a.Size
		}
	}
	return n
}

// ResidentBytes reports the cache's total residency (charged to base).
func (m *Manager) ResidentBytes() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n uint64
	for _, a := range m.artifacts {
		n += a.Size
	}
	return n
}

// Len reports the number of resident artifacts.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.artifacts)
}

// EvictOrphans drops every zero-sharer artifact, crediting the base
// limit for each. Artifacts with live sharers are structurally
// unevictable — the loop never touches them — so a process' installed
// code can never vanish underneath it. Returns the bytes reclaimed.
// The VM calls this under kernel memory pressure (membal's budget
// accounting counts cache residency against the global budget).
func (m *Manager) EvictOrphans() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var freed uint64
	for key, a := range m.artifacts {
		if len(a.sharers) > 0 {
			continue
		}
		m.base.Credit(a.Size)
		freed += a.Size
		delete(m.artifacts, key)
		if m.Metrics != nil {
			m.Metrics.Counter(telemetry.MCodeEvicted).Inc()
		}
	}
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

// ChargeInfo is a point-in-time copy of one artifact's charge state,
// captured by Snapshot for the invariant auditor.
type ChargeInfo struct {
	Name    string
	Variant string
	Size    uint64
	// Sharers are the memlimits currently charged Size each.
	Sharers []*memlimit.Limit
}

// Snapshot invokes fn with the charge table while holding the manager
// lock, so no insert, attach, detach, or evict can run while fn
// captures the rest of the world. fn may read memlimits (lock order
// Manager.mu → memlimit tree).
func (m *Manager) Snapshot(fn func([]ChargeInfo)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	infos := make([]ChargeInfo, 0, len(m.artifacts))
	for _, a := range m.artifacts {
		ci := ChargeInfo{Name: a.Name, Variant: a.Key.Variant, Size: a.Size}
		for _, lim := range a.sharers {
			ci.Sharers = append(ci.Sharers, lim)
		}
		infos = append(infos, ci)
	}
	sort.Slice(infos, func(i, j int) bool {
		if infos[i].Name != infos[j].Name {
			return infos[i].Name < infos[j].Name
		}
		return infos[i].Variant < infos[j].Variant
	})
	fn(infos)
}

// gauges refreshes the resident-size gauges; callers hold m.mu.
func (m *Manager) gauges() {
	if m.Metrics == nil {
		return
	}
	var n uint64
	for _, a := range m.artifacts {
		n += a.Size
	}
	m.Metrics.Gauge(telemetry.MCodeArtifacts).Set(uint64(len(m.artifacts)))
	m.Metrics.Gauge(telemetry.MCodeResident).Set(n)
}
