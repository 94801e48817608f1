package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"repro/internal/bytecode"
	"repro/internal/heap"
	"repro/internal/interp"
	"repro/internal/loader"
	"repro/internal/memlimit"
	"repro/internal/object"
	"repro/internal/telemetry"
)

// Template is an immutable checkpoint of a warmed process: a frozen
// template heap holding a deep copy of the origin's objects at checkpoint
// time (statics, interned strings, warmed data structures), plus the
// module list needed to rebuild the origin's namespace. Forks stamp out
// fresh isolated processes from it by copying the heap again — paying a
// memcpy-shaped cost instead of class loading, verification, and <clinit>
// execution — so a supervisor can restart or scale a route in
// microseconds (the μFork observation applied to the paper's process
// model).
//
// A template is independent of its origin: the origin may exit, be
// killed, and be fully reclaimed without affecting the template or any
// process later forked from it. The template's residency is charged to
// its own memlimit child ("tmpl:<name>"), capped at exactly its frozen
// size, until Release destroys the heap and returns every byte.
type Template struct {
	// ID is the template's pid: templates draw from the same pid space as
	// processes and appear in ps/top with state "template".
	ID   Pid
	Name string
	VM   *VM
	// Origin is the pid of the checkpointed process (which may since have
	// died; the template does not keep it alive or depend on it).
	Origin Pid
	// Heap is the frozen KindTemplate heap holding the checkpoint.
	Heap *heap.Heap
	// Limit accounts the template's residency (heap bytes + exit items).
	Limit *memlimit.Limit

	// modules is the origin's load order — the reloaded library module
	// followed by every program module — replayed into each fork's
	// namespace without verification, statics allocation, or clinits.
	modules []*bytecode.Module
	// statics maps class name → the class' statics object inside the
	// template heap; forks bind their namespace's classes to copies.
	statics map[string]*object.Object
	// intern is the origin's interning table, retargeted into the
	// template heap; forks rebuild theirs from copies.
	intern map[string]*object.Object

	mu       sync.Mutex
	released bool
}

// TelemetryPid stamps heap/GC telemetry of the template heap.
func (t *Template) TelemetryPid() int32 { return int32(t.ID) }

// Bytes reports the frozen checkpoint's heap size.
func (t *Template) Bytes() uint64 { return t.Heap.Bytes() }

// Checkpoint freezes a warmed process into an immutable Template. The
// process must be running and quiescent (no live threads): checkpoint is
// taken between Run slices, after init/warmup code has finished. The
// origin keeps running afterwards — the checkpoint is a copy, not a
// conversion — and the same process may be checkpointed again.
//
// A concurrent Kill of the origin is deterministic: checkpoint and
// reclamation serialize on the process' forkMu, so the checkpoint either
// completes from the still-live heap before reclamation proceeds, or
// finds the process dead and aborts cleanly with no residue.
func (vm *VM) Checkpoint(p *Process, name string) (*Template, error) {
	if p == nil || p.VM != vm {
		return nil, fmt.Errorf("core: checkpoint of foreign process")
	}
	if name == "" {
		name = p.Name
	}
	p.forkMu.Lock()
	defer p.forkMu.Unlock()
	if s := p.State(); s != ProcRunning {
		return nil, fmt.Errorf("core: checkpoint of %s process %d", s, p.ID)
	}
	if n := p.Threads(); n != 0 {
		return nil, fmt.Errorf("core: checkpoint of process %d with %d live thread(s)", p.ID, n)
	}

	vm.mu.Lock()
	vm.nextPid++
	pid := vm.nextPid
	vm.mu.Unlock()

	// The template pays for itself from the root pool while the copy runs;
	// once frozen, its max is pinned to exactly its residency.
	lim, err := vm.RootLimit.NewChild("tmpl:"+name, memlimit.Unlimited, false)
	if err != nil {
		return nil, fmt.Errorf("core: memlimit for template %q: %w", name, err)
	}
	t := &Template{ID: pid, Name: name, VM: vm, Origin: p.ID, Limit: lim}
	t.Heap = vm.Reg.NewOwnedHeap(heap.KindTemplate, fmt.Sprintf("tmpl:%s#%d", name, pid), lim, t, int32(pid))

	// Snapshot the namespace state the fork path will need. forkMu
	// excludes reclamation, so the loader and interning table are stable.
	classes := p.Loader.Classes()
	p.mu.Lock()
	modules := append([]*bytecode.Module(nil), p.modules...)
	intern := make(map[string]*object.Object, len(p.intern))
	for s, o := range p.intern {
		intern[s] = o
	}
	p.mu.Unlock()

	unwind := func(err error) (*Template, error) {
		vm.SharedMgr.DetachAll(t)
		_ = t.Heap.Destroy()
		lim.Release()
		vm.Tel.Reg.Kernel().Counter(telemetry.MForkFailures).Inc()
		return nil, err
	}

	// Identity class mapping: the template shares the origin's runtime
	// classes (they outlive the origin's namespace — forks map them into
	// their own namespaces by name).
	copies, err := p.Heap.CopyInto(t.Heap, func(c *object.Class) (*object.Class, error) { return c, nil })
	if err != nil {
		return unwind(fmt.Errorf("core: checkpoint of process %d: %w", p.ID, err))
	}

	t.modules = modules
	t.statics = make(map[string]*object.Object)
	for _, c := range classes {
		if c.Statics == nil {
			continue
		}
		st, ok := copies[c.Statics]
		if !ok {
			return unwind(fmt.Errorf("core: checkpoint: statics of %s not on process heap", c.Name))
		}
		t.statics[c.Name] = st
	}
	t.intern = make(map[string]*object.Object, len(intern))
	for s, o := range intern {
		if cp, ok := copies[o]; ok {
			t.intern[s] = cp
		}
	}

	// Pin the origin's compiled code before the residency cap is fixed:
	// the template's limit is charged the full size of each artifact, so
	// SetMax below covers heap bytes + code charges together.
	for _, m := range t.modules {
		if err := vm.attachCachedCode(t, lim, m); err != nil {
			return unwind(fmt.Errorf("core: checkpoint of process %d: %w", p.ID, err))
		}
	}

	t.Heap.Freeze()
	// Exact-size the residency cap: a frozen template never allocates.
	_ = lim.SetMax(lim.Use())

	vm.mu.Lock()
	vm.templates[pid] = t
	ntmpl := len(vm.templates)
	vm.mu.Unlock()

	scope := vm.Tel.Reg.Proc(int32(pid))
	scope.SetMeta("state", "template")
	scope.Gauge(telemetry.MMemLimit).Set(lim.Max())
	k := vm.Tel.Reg.Kernel()
	k.Counter(telemetry.MForkCheckpoints).Inc()
	k.Gauge(telemetry.MForkTemplates).Set(uint64(ntmpl))
	vm.Tel.Emit(telemetry.Event{
		Kind: telemetry.EvCheckpoint, Pid: int32(pid),
		A: t.Heap.Bytes(), B: uint64(len(copies)), Detail: name,
	})
	return t, nil
}

// Fork stamps out a fresh isolated process from the template: a new pid,
// a new memlimit child charged in full for the copied bytes, a new
// namespace with the template's modules defined (no verification, no
// statics allocation, no clinits — their effects arrive with the heap
// copy), and a deep copy of the template heap with statics and interned
// strings rebound. The clone is indistinguishable from a freshly-inited
// process that ran the same warmup (the fork differential suite holds it
// to byte-identical results, heap bytes, and cycles).
//
// On any failure — memlimit too small for the template, fork.copy fault —
// the half-built clone unwinds to zero residual charges and pages.
func (t *Template) Fork(name string, opts ProcessOptions) (*Process, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.released {
		return nil, fmt.Errorf("core: fork from released template %q", t.Name)
	}
	vm := t.VM
	if opts.MemLimit == 0 {
		opts.MemLimit = 16 << 20
	}
	lim, err := vm.RootLimit.NewChild("proc:"+name, opts.MemLimit, opts.HardLimit)
	if err != nil {
		return nil, fmt.Errorf("core: memlimit for %q: %w", name, err)
	}
	vm.mu.Lock()
	vm.nextPid++
	pid := vm.nextPid
	vm.mu.Unlock()

	p := &Process{
		ID:        pid,
		Name:      name,
		VM:        vm,
		Limit:     lim,
		Out:       opts.Out,
		threads:   make(map[*interp.Thread]struct{}),
		threadFor: make(map[*object.Object]*interp.Thread),
		intern:    make(map[string]*object.Object),
		rng:       rand.New(rand.NewSource(opts.Seed + int64(pid))),
		cpuLimit:  opts.CPULimit,
		ioLimit:   opts.IOLimit,
	}
	p.state.Store(uint32(ProcRunning))
	p.gcTrigger.Store(gcMinHeap)
	scope := vm.Tel.Reg.Proc(int32(pid))
	p.ctrCPU = scope.Counter(telemetry.MCPUCycles)
	p.ctrIO = scope.Counter(telemetry.MIOBytes)
	p.ctrGCCharged = scope.Counter(telemetry.MGCCharged)
	p.ctrGCAdaptive = scope.Counter(telemetry.MGCAdaptive)
	scope.Gauge(telemetry.MMemLimit).Set(opts.MemLimit)
	p.Heap = vm.Reg.NewOwnedHeap(heap.KindUser, fmt.Sprintf("proc:%s#%d", name, pid), lim, p, int32(pid))
	p.emit(telemetry.EvProcCreate, opts.MemLimit, 0, name)
	p.Loader = loader.NewProcess(fmt.Sprintf("%s#%d", name, pid), p.Heap, vm.Shared)
	p.Loader.RegisterNatives(vm.Lib.Natives, vm.Lib.Kernel)

	unwind := func(err error) (*Process, error) {
		vm.SharedMgr.DetachAll(p)
		_ = p.Heap.Destroy()
		lim.Release()
		p.reclaiming.Store(true)
		p.state.Store(uint32(ProcReclaimed))
		p.emit(telemetry.EvProcReclaim, 0, 0, "fork failed")
		vm.Tel.Reg.Kernel().Counter(telemetry.MForkFailures).Inc()
		return nil, err
	}

	// Rebuild the namespace from the recorded module list; the copied
	// statics objects stand in for allocation + clinit execution.
	for _, m := range t.modules {
		if err := p.Loader.DefineTemplate(m); err != nil {
			return unwind(fmt.Errorf("core: fork from template %q: %w", t.Name, err))
		}
	}

	copies, err := t.Heap.CopyInto(p.Heap, func(c *object.Class) (*object.Class, error) {
		if c.Shared {
			return c, nil
		}
		if base, ok := strings.CutSuffix(c.Name, "$statics"); ok {
			bc, cerr := p.Loader.Class(base)
			if cerr != nil {
				return nil, cerr
			}
			if bc.StaticsClass == nil {
				return nil, fmt.Errorf("core: fork: %s has no statics class", base)
			}
			return bc.StaticsClass, nil
		}
		return p.Loader.Class(c.Name)
	})
	if err != nil {
		return unwind(fmt.Errorf("core: fork from template %q: %w", t.Name, err))
	}

	// Bind each class' statics to its copy: this is where "<clinit>
	// already ran" becomes true in the clone.
	for _, c := range p.Loader.Classes() {
		if c.StaticsClass == nil {
			continue
		}
		src, ok := t.statics[c.Name]
		if !ok {
			return unwind(fmt.Errorf("core: fork: template %q has no statics for %s", t.Name, c.Name))
		}
		c.Statics = copies[src]
	}
	p.mu.Lock()
	for s, o := range t.intern {
		if cp, ok := copies[o]; ok {
			p.intern[s] = cp
		}
	}
	p.modules = append(p.modules, t.modules...)
	p.mu.Unlock()

	// Share the zygote's compiled code: each module's artifact is still
	// resident (the template holds a handle), so this attaches and
	// installs instead of compiling — the clone pays a memlimit debit,
	// not a JIT pass.
	for _, m := range t.modules {
		if err := vm.attachCachedCode(p, lim, m); err != nil {
			return unwind(fmt.Errorf("core: fork from template %q: %w", t.Name, err))
		}
	}

	vm.mu.Lock()
	vm.procs[pid] = p
	vm.mu.Unlock()

	copied := p.Heap.Bytes()
	k := vm.Tel.Reg.Kernel()
	k.Counter(telemetry.MForks).Inc()
	k.Counter(telemetry.MForkBytes).Add(copied)
	vm.Tel.Emit(telemetry.Event{
		Kind: telemetry.EvFork, Pid: int32(pid),
		A: copied, B: uint64(t.ID), Detail: name,
	})
	return p, nil
}

// Release destroys the template: its heap unwinds to zero residual
// charges and pages, its memlimit child detaches, and its pid leaves the
// template table. Processes already forked from it are unaffected (they
// own full copies). Idempotent.
func (t *Template) Release() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.released {
		return nil
	}
	if err := t.Heap.Destroy(); err != nil {
		return fmt.Errorf("core: release of template %q: %w", t.Name, err)
	}
	t.VM.SharedMgr.DetachAll(t)
	t.Limit.Release()
	t.released = true
	vm := t.VM
	vm.mu.Lock()
	delete(vm.templates, t.ID)
	ntmpl := len(vm.templates)
	vm.mu.Unlock()
	vm.Tel.Reg.Kernel().Gauge(telemetry.MForkTemplates).Set(uint64(ntmpl))
	vm.Tel.Reg.Proc(int32(t.ID)).SetMeta("state", "released")
	return nil
}

// Templates lists registered templates sorted by pid.
func (vm *VM) Templates() []*Template {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	out := make([]*Template, 0, len(vm.templates))
	for _, t := range vm.templates {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Template resolves a template pid.
func (vm *VM) Template(pid Pid) (*Template, bool) {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	t, ok := vm.templates[pid]
	return t, ok
}
