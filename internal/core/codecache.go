package core

import (
	"repro/internal/bytecode"
	"repro/internal/codecache"
	"repro/internal/memlimit"
	"repro/internal/object"
)

// The shared-code-cache wiring: module load, fork, checkpoint, and
// reclamation all pass through here. Compiled bodies are relocatable
// (see internal/interp/jit.go), so the first namespace to load a module
// compiles it once and every later namespace installs the same
// immutable artifact — paying an attach (a full-size memlimit debit,
// the paper's full-charging rule) instead of a compile.

// moduleLabel names an artifact for ps/metrics: the module's first
// class (modules are anonymous linkable units).
func moduleLabel(m *bytecode.Module) string {
	if len(m.Classes) > 0 {
		return m.Classes[0].Name
	}
	return "(empty)"
}

// defineModule defines m into p's namespace. When the cache already
// holds an artifact for this exact content under the VM's engine
// variant, the per-process verification pass is skipped: the key is the
// module hash, so a resident artifact is proof that byte-identical
// bytecode verified (and compiled) once already. Verification is a
// property of the content, not the namespace — re-proving it per
// process would dominate exactly the cold starts the cache exists to
// shorten.
func (vm *VM) defineModule(p *Process, m *bytecode.Module) error {
	if vm.CodeMgr != nil &&
		vm.CodeMgr.Peek(codecache.Key{ModuleHash: m.Hash(), Variant: vm.engineJIT.Variant()}) {
		return p.Loader.DefinePreverified(m)
	}
	return p.Loader.DefineModule(m)
}

// attachCachedCode charges who (through lim) the full size of the
// module's artifact for the VM's engine configuration. For a process, a
// miss compiles and inserts the artifact and the compiled bodies seed its
// namespace. A template only pins a resident artifact (a miss after an
// eviction race is skipped; its forks then compile), so the zygote's code
// stays resident for as long as the template lives. A no-op when the
// cache is off. On any failure — memlimit too small for the artifact,
// codecache.attach fault — nothing stays charged and no sharer is
// recorded; the caller decides whether the load survives without cached
// code.
func (vm *VM) attachCachedCode(who any, lim *memlimit.Limit, m *bytecode.Module) error {
	if vm.CodeMgr == nil {
		return nil
	}
	key := codecache.Key{ModuleHash: m.Hash(), Variant: vm.engineJIT.Variant()}
	// A process resolves the module's classes in its namespace, in
	// definition order, for the compile and the install.
	p, _ := who.(*Process)
	var classes []*object.Class
	if p != nil {
		for _, def := range m.Classes {
			c, err := p.Loader.Class(def.Name)
			if err != nil {
				return err
			}
			classes = append(classes, c)
		}
	}
	a, ok := vm.CodeMgr.Lookup(key)
	if !ok && p == nil {
		return nil
	}
	if !ok {
		prog, err := vm.engineJIT.CompileProgram(classes)
		if err != nil {
			return err
		}
		if a, err = vm.CodeMgr.Insert(key, moduleLabel(m), prog); err != nil {
			return err
		}
	}
	if err := vm.SharedMgr.Ledger.Attach(&a.Entry, who, lim); err != nil {
		return err
	}
	if p != nil {
		vm.engineJIT.InstallProgram(a.Program, classes)
	}
	return nil
}
