package interp

// The bridge between the optimizing engine and the shared code cache
// (internal/codecache): statement tables are relocatable (see jit.go), so
// a module compiled once can be installed into every process namespace
// that defines the same bytecode. This file exports just enough surface
// for the cache to hold and re-seed compilations without exposing the
// statement machinery itself.

import "repro/internal/object"

// Variant names the engine configuration for cache keying. There is one
// configuration; the string keeps the key every cache user already writes.
func (*JIT) Variant() string { return "jit+fuse+ic" }

// Artifact size accounting. Go gives no way to measure a closure graph's
// real footprint, so the cache charges a deterministic model instead:
// a fixed overhead per compiled method plus a per-instruction cost.
// Determinism is the point — every sharer is charged the same size, and
// the auditor can reconcile charges exactly.
const (
	artifactMethodBytes = 256
	artifactInstrBytes  = 96
)

// Program is one module compiled for the optimizing engine: an immutable
// set of relocatable method bodies, keyed by class-qualified method
// signature. It is created once by CompileProgram and installed read-only
// into any number of process namespaces.
type Program struct {
	bodies map[string]*compiled
	size   uint64
}

// Size reports the modeled resident size of the artifact in bytes.
func (p *Program) Size() uint64 { return p.size }

// NumMethods reports how many method bodies the artifact holds.
func (p *Program) NumMethods() int { return len(p.bodies) }

func methodKey(c *object.Class, m *object.Method) string {
	return c.Name + "." + m.Name + m.Sig
}

// SyntheticProgram builds a bodiless placeholder sized like a real
// artifact of the given shape, for cache-accounting tests and
// benchmarks that attach but never execute it.
func SyntheticProgram(methods, instrs int) *Program {
	return &Program{
		bodies: make(map[string]*compiled),
		size:   uint64(methods)*artifactMethodBytes + uint64(instrs)*artifactInstrBytes,
	}
}

// CompileProgram compiles every bytecode-bearing method of the given
// classes into one relocatable Program. The classes come from whichever
// namespace compiles first; because the bodies capture no namespace-bound
// pointers, the result is valid for any namespace defining identical
// bytecode. Compilation cannot fail: an instruction no statement covers
// simply runs through the interpreter, so the error is always nil.
func (*JIT) CompileProgram(classes []*object.Class) (*Program, error) {
	p := &Program{bodies: make(map[string]*compiled)}
	for _, c := range classes {
		for _, m := range c.Methods {
			if m.Code == nil {
				continue
			}
			p.bodies[methodKey(c, m)] = compile(m)
			p.size += artifactMethodBytes + artifactInstrBytes*uint64(len(m.Code.Instrs))
		}
	}
	return p, nil
}

// InstallProgram seeds the given classes' methods with the Program's
// bodies, so bodyFor hits without compiling. Methods the Program does not
// cover, or that already carry a body, are left alone. Returns the number
// of bodies installed.
func (*JIT) InstallProgram(p *Program, classes []*object.Class) int {
	installed := 0
	for _, c := range classes {
		for _, m := range c.Methods {
			if m.Code == nil {
				continue
			}
			if body, ok := p.bodies[methodKey(c, m)]; ok && m.Compiled.CompareAndSwap(nil, body) {
				installed++
			}
		}
	}
	return installed
}
