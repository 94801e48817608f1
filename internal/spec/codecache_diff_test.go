package spec

import (
	"testing"

	"repro/internal/bytecode"
	"repro/internal/core"
)

// TestCodeCacheIndistinguishable is the shared-code-cache correctness
// wall: on every engine, for every workload, a process whose compiled
// code came from the shared cache (second loader of the module — pure
// cache hits) produces a byte-identical execution — same checksum, same
// simulated cycles, same final heap bytes — as a process that compiled
// everything privately with the cache off. Compiled bodies are
// relocatable and virtual-cycle costs are engine properties, so sharing
// must only change host wall-clock, never observable behaviour. The
// baseline is the same cache-off run the fork wall compares against. The
// audit at the end holds the books to the full-charging rule after the
// attach/detach churn of the warmer and the sharer.
func TestCodeCacheIndistinguishable(t *testing.T) {
	engines := []core.EngineKind{core.EngineInterp, core.EngineInterpSpill, core.EngineJITOpt}
	if testing.Short() {
		// The one engine whose code is shared: interpreter engines
		// have no cache, so on them the wall shares nothing.
		engines = []core.EngineKind{core.EngineJITOpt}
	}
	for _, engine := range engines {
		engine := engine
		t.Run(string(engine), func(t *testing.T) {
			for _, w := range All() {
				w := w
				t.Run(w.Name, func(t *testing.T) {
					// Cache off: the private-compilation baseline.
					want := baseline(t, engine, w)

					// Cache on: a warmer process compiles-and-inserts, then
					// the measured process attaches with pure hits.
					on, err := core.NewVM(core.Config{
						Engine: engine, TotalMemory: 512 << 20, CodeCache: true,
					})
					if err != nil {
						t.Fatal(err)
					}
					warmer, err := on.NewProcess("warmer-"+w.Name, core.ProcessOptions{MemLimit: 64 << 20})
					if err != nil {
						t.Fatal(err)
					}
					if err := warmer.Load(w.Module()); err != nil {
						t.Fatal(err)
					}
					if err := warmer.Load(bytecode.MustAssemble(holdSrc)); err != nil {
						t.Fatal(err)
					}
					shared, err := on.NewProcess("shared-"+w.Name, core.ProcessOptions{MemLimit: 64 << 20})
					if err != nil {
						t.Fatal(err)
					}
					if err := shared.Load(w.Module()); err != nil {
						t.Fatal(err)
					}
					got := measure(t, on, shared, w)

					if got != want {
						t.Errorf("cache-on run diverges:\n off: %v\n  on: %v", want, got)
					}

					warmer.Kill(nil)
					if err := on.Run(0); err != nil {
						t.Fatal(err)
					}
					if on.CodeMgr == nil {
						if engine == core.EngineJITOpt {
							t.Fatal("compiling engine has no code cache")
						}
					} else {
						on.CodeMgr.EvictOrphans()
					}
					if rep := on.Audit(true); !rep.OK() {
						t.Fatalf("audit after cache-on differential:\n%s", rep)
					}
				})
			}
		})
	}
}
