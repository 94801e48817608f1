package spec

import (
	"testing"

	"repro/internal/barrier"
	"repro/internal/core"
)

// simCost is what a program costs in the simulation: none of it may depend
// on the engine that ran the program.
type simCost struct {
	cycles, barriers, gcs uint64
	checksum              int64
}

// pinnedCost is every workload's cost on the benchmark platform
// (NoHeapPointer barrier, fast exceptions, thin locks), recorded on the
// switch interpreter. mtrt is the sensitive row: it runs two threads, so
// an engine that moved a single yield point shifts its cycle count.
var pinnedCost = map[string]simCost{
	"compress":  {6_836_757, 0, 0, compressChecksum},
	"jess":      {15_056_052, 67_500, 2, jessChecksum},
	"db":        {105_463_423, 307_098, 0, dbChecksum},
	"javac":     {34_594_423, 147_312, 1, javacChecksum},
	"mpegaudio": {40_282_934, 27_000, 0, mpegChecksum},
	"mtrt":      {4_400_022, 25_649, 0, mtrtChecksum},
	"jack":      {20_324_220, 80_001, 3, jackChecksum},
}

// TestSimulatedCostEngineIndependent holds the engines to the cost model:
// every workload charges the same cycles, runs the same barriers and
// collections and returns the same checksum on the interpreter and the
// optimizing JIT, and all of it equals the pinned table.
func TestSimulatedCostEngineIndependent(t *testing.T) {
	p := Platform{Name: "bench", FastExceptions: true, ThinLocks: true, Barrier: barrier.NoHeapPointer}
	for _, w := range All() {
		want, ok := pinnedCost[w.Name]
		if !ok {
			t.Fatalf("no pinned cost for %s", w.Name)
		}
		for _, e := range []core.EngineKind{core.EngineInterp, core.EngineJITOpt} {
			p.Engine = e
			r, err := Run(w, p)
			if err != nil {
				t.Fatalf("%s on %s: %v", w.Name, e, err)
			}
			if got := (simCost{r.Cycles, r.Barriers, r.GCs, r.Checksum}); got != want {
				t.Errorf("%s on %s: %+v, want %+v", w.Name, e, got, want)
			}
		}
	}
}
