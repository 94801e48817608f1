package interp_test

import (
	"maps"
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/jserv"
	"repro/internal/spec"
)

// loopCoverage pins, per program and method, how many loop statements the
// optimizing engine compiles, so a pattern-match regression fails here and
// not only in the benchmark.
var loopCoverage = map[string]map[string]int{
	"compress":  {"spec/Compress.run()I": 2},
	"jess":      {"spec/Jess.run()I": 1},
	"db":        {"spec/DB.run()I": 1},
	"javac":     {"spec/Javac.rotate(Lspec/TNode;)V": 1, "spec/Javac.sum(Lspec/TNode;)I": 1},
	"mpegaudio": {"spec/MpegAudio.run()I": 2},
	"mtrt":      {"spec/Mtrt.trace(II)I": 1},
	"jack":      {"spec/Jack.run()I": 1},
	"servlet":   {"jserv/NetServlet.handle([II)I": 2},
}

// callCoverage pins, per program, how many constructor-chain statements
// and static field accesses inside statements the optimizing engine
// compiles over all of the program's methods.
var callCoverage = map[string]interp.Coverage{
	"compress":  {},
	"jess":      {Ctors: 1},
	"db":        {Ctors: 1},
	"javac":     {Ctors: 1, Statics: 4},
	"mpegaudio": {Ctors: 1},
	"mtrt":      {Ctors: 1, Statics: 7},
	"jack":      {Ctors: 2, Statics: 2},
	"servlet":   {},
}

// coverageIn loads mod into a fresh process and reports, over every
// method of the classes whose name has the given prefix, the loops
// compiled by method and the summed coverage.
func coverageIn(t *testing.T, mod *bytecode.Module, prefix string) (map[string]int, interp.Coverage) {
	t.Helper()
	vm, err := core.NewVM(core.Config{Engine: core.EngineJITOpt, TotalMemory: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	p, err := vm.NewProcess("loops", core.ProcessOptions{MemLimit: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Load(mod); err != nil {
		t.Fatal(err)
	}
	loops := make(map[string]int)
	var sum interp.Coverage
	for _, c := range p.Loader.Classes() {
		if !strings.HasPrefix(c.Name, prefix) {
			continue
		}
		for _, m := range c.Methods {
			if m.Code == nil {
				continue
			}
			cv := interp.CoverageOf(m)
			if cv.Loops > 0 {
				loops[c.Name+"."+m.Name+m.Sig] = cv.Loops
			}
			sum.Loops += cv.Loops
			sum.Ctors += cv.Ctors
			sum.Statics += cv.Statics
		}
	}
	return loops, sum
}

func TestLoopCoverage(t *testing.T) {
	loops, sums := map[string]map[string]int{}, map[string]interp.Coverage{}
	loops["servlet"], sums["servlet"] = coverageIn(t, jserv.NetServletModule(), "jserv/")
	for _, w := range spec.All() {
		loops[w.Name], sums[w.Name] = coverageIn(t, w.Module(), w.MainClass[:strings.LastIndex(w.MainClass, "/")+1])
	}
	for prog, want := range loopCoverage {
		if !maps.Equal(loops[prog], want) {
			t.Errorf("%s: loops by method %v, want %v", prog, loops[prog], want)
		}
	}
	for prog, want := range callCoverage {
		if got := sums[prog]; got.Ctors != want.Ctors || got.Statics != want.Statics {
			t.Errorf("%s: %d constructor statements and %d static accesses, want %d and %d",
				prog, got.Ctors, got.Statics, want.Ctors, want.Statics)
		}
	}
	if len(loops) != len(loopCoverage) || len(loops) != len(callCoverage) {
		t.Errorf("pinned %d and %d programs, compiled %d", len(loopCoverage), len(callCoverage), len(loops))
	}
}
