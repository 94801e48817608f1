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

// loopsIn loads mod into a fresh process and counts the loops compiled in
// every method of the classes whose name has the given prefix, by method.
func loopsIn(t *testing.T, mod *bytecode.Module, prefix string) map[string]int {
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
	out := make(map[string]int)
	for _, c := range p.Loader.Classes() {
		if !strings.HasPrefix(c.Name, prefix) {
			continue
		}
		for _, m := range c.Methods {
			if m.Code == nil {
				continue
			}
			if n := interp.LoopsOf(m); n > 0 {
				out[c.Name+"."+m.Name+m.Sig] = n
			}
		}
	}
	return out
}

func TestLoopCoverage(t *testing.T) {
	got := map[string]map[string]int{"servlet": loopsIn(t, jserv.NetServletModule(), "jserv/")}
	for _, w := range spec.All() {
		got[w.Name] = loopsIn(t, w.Module(), w.MainClass[:strings.LastIndex(w.MainClass, "/")+1])
	}
	for prog, want := range loopCoverage {
		if !maps.Equal(got[prog], want) {
			t.Errorf("%s: loops by method %v, want %v", prog, got[prog], want)
		}
	}
	if len(got) != len(loopCoverage) {
		t.Errorf("pinned %d programs, compiled %d", len(loopCoverage), len(got))
	}
}
