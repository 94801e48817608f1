package spec

import (
	"sync"
	"testing"
)

// runs memoizes Run per (workload, platform): several tests below share a
// configuration, and each runs at most once per test binary.
var runs = struct {
	sync.Mutex
	m map[string]*memoRun
}{m: make(map[string]*memoRun)}

type memoRun struct {
	once sync.Once
	res  Result
	err  error
}

// run is Run(w, p), memoized.
func run(w *Workload, p Platform) (Result, error) {
	runs.Lock()
	r, ok := runs.m[w.Name+"/"+p.Name]
	if !ok {
		r = new(memoRun)
		runs.m[w.Name+"/"+p.Name] = r
	}
	runs.Unlock()
	r.once.Do(func() { r.res, r.err = Run(w, p) })
	return r.res, r.err
}

// referencePlatform is the checksum oracle.
func referencePlatform() Platform {
	p, _ := PlatformByName("KaffeOS-NoWriteBarrier")
	return p
}

func TestWorkloadsRunAndChecksum(t *testing.T) {
	t.Parallel()
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			res, err := run(w, referencePlatform())
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			t.Logf("%s: checksum=%d cycles=%d barriers=%d wall=%v",
				w.Name, res.Checksum, res.Cycles, res.Barriers, res.Wall)
		})
	}
}

func TestChecksumsStableAcrossPlatforms(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("cross-platform sweep is slow")
	}
	for _, w := range []*Workload{Compress(), DB(), Jack()} {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			for _, p := range Platforms() {
				p := p
				t.Run(p.Name, func(t *testing.T) {
					t.Parallel()
					res, err := run(w, p)
					if err != nil {
						t.Fatalf("%s on %s: %v", w.Name, p.Name, err)
					}
					if res.Checksum != w.Checksum {
						t.Errorf("%s: checksum %d on %s, want %d", w.Name, res.Checksum, p.Name, w.Checksum)
					}
				})
			}
		})
	}
}

func TestBarrierDensityShape(t *testing.T) {
	t.Parallel()
	// Table 1's shape: compress executes almost no barriers; db the most.
	kaffeOS, _ := PlatformByName("KaffeOS-NoHeapPointer")
	counts := map[string]uint64{}
	for _, w := range All() {
		res, err := run(w, kaffeOS)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		counts[w.Name] = res.Barriers
	}
	t.Logf("barrier counts: %v", counts)
	if counts["compress"] > 1000 {
		t.Errorf("compress executed %d barriers, want ~0 (Table 1)", counts["compress"])
	}
	for name, c := range counts {
		if name == "db" {
			continue
		}
		if c >= counts["db"] {
			t.Errorf("db (%d) must dominate %s (%d) per Table 1", counts["db"], name, c)
		}
	}
	if counts["db"] < 100_000 {
		t.Errorf("db barriers = %d, implausibly low", counts["db"])
	}
}

func TestNoBarriersOnNoBarrierPlatforms(t *testing.T) {
	t.Parallel()
	p, _ := PlatformByName("Kaffe99")
	res, err := run(DB(), p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Barriers != 0 {
		t.Errorf("Kaffe99 executed %d barriers", res.Barriers)
	}
}

func TestByName(t *testing.T) {
	for _, w := range All() {
		got, ok := ByName(w.Name)
		if !ok || got.Name != w.Name {
			t.Errorf("ByName(%q) failed", w.Name)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName accepted garbage")
	}
	if _, ok := PlatformByName("nope"); ok {
		t.Error("PlatformByName accepted garbage")
	}
}
