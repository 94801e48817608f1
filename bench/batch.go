package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/spec"
)

// programResult is one batch program's measurements over a run.
type programResult struct {
	Name string `json:"name"`
	// WallUs is spec.Run's Result.Wall for each measured run.
	WallUs []float64 `json:"wall_us"`
	// Cycles and Barriers are the simulated cycles and executed write
	// barriers of one run; every run must repeat them exactly.
	Cycles   uint64 `json:"cycles"`
	Barriers uint64 `json:"barriers"`
	// SetupUs is the median time from NewVM to the main thread spawned.
	SetupUs float64 `json:"setup_us"`
}

// batchResult is what a batch child reports.
type batchResult struct {
	Programs []programResult `json:"programs"`
	// RoundS is the elapsed time of each measured round (every program run
	// once), set-up of each run included.
	RoundS  []float64 `json:"round_s"`
	WindowS float64   `json:"window_s"`
	CPUS    float64   `json:"cpu_s"`
	// RSSMiB is the resident set sampled after every measured run.
	RSSMiB    []float64 `json:"rss_mib"`
	HWMMiB    float64   `json:"hwm_mib"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Errors    []string  `json:"errors,omitempty"`
}

// prepared is a batch program loaded and ready to run.
type prepared struct {
	vm *core.VM
	th *interp.Thread
}

// prepareProgram does what spec.Run does before it starts the clock:
// assemble, build a VM, create the process, define/verify/compile the
// module, and spawn the main thread. It is the batch set-up a user waits
// for, and what the traced run wraps in per-layer spans (tr may be nil).
func prepareProgram(w *spec.Workload, p spec.Platform, tr *tracer, parent uint64) (prepared, error) {
	fe := p.FastExceptions
	s := tr.begin("bytecode.assemble", parent)
	mod := w.Module()
	tr.end(s)
	s = tr.begin("core.newvm", parent)
	vm, err := core.NewVM(core.Config{
		Engine:         p.Engine,
		Barrier:        p.Barrier,
		FastExceptions: &fe,
		ThinLocks:      p.ThinLocks,
		TotalMemory:    256 << 20,
	})
	tr.end(s)
	if err != nil {
		return prepared{}, err
	}
	s = tr.begin("core.newprocess", parent)
	proc, err := vm.NewProcess(w.Name, core.ProcessOptions{MemLimit: 64 << 20})
	tr.end(s)
	if err != nil {
		return prepared{}, err
	}
	s = tr.begin("loader.load", parent)
	err = proc.Load(mod)
	tr.end(s)
	if err != nil {
		return prepared{}, err
	}
	s = tr.begin("core.spawn", parent)
	th, err := proc.Spawn(w.MainClass, "run()I")
	tr.end(s)
	if err != nil {
		return prepared{}, err
	}
	return prepared{vm: vm, th: th}, nil
}

// batchPrograms resolves program names.
func batchPrograms(names []string) ([]*spec.Workload, error) {
	out := make([]*spec.Workload, len(names))
	for i, n := range names {
		w, ok := spec.ByName(n)
		if !ok {
			return nil, fmt.Errorf("no spec program %q", n)
		}
		out[i] = w
	}
	return out, nil
}

// runBatch runs the programs round-robin through spec.Run — which checks
// each result against the program's hand-written checksum — for at least
// dur and at least minRounds rounds, after one unmeasured warm-up round.
func runBatch(names []string, dur time.Duration, setupReps, minRounds int) (*batchResult, error) {
	progs, err := batchPrograms(names)
	if err != nil {
		return nil, err
	}
	res := &batchResult{Programs: make([]programResult, len(progs))}
	for i, w := range progs {
		res.Programs[i].Name = w.Name
		var setups []float64
		for r := 0; r < setupReps; r++ {
			t0 := time.Now()
			if _, err := prepareProgram(w, batchPlatform, nil, 0); err != nil {
				return nil, fmt.Errorf("set-up of %s: %w", w.Name, err)
			}
			setups = append(setups, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		res.Programs[i].SetupUs = median(setups)
	}

	pid := os.Getpid()
	round := func(measured bool) {
		t0 := time.Now()
		for i, w := range progs {
			pr := &res.Programs[i]
			r, err := spec.Run(w, batchPlatform)
			if !measured {
				if err == nil {
					pr.Cycles, pr.Barriers = r.Cycles, r.Barriers
				}
				continue
			}
			res.Attempted++
			switch {
			case err != nil:
				res.Failed++
				res.Errors = append(res.Errors, err.Error())
			case r.Cycles != pr.Cycles || r.Barriers != pr.Barriers:
				res.Failed++
				res.Errors = append(res.Errors, fmt.Sprintf("%s: cycles/barriers %d/%d, warm-up round had %d/%d",
					w.Name, r.Cycles, r.Barriers, pr.Cycles, pr.Barriers))
			default:
				pr.WallUs = append(pr.WallUs, float64(r.Wall.Nanoseconds())/1e3)
			}
			if rss, err := procMemMiB(pid, "VmRSS"); err == nil {
				res.RSSMiB = append(res.RSSMiB, rss)
			}
		}
		if measured {
			res.RoundS = append(res.RoundS, time.Since(t0).Seconds())
		}
	}

	round(false)
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for len(res.RoundS) < minRounds || time.Since(start) < dur {
		round(true)
	}
	res.WindowS = time.Since(start).Seconds()
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	res.CPUS = cpu1 - cpu0
	if res.HWMMiB, err = procMemMiB(pid, "VmHWM"); err != nil {
		return nil, err
	}
	return res, nil
}
