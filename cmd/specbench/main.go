// Command specbench regenerates the paper's Figure 3 and Table 1: the
// SPEC-JVM98-like workload suite across execution platforms and write-
// barrier configurations.
//
// Usage:
//
//	specbench -experiment fig3      # Figure 3: wall time per platform
//	specbench -experiment table1    # Table 1: barriers executed per benchmark
//	specbench -experiment overhead  # §4.1 headline: total barrier cost vs no-barrier
//	specbench -experiment classes   # §3.2: shared vs reloaded library census
//	specbench -experiment micro     # §4.1: cycles per barrier check
//	specbench -workload db          # restrict to one workload
//	specbench -repeats 3            # measurement repetitions (fig3)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"repro/internal/barrier"
	"repro/internal/classlib"
	"repro/internal/spec"
)

// usageError is a bad command line; main exits 2 on it, as flag does.
type usageError string

func (e usageError) Error() string { return string(e) }

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "specbench: %v\n", err)
		var usage usageError
		if errors.As(err, &usage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run parses args and writes the chosen experiment's table to out. A bad
// flag exits 2 and -h exits 0, as the flag package does.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("specbench", flag.ExitOnError)
	experiment := fs.String("experiment", "fig3", "fig3 | table1 | overhead | classes | micro")
	workload := fs.String("workload", "", "run a single workload by name")
	repeats := fs.Int("repeats", 3, "repetitions per fig3 measurement")
	_ = fs.Parse(args) // ExitOnError: never returns an error

	workloads := spec.All()
	if *workload != "" {
		w, ok := spec.ByName(*workload)
		if !ok {
			return usageError(fmt.Sprintf("unknown workload %q", *workload))
		}
		workloads = []*spec.Workload{w}
	}

	switch *experiment {
	case "fig3":
		return figure3(out, workloads, *repeats)
	case "table1":
		return table1(out, workloads)
	case "overhead":
		return overhead(out, workloads)
	case "classes":
		return classes(out)
	case "micro":
		return micro(out)
	}
	return usageError(fmt.Sprintf("unknown experiment %q", *experiment))
}

// platformsNamed finds Figure 3 platforms by name.
func platformsNamed(names ...string) ([]spec.Platform, error) {
	ps := make([]spec.Platform, len(names))
	for i, name := range names {
		p, ok := spec.PlatformByName(name)
		if !ok {
			return nil, fmt.Errorf("no platform named %q", name)
		}
		ps[i] = p
	}
	return ps, nil
}

// figure3 prints wall-clock seconds per (platform, workload), the paper's
// Figure 3 (its y axis is seconds per benchmark, grouped by platform).
func figure3(out io.Writer, workloads []*spec.Workload, repeats int) error {
	platforms := spec.Platforms()
	fmt.Fprintln(out, "Figure 3: SPEC-like workloads on various platforms (wall milliseconds, best of repeats)")
	fmt.Fprintf(out, "%-26s", "platform")
	for _, w := range workloads {
		fmt.Fprintf(out, "%12s", w.Name)
	}
	fmt.Fprintln(out)
	for _, p := range platforms {
		fmt.Fprintf(out, "%-26s", p.Name)
		for _, w := range workloads {
			best := time.Duration(0)
			for r := 0; r < repeats; r++ {
				res, err := spec.Run(w, p)
				if err != nil {
					return err
				}
				if best == 0 || res.Wall < best {
					best = res.Wall
				}
			}
			fmt.Fprintf(out, "%12.1f", float64(best.Microseconds())/1000)
		}
		fmt.Fprintln(out)
	}
	return nil
}

// table1 prints the barrier census per workload with the paper's cost
// model: time at 41 cycles per barrier (the No Heap Pointer cost) as a
// percentage of the no-barrier execution time.
func table1(out io.Writer, workloads []*spec.Workload) error {
	ps, err := platformsNamed("KaffeOS-NoWriteBarrier", "KaffeOS-NoHeapPointer")
	if err != nil {
		return err
	}
	noBar, withBar := ps[0], ps[1]
	fmt.Fprintln(out, "Table 1: write barriers executed per benchmark")
	fmt.Fprintf(out, "%-12s %14s %16s %10s\n", "benchmark", "barriers", "cycles@41/bar", "percent")
	for _, w := range workloads {
		base, err := spec.Run(w, noBar)
		if err != nil {
			return err
		}
		res, err := spec.Run(w, withBar)
		if err != nil {
			return err
		}
		barrierCycles := res.Barriers * uint64(barrier.NoHeapPointer.CheckCost())
		pct := 100 * float64(barrierCycles) / float64(base.Cycles)
		fmt.Fprintf(out, "%-12s %14d %16d %9.2f%%\n", w.Name, res.Barriers, barrierCycles, pct)
	}
	return nil
}

// overhead prints the §4.1 headline: total cost of each barrier
// configuration relative to the no-barrier KaffeOS baseline ("the total
// cost of the write barrier is about 11%").
func overhead(out io.Writer, workloads []*spec.Workload) error {
	configs, err := platformsNamed("KaffeOS-NoWriteBarrier",
		"KaffeOS-HeapPointer", "KaffeOS-NoHeapPointer", "KaffeOS-FakeHeapPointer")
	if err != nil {
		return err
	}
	base, configs := configs[0], configs[1:]
	// The simulated cycles are deterministic: one base run per workload
	// serves every configuration.
	baseCycles := make([]uint64, len(workloads))
	for i, w := range workloads {
		b, err := spec.Run(w, base)
		if err != nil {
			return err
		}
		baseCycles[i] = b.Cycles
	}
	fmt.Fprintln(out, "Barrier overhead vs KaffeOS-NoWriteBarrier (simulated cycles, geometric mean)")
	fmt.Fprintf(out, "%-26s %10s\n", "configuration", "overhead")
	for _, p := range configs {
		prod := 1.0
		for i, w := range workloads {
			r, err := spec.Run(w, p)
			if err != nil {
				return err
			}
			prod *= float64(r.Cycles) / float64(baseCycles[i])
		}
		geo := math.Pow(prod, 1/float64(len(workloads)))
		fmt.Fprintf(out, "%-26s %9.1f%%\n", p.Name, (geo-1)*100)
	}
	return nil
}

// classes prints the §3.2 census: how many library classes are shared vs
// reloaded (paper: 430 of ~600, 72%).
func classes(out io.Writer) error {
	lib := classlib.New()
	shared, reloaded, pct := lib.Census()
	fmt.Fprintf(out, "Library class census (paper §3.2):\n")
	fmt.Fprintf(out, "  shared:   %3d classes\n", shared)
	fmt.Fprintf(out, "  reloaded: %3d classes\n", reloaded)
	fmt.Fprintf(out, "  shared fraction: %.0f%% (paper: 72%%)\n", pct)
	fmt.Fprintf(out, "\nreloaded classes (per-process statics force the copy):\n")
	for _, n := range lib.ReloadedClassNames() {
		fmt.Fprintf(out, "  %s\n", n)
	}
	return nil
}

// micro prints the per-barrier costs of §4.1.
func micro(out io.Writer) error {
	fmt.Fprintln(out, "Write-barrier implementations (paper §4.1):")
	fmt.Fprintf(out, "%-18s %8s %14s\n", "barrier", "cycles", "header bytes")
	for _, b := range barrier.All() {
		fmt.Fprintf(out, "%-18s %8d %14d\n", b.Name(), b.CheckCost(), b.HeaderExtra())
	}
	return nil
}
