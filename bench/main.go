// Command bench is the one benchmark for the whole stack: five workloads,
// seven end-to-end metrics measured on a fresh child process per workload,
// and a separate traced run that prices every layer. See README.md.
//
//	go run ./bench                         every workload, end to end
//	go run ./bench -workload serve_heavy   one workload
//	go run ./bench -trace 1                traced run: per-layer metrics, out/trace.jsonl
//	go run ./bench -check-repeat 2         do two sets of runs of the same code agree?
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run, or all")
		seed         = flag.Int64("seed", 1, "seed of the generated inputs: request bodies, expected replies, route visiting order")
		seconds      = flag.Int("seconds", 10, "length of the measured window of one run")
		trace        = flag.Int("trace", 0, "1: traced in-process run printing per-layer metrics; 0: end-to-end run")
		quick        = flag.Bool("quick", false, "smoke run: 1 s window, one set-up, short probes")
		checkRepeat  = flag.Int("check-repeat", 0, "run N full sets back to back and compare their medians with the bounds")
		runs         = flag.Int("runs", 5, "with -check-repeat: runs of each workload in a set (the driver makes 10)")
		isChild      = flag.Bool("child", false, "internal: run a workload's system under test, job on standard input")
	)
	flag.Parse()
	if *isChild {
		os.Exit(childMain())
	}
	if flag.NArg() > 0 || *seconds < 1 || *runs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}

	o := options{
		seed:      *seed,
		window:    time.Duration(*seconds) * time.Second,
		warmup:    2 * time.Second,
		setupReps: 25,
		minRounds: 3,
		probeDur:  150 * time.Millisecond,
		traceFile: defaultTraceFile,
	}
	if *quick {
		o = quickOptions(o.seed)
	}
	run := workloads
	if *workloadName != "all" {
		w, ok := workloadByName(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: no workload %q\n", *workloadName)
			os.Exit(2)
		}
		run = []*workload{w}
	}

	fmt.Println(hostLine(o))
	if *checkRepeat > 0 {
		if !checkRepeatSets(run, o, *checkRepeat, *runs) {
			os.Exit(1)
		}
		return
	}
	allCorrect := true
	for _, w := range run {
		res, err := runOne(w, o, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		printResult(res)
		allCorrect = allCorrect && res.correct
	}
	if !allCorrect {
		os.Exit(1)
	}
}

// quickOptions are the smoke run's: 1 s windows, one repetition of
// everything.
func quickOptions(seed int64) options {
	return options{seed: seed, window: time.Second, warmup: 200 * time.Millisecond, setupReps: 1, minRounds: 1,
		probeDur: 2 * time.Millisecond, traceFile: defaultTraceFile}
}

// runOne runs one workload once, end to end or traced.
func runOne(w *workload, o options, traced bool) (*result, error) {
	switch {
	case traced:
		return runTraced(w, o)
	case w.isServe():
		return runServe(w, o)
	default:
		return runBatchE2E(w, o)
	}
}

// hostLine describes where and how the numbers were taken.
func hostLine(o options) string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d %s %s/%s commit=%s seed=%d window=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit, o.seed, o.window)
}

// printResult prints every metric by name with its unit, the notes, and as
// the last line the result object the driver reads.
func printResult(r *result) {
	fmt.Printf("\n== %s ==\n", r.workload)
	// End-to-end metrics in their table's order, per-layer ones by name.
	var names, rest []string
	isE2E := make(map[string]bool)
	for _, m := range endToEnd {
		names = append(names, m.name)
		isE2E[m.name] = true
	}
	for n := range r.metrics {
		if !isE2E[n] {
			rest = append(rest, n)
		}
	}
	sort.Strings(rest)
	for _, n := range append(names, rest...) {
		if m, ok := r.metrics[n]; ok {
			fmt.Printf("  %-40s %16.4f %s\n", n, m.Value, m.Unit)
		}
	}
	for _, n := range r.notes {
		fmt.Printf("  # %s\n", n)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
}
