package main

import (
	"fmt"
	"math"
	"os"
)

// checkRepeatSets runs sets full sets of the same code back to back — a
// set is runs end-to-end runs of every workload, run j with seed+j — and
// prints, per workload and metric, each set's median and quartile spread
// and how far the worst pair of sets disagrees, against the metric's
// bound. It reports whether every pair agrees within the bound.
func checkRepeatSets(run []*workload, o options, sets, runs int) bool {
	// vals[workload][metric][set] holds the set's values.
	vals := make(map[string]map[string][][]float64)
	correct := true
	for s := 0; s < sets; s++ {
		for _, w := range run {
			for j := 0; j < runs; j++ {
				oj := o
				oj.seed = o.seed + int64(j)
				res, err := runOne(w, oj, false)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
					return false
				}
				if !res.correct {
					correct = false
					printResult(res)
				}
				if vals[w.name] == nil {
					vals[w.name] = make(map[string][][]float64)
				}
				for _, m := range endToEnd {
					if vals[w.name][m.name] == nil {
						vals[w.name][m.name] = make([][]float64, sets)
					}
					vals[w.name][m.name][s] = append(vals[w.name][m.name][s], res.metrics[m.name].Value)
				}
				fmt.Printf("set %d/%d %s run %d/%d done\n", s+1, sets, w.name, j+1, runs)
			}
		}
	}

	agree := true
	fmt.Printf("\n%-14s %-14s %8s  %s\n", "workload", "metric", "bound", "per set: median (quartile spread); worst disagreement between sets")
	for _, w := range run {
		for _, m := range endToEnd {
			line := fmt.Sprintf("%-14s %-14s %7.1f%% ", w.name, m.name, 100*m.bound)
			var meds []float64
			for _, set := range vals[w.name][m.name] {
				meds = append(meds, median(set))
				line += fmt.Sprintf(" %.4g (%.1f%%)", median(set), 100*quartileSpread(set))
			}
			// The worst pair: how much worse the worse set's median is
			// than the better one's, as a share of the better one.
			var worst float64
			for _, a := range meds {
				for _, c := range meds {
					if worse := worseBy(a, c, m.higher); worse > worst {
						worst = worse
					}
				}
			}
			verdict := "ok"
			if worst > m.bound {
				verdict = "DISAGREE"
				agree = false
			}
			fmt.Printf("%s; %.2f%% %s\n", line, 100*worst, verdict)
		}
	}
	return agree && correct
}

// worseBy is how much worse got is than base, as a share of base; 0 when
// it is no worse.
func worseBy(base, got float64, higherIsBetter bool) float64 {
	if base == 0 {
		return 0
	}
	d := (got - base) / math.Abs(base)
	if higherIsBetter {
		d = -d
	}
	return math.Max(0, d)
}
