package main

import (
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"time"
)

// options are the knobs of one run.
type options struct {
	seed      int64
	window    time.Duration // measured window
	warmup    time.Duration // serve only: load before the window opens
	setupReps int           // set-ups per run; setup_s is their median
	minRounds int           // batch only: rounds measured even if the window is over
	probeDur  time.Duration // traced run: time budget of one layer probe
	traceFile string        // traced run: where the spans go
}

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload produced.
type result struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
	// notes are printed under the metrics: sample counts, server-side
	// counters, the first few errors.
	notes []string
}

func (r *result) set(name string, v float64) { r.metrics[name] = metric{Value: v, Unit: unitOf[name]} }

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// endToEnd is the table of end-to-end metrics, in printing order. bound is
// how far a metric's median may worsen, as a share of the parent's median,
// before a change counts as a regression; higher says whether a larger
// value is the better one. BENCHMARK.json carries the same table (a test
// keeps the two equal); the README says how the bounds were chosen.
var endToEnd = []struct {
	name, unit string
	bound      float64
	higher     bool
}{
	{"setup_s", "s", 0.25, false},
	{"op_per_s", "1/s", 0.25, true},
	{"op_p50_us", "us", 0.25, false},
	{"op_tail_us", "us", 0.25, false},
	{"ok_share", "ratio", 0.001, true},
	{"cpu_us_per_op", "us", 0.25, false},
	{"rss_p90_mb", "MiB", 0.20, false},
}

// unitOf is every metric's unit, end-to-end and per-layer.
var unitOf = make(map[string]string)

func init() {
	for _, m := range endToEnd {
		unitOf[m.name] = m.unit
	}
	for _, name := range perLayer {
		unitOf[name] = layerUnit(name)
	}
}

// startServeChild starts the plane for w in a child and waits until every
// route — the hog too — has answered 200 with the right body. The elapsed
// time is the serve set-up a user waits for.
func startServeChild(w *workload, in *inputs, k int, ledger bool) (*child, string, time.Duration, error) {
	t0 := time.Now()
	c, err := startChild(job{Tenants: w.tenants, Shards: k, Ledger: ledger})
	if err != nil {
		return nil, "", 0, err
	}
	var ready serveReady
	if err := c.readLine(&ready); err != nil {
		c.kill()
		return nil, "", 0, err
	}
	probe := &conn{addr: ready.Addr}
	defer probe.close()
	for _, tc := range w.tenants {
		status, reply, err := probe.post(tc.Route, in.bodies[0])
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		}
		if want, ok := in.want[tc.Route]; err == nil && ok && reply != want[0] {
			err = fmt.Errorf("reply %q, want %q", reply, want[0])
		}
		if err != nil {
			c.kill()
			return nil, "", 0, fmt.Errorf("first request on %s: %w", tc.Route, err)
		}
	}
	return c, ready.Addr, time.Since(t0), nil
}

// runServe measures one serve_* workload: the plane runs in a child, this
// process is the only load generator.
func runServe(w *workload, o options) (*result, error) {
	in := genInputs(w, o.seed)
	k := connections()
	res := &result{workload: w.name, metrics: make(map[string]metric)}

	var c *child
	var addr string
	var setups []float64
	for i := 0; i < o.setupReps; i++ {
		if c != nil {
			if err := c.finish(&serveDone{}); err != nil {
				return nil, fmt.Errorf("set-up %d: %w", i, err)
			}
		}
		var took time.Duration
		var err error
		if c, addr, took, err = startServeChild(w, in, k, false); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	pid := c.cmd.Process.Pid

	l := startLoad(func() poster { return &conn{addr: addr} }, w, in, o.seed, k)
	time.Sleep(o.warmup)
	self0, _ := procCPU(os.Getpid()) // our own CPU only feeds a note
	cpu0, err0 := procCPU(pid)
	from := time.Now()
	var rss []float64
	for time.Since(from) < o.window {
		time.Sleep(100 * time.Millisecond)
		if v, err := procMemMiB(pid, "VmRSS"); err == nil {
			rss = append(rss, v)
		}
	}
	to := time.Now()
	cpu1, err1 := procCPU(pid)
	self1, _ := procCPU(os.Getpid())
	hwm, err2 := procMemMiB(pid, "VmHWM")
	l.finish()
	var done serveDone
	ferr := c.finish(&done)
	for _, err := range []error{err0, err1, err2} {
		if err != nil {
			return nil, err
		}
	}

	samples := l.window(from, to)
	sum := summarize(samples, from, to)
	res.attempted, res.failed = len(samples), len(samples)-sum.ok
	res.correct = res.failed == 0 && ferr == nil && done.AuditOK && res.attempted > 0
	if ferr != nil {
		res.notef("FAIL: %v", ferr)
	}
	if !done.AuditOK {
		res.notef("FAIL: post-Close audit:\n%s", done.Audit)
	}
	res.set("setup_s", median(setups))
	res.set("op_per_s", sum.perS)
	res.set("op_p50_us", sum.p50Us)
	res.set("op_tail_us", sum.tailUs)
	res.set("ok_share", float64(sum.ok)/math.Max(1, float64(len(samples))))
	res.set("cpu_us_per_op", (cpu1-cpu0)*1e6/math.Max(1, float64(sum.ok)))
	res.set("rss_p90_mb", quantileOf(rss, 0.9))

	res.notef("closed loop, %d callers over %d shards, window %.1fs after %.1fs warm-up; N=%d replies on well-behaved routes, %d failed",
		len(l.callers), k, to.Sub(from).Seconds(), o.warmup.Seconds(), len(samples), res.failed)
	res.notef("op_p50_us and op_tail_us (p99) are medians over %d one-second slices of the window; the smallest slice holds %d samples",
		sum.slices, sum.minSlice)
	res.notef("whole-window exact quantiles: p50 %.1f us, p99 %.1f us", sum.wholeP50Us, sum.wholeP99Us)
	res.notef("server CPU %.2f s, generator CPU share %.0f%%; resident set sampled %d times, peak (VmHWM) %.1f MiB",
		cpu1-cpu0, 100*(self1-self0)/math.Max(1e-9, self1-self0+cpu1-cpu0), len(rss), hwm)
	var restarts, shed uint64
	for _, row := range done.Rows {
		restarts += row.Restarts
		shed += row.Shed
	}
	if w.hogRoute != "" {
		res.notef("%s: %d requests, server restarted it %d times in all, shed %d", w.hogRoute, len(l.hog), restarts, shed)
		if restarts == 0 {
			res.correct = false
			res.notef("FAIL: the hog was never killed and restarted")
		}
	}
	return res, nil
}

// summary condenses a window of samples.
type summary struct {
	ok                     int
	perS, p50Us, tailUs    float64
	wholeP50Us, wholeP99Us float64
	slices, minSlice       int
}

// summarize cuts the window into one-second slices, computes each slice's
// rate of correct replies, exact median and exact p99 (a failed request is
// +Inf), and reports the medians over slices: a burst of interference from
// the host then spoils a slice, not the run.
func summarize(samples []sample, from, to time.Time) summary {
	n := int(to.Sub(from).Seconds())
	if n < 1 {
		n = 1
	}
	width := to.Sub(from) / time.Duration(n)
	lat := make([][]float64, n)
	oks := make([]int, n)
	var all []float64
	var s summary
	for _, sm := range samples {
		i := int(sm.end.Sub(from) / width)
		if i >= n {
			i = n - 1
		}
		v := math.Inf(1)
		if sm.ok {
			v = float64(sm.latNs) / 1e3
			oks[i]++
			s.ok++
		}
		lat[i] = append(lat[i], v)
		all = append(all, v)
	}
	var rates, p50s, p99s []float64
	s.slices, s.minSlice = n, -1
	for i := range lat {
		sort.Float64s(lat[i])
		rates = append(rates, float64(oks[i])/width.Seconds())
		p50s = append(p50s, quantile(lat[i], 0.5))
		p99s = append(p99s, quantile(lat[i], 0.99))
		if s.minSlice < 0 || len(lat[i]) < s.minSlice {
			s.minSlice = len(lat[i])
		}
	}
	s.perS, s.p50Us, s.tailUs = median(rates), median(p50s), median(p99s)
	sort.Float64s(all)
	s.wholeP50Us, s.wholeP99Us = quantile(all, 0.5), quantile(all, 0.99)
	return s
}

// runBatchE2E measures one batch_* workload in a child.
func runBatchE2E(w *workload, o options) (*result, error) {
	c, err := startChild(job{Programs: w.programs, Seconds: o.window.Seconds(), SetupReps: o.setupReps, MinRounds: o.minRounds})
	if err != nil {
		return nil, err
	}
	var br batchResult
	if err := c.finish(&br); err != nil {
		return nil, err
	}
	res := &result{workload: w.name, metrics: make(map[string]metric)}
	res.attempted, res.failed = br.Attempted, br.Failed
	res.correct = br.Failed == 0 && br.Attempted > 0
	for i, e := range br.Errors {
		if i < 5 {
			res.notef("FAIL: %s", e)
		}
	}

	var setupUs float64
	var p50s, tails, rates []float64
	for _, p := range br.Programs {
		setupUs += p.SetupUs
		p50s = append(p50s, quantileOf(p.WallUs, 0.5))
		tails = append(tails, quantileOf(p.WallUs, 0.75))
		res.notef("%-10s N=%d runs, median %.2f ms, p75 %.2f ms, %d cycles, %d barriers (both repeat exactly), set-up %.2f ms",
			p.Name, len(p.WallUs), quantileOf(p.WallUs, 0.5)/1e3, quantileOf(p.WallUs, 0.75)/1e3, p.Cycles, p.Barriers, p.SetupUs/1e3)
	}
	for _, s := range br.RoundS {
		rates = append(rates, float64(len(br.Programs))/s)
	}
	ok := float64(br.Attempted - br.Failed)
	res.set("setup_s", setupUs/1e6)
	res.set("op_per_s", median(rates))
	res.set("op_p50_us", geomean(p50s))
	res.set("op_tail_us", geomean(tails))
	res.set("ok_share", ok/math.Max(1, float64(br.Attempted)))
	res.set("cpu_us_per_op", br.CPUS*1e6/math.Max(1, ok))
	res.set("rss_p90_mb", quantileOf(br.RSSMiB, 0.9))
	res.notef("resident set sampled after each of %d runs, peak (VmHWM) %.1f MiB", len(br.RSSMiB), br.HWMMiB)
	res.notef("%d rounds of %d programs in %.1fs; op_p50_us/op_tail_us are geometric means over programs of the median/p75 run; op_per_s is the median round's rate",
		len(br.RoundS), len(br.Programs), br.WindowS)
	return res, nil
}
