package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/serve"
)

// The test binary doubles as the bench binary's child: the smoke test's
// workloads re-execute os.Executable() with -child, as main does.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(childMain())
	}
	os.Exit(m.Run())
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuantileIsExactNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.1, 1}, {0.5, 5}, {0.51, 6}, {0.9, 9}, {0.99, 10}, {1, 10}} {
		if got := quantile(sorted, c.q); got != c.want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	if got := quantileOf([]float64{9, 1, 5}, 0.5); got != 5 {
		t.Errorf("quantileOf sorts a copy: got %v, want 5", got)
	}
	// A failed request is +Inf: two failures in a hundred push p99 to +Inf,
	// one leaves it finite (it is the one sample beyond p99).
	lat := make([]float64, 100)
	for i := range lat {
		lat[i] = float64(i)
	}
	lat[99] = math.Inf(1)
	if got := quantile(lat, 0.99); got != 98 {
		t.Errorf("p99 with one failure = %v, want 98", got)
	}
	lat[98] = math.Inf(1)
	if got := quantile(lat, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with two failures = %v, want +Inf", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{2, 8}); !near(got, 4) {
		t.Errorf("geomean(2,8) = %v, want 4", got)
	}
	if got := geomean([]float64{10, 10, 10}); !near(got, 10) {
		t.Errorf("geomean(10,10,10) = %v, want 10", got)
	}
	if got := geomean([]float64{3, 0}); got != 0 {
		t.Errorf("geomean with a zero = %v, want 0", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean of nothing = %v, want 0", got)
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4) and
// statistics.median give, the driver's own arithmetic.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	v := []float64{10, 12, 11, 15, 9, 13, 14, 10.5, 11.5, 12.5}
	q1, q3 := quartiles(v)
	if !near(q1, 10.375) || !near(q3, 13.25) {
		t.Errorf("quartiles = %v, %v, want 10.375, 13.25", q1, q3)
	}
	if got, want := quartileSpread(v), (13.25-10.375)/11.5; !near(got, want) {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	q1, q3 = quartiles([]float64{1, 2})
	if !near(q1, 0.75) || !near(q3, 2.25) {
		t.Errorf("quartiles(1,2) = %v, %v, want 0.75, 2.25", q1, q3)
	}
	if got := quartileSpread([]float64{5, 5, 5}); got != 0 {
		t.Errorf("spread of equal values = %v, want 0", got)
	}
}

func TestWorseBy(t *testing.T) {
	if got := worseBy(100, 110, false); !near(got, 0.10) {
		t.Errorf("lower-is-better 100->110: %v, want 0.10", got)
	}
	if got := worseBy(100, 90, false); got != 0 {
		t.Errorf("lower-is-better 100->90: %v, want 0", got)
	}
	if got := worseBy(100, 90, true); !near(got, 0.10) {
		t.Errorf("higher-is-better 100->90: %v, want 0.10", got)
	}
}

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and parentheses must not shift the fields.
	stat := "4242 (a b) (c)) S 1 4242 4242 0 -1 4194304 82 0 0 0 150 25 7 3 20 0 5 0 1796694 2703360 314 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 0 0 0 0 0 0"
	got, err := parseProcStatCPU(stat)
	if err != nil || !near(got, 1.75) {
		t.Errorf("parseProcStatCPU = %v, %v, want 1.75 s (utime 150 + stime 25 ticks)", got, err)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 1 1 0 -1 0 0 0 0 0 u 25 0 0"} {
		if _, err := parseProcStatCPU(bad); err == nil {
			t.Errorf("parseProcStatCPU(%q) succeeded", bad)
		}
	}
	if cpu, err := procCPU(os.Getpid()); err != nil || cpu < 0 {
		t.Errorf("procCPU(self) = %v, %v", cpu, err)
	}
}

func TestParseStatusMemory(t *testing.T) {
	status := "Name:\tbench\nVmPeak:\t  999999 kB\nVmHWM:\t   73496 kB\nVmRSS:\t   1792 kB\n"
	for key, want := range map[string]uint64{"VmHWM": 73496, "VmRSS": 1792} {
		if got, err := parseStatusKiB(status, key); err != nil || got != want {
			t.Errorf("parseStatusKiB(%s) = %v, %v, want %d", key, got, err, want)
		}
	}
	for _, bad := range []string{"", "VmRSS:\t 1 kB\n", "VmHWM:\t x kB\n", "VmHWM:\t 12 MB\n"} {
		if _, err := parseStatusKiB(bad, "VmHWM"); err == nil {
			t.Errorf("parseStatusKiB(%q, VmHWM) succeeded", bad)
		}
	}
	rss, err1 := procMemMiB(os.Getpid(), "VmRSS")
	hwm, err2 := procMemMiB(os.Getpid(), "VmHWM")
	if err1 != nil || err2 != nil || rss <= 0 || hwm < rss {
		t.Errorf("self: VmRSS %v (%v), VmHWM %v (%v)", rss, err1, hwm, err2)
	}
}

func TestServletChecksumByHand(t *testing.T) {
	// Empty body, no work: the fold sees only the length word, 0.
	if got := servletChecksum(nil, 0); got != 0 {
		t.Errorf("checksum(empty, 0) = %d, want 0", got)
	}
	// Five bytes pack as [5, 0x04030201, 0x05]; then two work rounds.
	acc := int64(5+0x04030201+0x05) & 0xFFFFFF
	acc = (acc*31 + 0) & 0xFFFFFF
	acc = (acc*31 + 1) & 0xFFFFFF
	if got := servletChecksum([]byte{1, 2, 3, 4, 5}, 2); got != acc {
		t.Errorf("checksum(1..5, 2) = %d, want %d", got, acc)
	}
}

// The reference checksum must agree with the real servlet on every shape of
// body the workloads send (lengths that do and do not fill the last word,
// bytes with the top bit set) — checked through the serving plane itself.
func TestServletChecksumAgreesWithTheServlet(t *testing.T) {
	const work = 37
	srv, err := serve.NewSharded(vmConfig, planeConfig(1), []serve.TenantConfig{{Route: "/t", WorkUnits: work}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, body := range [][]byte{nil, {0xFF}, {1, 2, 3}, {0x80, 0x81, 0x82, 0x83}, []byte("hello, kaffeos!!"), make([]byte, 1021)} {
		status, reply := srv.Do("/t", body)
		want := fmt.Sprintf("t result=%d\n", servletChecksum(body, work))
		if status != 200 || reply != want {
			t.Errorf("body of %d bytes: servlet says %d %q, reference says %q", len(body), status, reply, want)
		}
	}
}

func TestInputsFollowTheSeed(t *testing.T) {
	w, _ := workloadByName("serve_small")
	a, b, c := genInputs(w, 7), genInputs(w, 7), genInputs(w, 8)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different inputs")
	}
	if reflect.DeepEqual(a.bodies, c.bodies) {
		t.Error("different seeds gave the same bodies")
	}
	if len(a.bodies) != poolSize || len(a.bodies[0]) != w.bodyBytes || len(a.want) != len(w.tenants) {
		t.Errorf("pool of %d bodies of %d bytes for %d routes", len(a.bodies), len(a.bodies[0]), len(a.want))
	}
	hostile, _ := workloadByName("serve_hostile")
	if _, ok := genInputs(hostile, 1).want[hostile.hogRoute]; ok {
		t.Error("the hog route has expected replies; it must not count as well-behaved")
	}
}

func TestSplitRoutes(t *testing.T) {
	got := splitRoutes([]string{"/a", "/b", "/c"}, 2)
	if want := [][]string{{"/a", "/c"}, {"/b"}}; !reflect.DeepEqual(got, want) {
		t.Errorf("splitRoutes(3 routes, 2) = %v, want %v", got, want)
	}
	if got := splitRoutes([]string{"/a"}, 4); len(got) != 1 {
		t.Errorf("splitRoutes(1 route, 4) kept %d callers, want 1", len(got))
	}
}

func TestSummarizeCountsFailuresAsMisses(t *testing.T) {
	from := time.Unix(1000, 0)
	to := from.Add(2 * time.Second)
	var samples []sample
	for i := 0; i < 200; i++ {
		samples = append(samples, sample{end: from.Add(time.Duration(i) * 10 * time.Millisecond), latNs: int64(100+i) * 1000, ok: i%50 != 0})
	}
	s := summarize(samples, from, to)
	if s.ok != 196 || s.slices != 2 || s.minSlice != 100 {
		t.Errorf("ok=%d slices=%d minSlice=%d, want 196, 2, 100", s.ok, s.slices, s.minSlice)
	}
	if !near(s.perS, 98) {
		t.Errorf("perS = %v, want 98 correct replies a second", s.perS)
	}
	if !math.IsInf(s.tailUs, 1) {
		t.Errorf("tail = %v, want +Inf: two failures in each slice of 100 exceed p99", s.tailUs)
	}
}

func TestHogDowntimes(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, int64(ms)*1e6) }
	got := hogDowntimes([]hogSample{{at(0), 200}, {at(5), 502}, {at(6), 503}, {at(17), 200}, {at(20), 200}, {at(30), 0}, {at(31), 200}})
	if want := []float64{12, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("hogDowntimes = %v, want %v", got, want)
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := &tracer{workload: "w"}
	root := tr.add("parent", 0, 0, 0, 100)
	tr.add("child", root, root, 10, 40)
	tr.add("child", root, root, 50, 60)
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("ignored", 0))
	got := map[string]layerTime{}
	for _, lt := range tr.selfTimes() {
		got[lt.name] = lt
	}
	if p := got["parent"]; p.total != 100 || p.self != 60 || p.count != 1 {
		t.Errorf("parent: %+v, want total 100 self 60", p)
	}
	if c := got["child"]; c.total != 40 || c.self != 40 || c.count != 2 {
		t.Errorf("child: %+v, want total 40 self 40 count 2", c)
	}
	if tr.spans[1].Req != root || tr.spans[0].Req != root {
		t.Errorf("spans of one request must share its id: %+v", tr.spans)
	}
}

// BENCHMARK.json is what the driver reads; the Go tables are what the
// program reports. They must name the same workloads and metrics, with the
// same units, directions and bounds.
func TestManifestMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in the program", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest has %q (%q), program has %q (%q)", i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in the manifest, %d in the program", len(m.EndToEnd), len(endToEnd))
	}
	for i, want := range endToEnd {
		better := "lower"
		if want.higher {
			better = "higher"
		}
		if e := m.EndToEnd[i]; e.Name != want.name || e.Unit != want.unit || e.Better != better || e.Bound != want.bound {
			t.Errorf("end-to-end metric %d: manifest %+v, program %+v", i, e, want)
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in the manifest, %d in the program", len(m.PerLayer), len(perLayer))
	}
	for i, name := range perLayer {
		if e := m.PerLayer[i]; e.Name != name || e.Unit != unitOf[name] {
			t.Errorf("per-layer metric %d: manifest %+v, program %s %s", i, e, name, unitOf[name])
		}
	}
}

// The smoke run: every workload end to end and one traced run, with 1 s
// windows and one repetition, must verify every output and report every
// metric the manifest promises.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a second")
	}
	o := quickOptions(3)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			res, err := runOne(w, o, false)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct || res.failed != 0 || res.attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d\n%v", res.correct, res.attempted, res.failed, res.notes)
			}
			for _, want := range endToEnd {
				if m, ok := res.metrics[want.name]; !ok || !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %+v, want a positive finite value", want.name, m)
				}
			}
		})
	}
	t.Run("traced", func(t *testing.T) {
		t.Parallel()
		w, _ := workloadByName("serve_hostile")
		ot := o
		ot.traceFile = filepath.Join(t.TempDir(), "trace.jsonl")
		res, err := runOne(w, ot, true)
		if err != nil {
			t.Fatal(err)
		}
		if !res.correct || res.failed != 0 || res.attempted < 1 {
			t.Errorf("correct=%v attempted=%d failed=%d\n%v", res.correct, res.attempted, res.failed, res.notes)
		}
		for _, name := range perLayer {
			if _, ok := res.metrics[name]; !ok {
				t.Errorf("traced run did not report %s", name)
			}
		}
		if len(res.metrics) != len(perLayer) {
			t.Errorf("traced run reported %d metrics, the manifest lists %d", len(res.metrics), len(perLayer))
		}
		for _, name := range []string{"serve.restarts_per_s", "serve.do_p50_us", "heap.alloc_ns", "barrier.stores.db"} {
			if !(res.metrics[name].Value > 0) {
				t.Errorf("%s = %v, want > 0", name, res.metrics[name].Value)
			}
		}
		f, err := os.Open(ot.traceFile)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		dec := json.NewDecoder(f)
		n := 0
		for dec.More() {
			var sp span
			if err := dec.Decode(&sp); err != nil {
				t.Fatalf("trace line %d: %v", n+1, err)
			}
			if sp.Name == "" || sp.Workload != w.name || sp.End < sp.Start {
				t.Fatalf("trace line %d: malformed span %+v", n+1, sp)
			}
			n++
		}
		if n == 0 {
			t.Error("the trace file is empty")
		}
	})
}
