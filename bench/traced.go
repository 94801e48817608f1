package main

import (
	"fmt"
	"math"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
	"unsafe"

	"repro/internal/interp"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// doPoster posts through Server.Do: the serving plane without the socket.
type doPoster struct{ srv *serve.Server }

func (d doPoster) post(route string, body []byte) (int, string, error) {
	status, reply := d.srv.Do(route, body)
	return status, reply, nil
}

func (doPoster) close() {}

// goCounters reads the Go runtime's own costs, which the simulated cycle
// counter never sees.
type goCounters struct {
	mallocs, bytes, heapAlloc uint64
	gcCPU, totalCPU           float64
}

// sub returns the growth of the cumulative counters since b.
func (a goCounters) sub(b goCounters) goCounters {
	return goCounters{mallocs: a.mallocs - b.mallocs, bytes: a.bytes - b.bytes,
		gcCPU: a.gcCPU - b.gcCPU, totalCPU: a.totalCPU - b.totalCPU}
}

func readGoCounters() goCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	c := goCounters{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, heapAlloc: ms.HeapAlloc}
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU, c.totalCPU = s[0].Value.Float64(), s[1].Value.Float64()
	}
	return c
}

// planeCounters snapshots the server-side counters a phase is charged with.
type planeCounters struct {
	restarts, shed, requests uint64
	kcycles                  float64
}

func (a planeCounters) sub(b planeCounters) planeCounters {
	return planeCounters{a.restarts - b.restarts, a.shed - b.shed, a.requests - b.requests, a.kcycles - b.kcycles}
}

func readPlane(srv *serve.Server) planeCounters {
	var c planeCounters
	for _, row := range srv.Rows() {
		c.restarts += row.Restarts
		c.shed += row.Shed
		c.requests += row.Requests
	}
	for _, l := range srv.Loads() {
		c.kcycles += float64(l.Cycles) / 1000
	}
	return c
}

// phase is one stretch of closed-loop load of a traced serve run.
type phase struct {
	name     string
	from, to time.Time
	load     *load
	plane    planeCounters // server-side counters charged to the phase
	gort     goCounters    // Go runtime counters charged to the phase
	growthB  float64       // Go heap growth not explained by our own samples
	// Per-request parts, from ledger spans matched to our samples, in us.
	front, accept, queue, marshal, exec, reply []float64
	execKCycles, gcKCycles, quanta             []float64
	matched                                    int
	// attempted counts the phase's requests on well-behaved routes; lats
	// holds the latency, in us, of the correct ones.
	attempted int
	lats      []float64
}

// drive runs the closed loop for d and keeps what the callers saw.
func (p *phase) drive(d time.Duration, dial func() poster, w *workload, in *inputs, seed int64, k int) {
	p.from = time.Now()
	p.load = startLoad(dial, w, in, seed, k)
	time.Sleep(d)
	p.load.finish()
	p.to = time.Now()
	for _, cl := range p.load.callers {
		p.attempted += len(cl.samples)
		for _, s := range cl.samples {
			if s.ok {
				p.lats = append(p.lats, float64(s.latNs)/1e3)
			}
		}
	}
}

// tracedServe drives a serve workload in three phases of a third of the
// window each, all with the same closed loop as the end-to-end run. The
// socket phase runs the plane in a child with its request ledger on, so the
// waterfall is of a real cross-process request; the two Do phases run the
// plane in this process and call Server.Do, ledger on and then off.
func tracedServe(w *workload, o options, tr *tracer, res *result) error {
	in := genInputs(w, o.seed)
	k := connections()

	c, addr, _, err := startServeChild(w, in, k, true)
	if err != nil {
		return err
	}
	sock := &phase{name: "serve.socket"}
	sock.drive(o.window/3, func() poster { return &conn{addr: addr} }, w, in, o.seed, k)
	var done serveDone
	if err := c.finish(&done); err != nil {
		res.correct = false
		res.notef("FAIL: %v", err)
	}
	if !done.AuditOK {
		res.correct = false
		res.notef("FAIL: post-Close audit:\n%s", done.Audit)
	}
	for _, row := range done.Rows {
		sock.plane.restarts += row.Restarts
		sock.plane.shed += row.Shed
		sock.plane.requests += row.Requests
	}
	sock.record(tr, done.Ledger)

	srv, err := serve.NewSharded(vmConfig, planeConfig(k), w.tenants)
	if err != nil {
		return err
	}
	if _, err := srv.Start("127.0.0.1:0"); err != nil {
		return err
	}
	do := func(name string, ledgerOn bool) *phase {
		for _, vm := range srv.VMs() {
			vm.Tel.Spans.SetEnabled(ledgerOn)
		}
		runtime.GC()
		g0, p0 := readGoCounters(), readPlane(srv)
		ph := &phase{name: name}
		ph.drive(o.window/3, func() poster { return doPoster{srv} }, w, in, o.seed, k)
		ph.gort, ph.plane = readGoCounters().sub(g0), readPlane(srv).sub(p0)
		runtime.GC()
		own := float64(cap(ph.load.hog))*float64(unsafe.Sizeof(hogSample{})) + float64(cap(ph.lats))*8
		for _, cl := range ph.load.callers {
			own += float64(cap(cl.samples)) * float64(unsafe.Sizeof(sample{}))
		}
		ph.growthB = float64(readGoCounters().heapAlloc) - float64(g0.heapAlloc) - own
		if ledgerOn {
			var ledger []telemetry.Span
			for _, vm := range srv.VMs() {
				ledger = append(ledger, vm.Tel.Spans.Snapshot()...)
			}
			ph.record(tr, ledger)
		}
		return ph
	}
	doOn := do("serve.do", true)
	doOff := do("serve.do.untraced", false)
	if err := srv.Close(); err != nil {
		return err
	}
	for i, vm := range srv.VMs() {
		if rep := vm.Audit(true); !rep.OK() {
			res.correct = false
			res.notef("FAIL: post-Close audit of shard %d:\n%s", i, rep)
		}
	}

	for _, ph := range []*phase{sock, doOn, doOff} {
		res.attempted += ph.attempted
		res.failed += ph.attempted - len(ph.lats)
	}
	if res.failed > 0 {
		res.correct = false
	}

	sockP50, doOnP50, doOffP50 := median(sock.lats), median(doOn.lats), median(doOff.lats)
	nOff := math.Max(1, float64(doOff.plane.requests))
	res.set("serve.do_p50_us", doOffP50)
	res.set("serve.socket_p50_us", sockP50-doOnP50)
	res.set("serve.go_allocs_per_req", float64(doOff.gort.mallocs)/nOff)
	res.set("serve.go_bytes_per_req", float64(doOff.gort.bytes)/nOff)
	res.set("serve.heap_growth_b_per_req", doOff.growthB/nOff)
	res.set("serve.queue_p50_us", median(doOn.queue))
	res.set("serve.marshal_p50_us", median(doOn.marshal))
	res.set("serve.exec_kcycles_p50", median(doOn.execKCycles))
	res.set("serve.gc_kcycles_mean", mean(doOn.gcKCycles))
	res.set("sched.quanta_per_req", mean(doOn.quanta))
	res.set("telemetry.trace_overhead_share", (doOnP50-doOffP50)/math.Max(1e-9, doOffP50))
	res.set("go.gc_cpu_share", (doOn.gort.gcCPU+doOff.gort.gcCPU)/math.Max(1e-9, doOn.gort.totalCPU+doOff.gort.totalCPU))
	res.set("go.allocs_per_kcycle", float64(doOn.gort.mallocs+doOff.gort.mallocs)/math.Max(1, doOn.plane.kcycles+doOff.plane.kcycles))
	if w.hogRoute != "" {
		res.set("serve.restarts_per_s", float64(sock.plane.restarts)/sock.to.Sub(sock.from).Seconds())
		res.set("serve.hog_down_p50_ms", median(hogDowntimes(sock.load.hog)))
		if sock.plane.restarts == 0 {
			res.correct = false
			res.notef("FAIL: the hog was never killed and restarted")
		}
	}
	res.set("serve.shed_share", float64(sock.plane.shed)/math.Max(1, float64(sock.plane.requests)))

	res.notef("traced run, %d callers over %d shards, three phases of %.1fs: socket (plane in a child, ledger on) N=%d p50 %.1f us; Server.Do in process, ledger on N=%d p50 %.1f us, ledger off N=%d p50 %.1f us",
		len(sock.load.callers), k, (o.window / 3).Seconds(), len(sock.lats), sockP50, len(doOn.lats), doOnP50, len(doOff.lats), doOffP50)
	waterfall(res, sock, sockP50)
	return nil
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// hogDowntimes lists, in ms, the gaps a caller of the hog route saw from
// the first refused or failed reply to the next 200.
func hogDowntimes(hs []hogSample) []float64 {
	var out []float64
	var downAt time.Time
	for _, h := range hs {
		switch {
		case h.status != http.StatusOK && downAt.IsZero():
			downAt = h.end
		case h.status == http.StatusOK && !downAt.IsZero():
			out = append(out, h.end.Sub(downAt).Seconds()*1e3)
			downAt = time.Time{}
		}
	}
	return out
}

// record matches the plane's own request ledger (telemetry.Span: accept,
// queue, marshal, exec) to the phase's samples: a ledger entry belongs to
// the sample whose interval holds its accept time. A route's requests never
// overlap, so per route the match is a merge of two time-ordered lists.
// Each matched request becomes a span around the call (socket or Do) with
// the ledger's phases and the reply leg as children. The recorder keeps
// only its last few thousand entries per shard, so only the tail of a
// phase is matched.
func (p *phase) record(tr *tracer, ledger []telemetry.Span) {
	byRoute := make(map[string][]telemetry.Span)
	for _, sp := range ledger {
		if sp.Status == http.StatusOK && sp.Start >= p.from.UnixNano() {
			byRoute[sp.Route] = append(byRoute[sp.Route], sp)
		}
	}
	for _, sps := range byRoute {
		sort.Slice(sps, func(i, j int) bool { return sps[i].Start < sps[j].Start })
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for _, cl := range p.load.callers {
		next := make([]int, len(cl.routes))
		for _, s := range cl.samples {
			end := s.end.UnixNano()
			start := end - s.latNs
			sps := byRoute[cl.routes[s.route]]
			i := next[s.route]
			for i < len(sps) && sps[i].Start < start {
				i++
			}
			next[s.route] = i
			if !s.ok || i == len(sps) || sps[i].Start > end {
				continue
			}
			sp := sps[i]
			next[s.route] = i + 1
			done := sp.Start + sp.TotalNs
			id := tr.add(p.name, 0, 0, start, end)
			t := sp.Start
			tr.add("serve.accept", id, id, t, t+sp.AcceptNs)
			t += sp.AcceptNs
			tr.add("serve.queue", id, id, t, t+sp.QueueNs)
			t += sp.QueueNs
			tr.add("serve.marshal", id, id, t, t+sp.MarshalNs)
			tr.add("serve.exec", id, id, done-sp.ExecNs, done)
			tr.add("serve.reply", id, id, done, end)
			p.matched++
			p.front = append(p.front, us(sp.Start-start))
			p.accept = append(p.accept, us(sp.AcceptNs))
			p.queue = append(p.queue, us(sp.QueueNs))
			p.marshal = append(p.marshal, us(sp.MarshalNs))
			p.exec = append(p.exec, us(sp.ExecNs))
			p.reply = append(p.reply, us(end-done))
			p.execKCycles = append(p.execKCycles, float64(sp.ExecCycles)/1e3)
			p.gcKCycles = append(p.gcKCycles, float64(sp.GCCycles)/1e3)
			p.quanta = append(p.quanta, float64(sp.Quanta))
		}
	}
}

// waterfall prints where the median socket request's time goes, from the
// matched ledger entries of the socket phase, with the remainder stated.
func waterfall(res *result, sock *phase, reqP50 float64) {
	rows := []struct {
		name string
		vals []float64
	}{
		{"socket in  (caller writes -> handler starts)", sock.front},
		{"accept     (body read, route lookup)", sock.accept},
		{"queue      (submit channel, tenant queue)", sock.queue},
		{"marshal    (body into the tenant heap)", sock.marshal},
		{"exec       (VM quanta, tenant GC included)", sock.exec},
		{"reply      (engine responds -> caller has read)", sock.reply},
	}
	res.notef("waterfall of the median socket request (%d of the phase's requests matched to ledger entries); req p50 = %.1f us", sock.matched, reqP50)
	var sum float64
	for _, r := range rows {
		m := median(r.vals)
		sum += m
		res.notef("  %-52s p50 %9.1f us  %5.1f%%", r.name, m, 100*m/math.Max(1e-9, reqP50))
	}
	res.notef("  %-52s     %9.1f us  %5.1f%%", "accounted for", sum, 100*sum/math.Max(1e-9, reqP50))
	res.notef("  %-52s     %9.1f us  %5.1f%%  (medians of parts do not add up exactly; marshal->exec spawn gap)", "unexplained remainder", reqP50-sum, 100*(reqP50-sum)/math.Max(1e-9, reqP50))
	res.notef("  tenant GC charged to a request: mean %.2f kcycles; exec p50 %.1f kcycles", mean(sock.gcKCycles), median(sock.execKCycles))
}

// tracedBatch runs the batch programs in this process for a third of the
// window, through the same public calls spec.Run makes, one span around
// each call into a layer, and checks each result against the program's
// hand-written checksum.
func tracedBatch(w *workload, o options, tr *tracer, res *result) error {
	progs, err := batchPrograms(w.programs)
	if err != nil {
		return err
	}
	g0 := readGoCounters()
	var kcycles float64
	start := time.Now()
	for rounds := 0; rounds < 1 || time.Since(start) < o.window/3; rounds++ {
		for _, pw := range progs {
			res.attempted++
			id := tr.begin("spec.run."+pw.Name, 0)
			pr, err := prepareProgram(pw, batchPlatform, tr, id)
			if err == nil {
				s := tr.begin("interp.run", id)
				err = pr.vm.Run(0)
				tr.end(s)
			}
			tr.end(id)
			switch {
			case err != nil:
			case pr.th.State != interp.StateFinished:
				err = fmt.Errorf("%s died: %v", pw.Name, pr.th.Err)
			case pr.th.Result.I != pw.Checksum:
				err = fmt.Errorf("%s checksum %d, want %d", pw.Name, pr.th.Result.I, pw.Checksum)
			}
			if err != nil {
				res.failed++
				res.correct = false
				res.notef("FAIL: %v", err)
				continue
			}
			kcycles += float64(pr.th.Cycles) / 1e3
		}
	}
	g1 := readGoCounters()
	res.set("go.gc_cpu_share", (g1.gcCPU-g0.gcCPU)/math.Max(1e-9, g1.totalCPU-g0.totalCPU))
	res.set("go.allocs_per_kcycle", float64(g1.mallocs-g0.mallocs)/math.Max(1, kcycles))
	res.notef("traced in-process run: %d program runs in %.1fs, all checksums verified", res.attempted, time.Since(start).Seconds())
	return nil
}
