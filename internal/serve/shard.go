package serve

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/interp"
	"repro/internal/jserv"
	"repro/internal/object"
	"repro/internal/telemetry"
)

// shard is one engine: a VM (scheduler, heap registry, GC workers), the
// subset of tenants placed on it, and the single goroutine that owns all
// of them. Everything below the submit/ctrl channels — queues, processes,
// supervisor state, the flight recorder — is engine-goroutine-only, which
// is what lets N shards run on N cores with no locks on the request path.
type shard struct {
	id  int
	vm  *core.VM
	cfg Config

	// tenants this shard currently owns; mutated only by the engine
	// goroutine (Migrate edits it via ctrl).
	tenants []*tenant

	// zygotes caches one checkpointed warm template per program shape
	// (handler class): the first Template tenant of a shape pays the full
	// init once, every start after that — first starts, supervisor
	// restarts, migrations landing here — forks a clone from the template
	// instead. Engine-goroutine-only (startTenant runs on it), except the
	// pre-loop Start path, which is single-threaded by construction.
	zygotes map[string]*core.Template

	submit   chan *request
	ctrl     chan func()
	quit     chan struct{}
	loopDone chan struct{}

	// Kernel-scope totals plus socket-layer counters (per shard).
	kReqs, kShed, kErrs, kOK *telemetry.Counter
	runErrs                  telemetry.Counter

	// Span plumbing: the shard hub's recorder plus cached kernel-scope
	// phase histograms (one Observe per completed request when spans on).
	spans                                        *telemetry.SpanRecorder
	kSpanQueue, kSpanMarshal, kSpanExec, kSpanGC *telemetry.Histogram
	kSpanTotal                                   *telemetry.Histogram
}

func newShard(id int, vm *core.VM, cfg Config) *shard {
	k := vm.Tel.Reg.Kernel()
	return &shard{
		id:       id,
		vm:       vm,
		cfg:      cfg,
		zygotes:  make(map[string]*core.Template),
		submit:   make(chan *request, submitBuffer),
		ctrl:     make(chan func(), 8),
		quit:     make(chan struct{}),
		loopDone: make(chan struct{}),
		kReqs:    k.Counter(telemetry.MServeRequests),
		kShed:    k.Counter(telemetry.MServeShed),
		kErrs:    k.Counter(telemetry.MServeErrors),
		kOK:      k.Counter(telemetry.MServeOK),

		spans:        vm.Tel.Spans,
		kSpanQueue:   k.Histogram(telemetry.MSpanQueueNs),
		kSpanMarshal: k.Histogram(telemetry.MSpanMarshalNs),
		kSpanExec:    k.Histogram(telemetry.MSpanExecCycles),
		kSpanGC:      k.Histogram(telemetry.MSpanGCCycles),
		kSpanTotal:   k.Histogram(telemetry.MSpanTotalNs),
	}
}

// do runs fn on the shard's engine goroutine and waits for it — the only
// way code outside the engine may touch engine-owned state (Migrate uses
// it for quiesce/drain/adopt steps). Returns an error instead of hanging
// if the engine has already exited.
func (sh *shard) do(fn func()) error {
	done := make(chan struct{})
	wrapped := func() {
		fn()
		close(done)
	}
	select {
	case sh.ctrl <- wrapped:
	case <-sh.loopDone:
		return fmt.Errorf("serve: shard %d engine stopped", sh.id)
	}
	select {
	case <-done:
		return nil
	case <-sh.loopDone:
		return fmt.Errorf("serve: shard %d engine stopped", sh.id)
	}
}

// startTenant (re)creates the tenant's process on this shard's VM — by
// full init (fresh memlimit, heap and namespace, the handler program) or,
// for Template tenants, by forking a checkpointed zygote — then spawns
// the daemon keep-alive thread (a process whose last thread exits is
// reclaimed, and request threads come and go).
func (sh *shard) startTenant(tn *tenant) error {
	var p *core.Process
	var err error
	if tn.cfg.Template {
		p, err = sh.forkTenant(tn)
	} else {
		p, err = sh.initTenant(tn, tn.cfg.Name)
	}
	if err != nil {
		return err
	}
	if _, err := p.SpawnDaemon(jserv.KeeperClass, "main()V"); err != nil {
		p.Kill(nil)
		return fmt.Errorf("serve: tenant %s keeper: %w", tn.cfg.Name, err)
	}
	arrCls, err := p.Loader.Class("[I")
	if err != nil {
		p.Kill(nil)
		return fmt.Errorf("serve: tenant %s: %w", tn.cfg.Name, err)
	}
	scope := sh.vm.Tel.Reg.Proc(int32(p.ID))
	scope.SetMeta("serve.route", tn.cfg.Route)
	scope.SetMeta("serve.role", tn.prog.role)
	scope.SetMeta("serve.shard", fmt.Sprint(sh.id))
	origin := "init"
	if tn.cfg.Template {
		origin = "fork"
	}
	scope.SetMeta("serve.origin", origin)

	tn.mu.Lock()
	tn.proc = p
	tn.scope = scope
	tn.mu.Unlock()
	tn.arrCls = arrCls
	tn.down = false
	sh.publish(tn)
	return nil
}

// initTenant is the classic cold start: a fresh process named name that
// loads and initializes the tenant's handler and keeper programs from
// bytecode (module loads run the clinits on the bootstrap thread; no
// scheduler threads are spawned).
func (sh *shard) initTenant(tn *tenant, name string) (*core.Process, error) {
	p, err := sh.vm.NewProcess(name, core.ProcessOptions{MemLimit: uint64(tn.cfg.MemKB) << 10})
	if err != nil {
		return nil, fmt.Errorf("serve: tenant %s: %w", name, err)
	}
	for _, mod := range []*bytecode.Module{tn.prog.module(), jserv.KeeperModule()} {
		if err := p.Load(mod); err != nil {
			p.Kill(nil)
			return nil, fmt.Errorf("serve: tenant %s: %w", name, err)
		}
	}
	return p, nil
}

// forkTenant stamps out the tenant's incarnation from the shard's zygote
// template for its program shape, building (and caching) the template
// first if this is the shape's first start on this shard: warm a
// quiescent process, checkpoint it, and kill the origin — the template
// stands on its own. The clone gets its own pid, heap and memlimit —
// charged in full for the copied bytes — and has never run a clinit: the
// warmup happened once, in the zygote.
func (sh *shard) forkTenant(tn *tenant) (*core.Process, error) {
	key := tn.prog.class
	tpl, ok := sh.zygotes[key]
	if !ok {
		origin, err := sh.initTenant(tn, "zygote-"+tn.cfg.Name)
		if err != nil {
			return nil, err
		}
		tpl, err = sh.vm.Checkpoint(origin, key)
		origin.Kill(nil) // threadless: reclaims inline
		if err != nil {
			return nil, fmt.Errorf("serve: zygote for %s: checkpoint: %w", tn.cfg.Name, err)
		}
		sh.zygotes[key] = tpl
	}
	p, err := tpl.Fork(tn.cfg.Name, core.ProcessOptions{MemLimit: uint64(tn.cfg.MemKB) << 10})
	if err != nil {
		return nil, fmt.Errorf("serve: tenant %s: fork from %s: %w", tn.cfg.Name, tpl.Name, err)
	}
	return p, nil
}

// publish mirrors the tenant's lifetime aggregates into the current
// incarnation's telemetry scope.
func (sh *shard) publish(tn *tenant) {
	sc := tn.scope
	if sc == nil {
		return
	}
	sc.Counter(telemetry.MServeRequests) // ensure presence even when idle
	sc.Gauge(telemetry.MServeQueueDepth).Set(uint64(len(tn.queue)))
	sc.Gauge(telemetry.MServeInflight).Set(uint64(len(tn.inflight)))
}

// removeTenant drops tn from the shard's set (engine goroutine only;
// Migrate calls it via do after the drain).
func (sh *shard) removeTenant(tn *tenant) {
	for i, t := range sh.tenants {
		if t == tn {
			sh.tenants = append(sh.tenants[:i], sh.tenants[i+1:]...)
			return
		}
	}
}

// ---- engine loop ------------------------------------------------------

// loop is the engine goroutine: the only code that touches this shard's
// VM after Start. It alternates between admitting submissions, running
// control functions, dispatching queued requests into tenant processes,
// advancing the scheduler one slice, and reaping completions and deaths.
func (sh *shard) loop() {
	defer close(sh.loopDone)
	for {
		sh.drainCtrl()
		sh.drainSubmit()
		now := time.Now()
		sh.checkRestarts(now)
		running := sh.dispatchAll()
		if running > 0 {
			if err := sh.vm.Run(sliceCycles); err != nil {
				sh.runErrs.Inc()
			}
		} else {
			sh.drainKilled()
		}
		sh.reapAll(time.Now())
		sh.expire(time.Now())
		select {
		case <-sh.quit:
			sh.shutdown()
			return
		default:
		}
		if sh.idle() {
			sh.idleWait()
		}
	}
}

func (sh *shard) drainCtrl() {
	for {
		select {
		case fn := <-sh.ctrl:
			fn()
		default:
			return
		}
	}
}

func (sh *shard) drainSubmit() {
	for {
		select {
		case r := <-sh.submit:
			sh.admit(r)
		default:
			return
		}
	}
}

// admit applies admission control: bounded queue, memlimit high-water.
func (sh *shard) admit(r *request) {
	tn := r.tn
	if cur := tn.sh.Load(); cur != sh {
		// Stale submit: the tenant migrated between the HTTP layer's shard
		// lookup and this drain. Forward to the owner; if its buffer is
		// full, answer here without touching engine-owned tenant state
		// (that belongs to the owner's goroutine now).
		select {
		case cur.submit <- r:
		default:
			tn.shed.Inc()
			sh.kShed.Inc()
			sh.respond(r, http.StatusServiceUnavailable, "shed: submit queue full\n")
		}
		return
	}
	tn.reqs.Inc()
	sh.kReqs.Inc()
	if tn.scope != nil {
		tn.scope.Counter(telemetry.MServeRequests).Inc()
	}
	if tn.migrating {
		sh.shed(r, "tenant migrating")
		return
	}
	if tn.down && tn.cfg.NoRestart {
		sh.shed(r, "tenant down")
		return
	}
	if len(tn.queue) >= tn.cfg.QueueMax {
		sh.shed(r, "queue full")
		return
	}
	if !tn.down && tn.cfg.ShedFraction > 0 {
		p := tn.proc
		if p != nil && p.State() == core.ProcRunning {
			// The high-water mark tracks the process' current memlimit,
			// not the static MemKB it started with: when the memory
			// balancer governs the shard, a tenant's ceiling moves every
			// rebalance round and admission control must move with it.
			use, max := p.Limit.Load()
			high := tn.cfg.ShedFraction * float64(max)
			if float64(use) > high {
				// Distinguish garbage from live data before refusing: a
				// collection (charged to the tenant) saves a well-behaved
				// neighbour; a hog's vector stays live and the shed stands.
				// The pause is attributed to the arriving request that
				// forced it.
				res := p.CollectAttributed(r.id)
				if r.span != nil {
					r.span.GCCycles += res.Cycles
				}
				if float64(p.MemUse()) > high {
					sh.shed(r, "memlimit saturated")
					return
				}
			}
		}
	}
	tn.queue = append(tn.queue, r)
	tn.qdepth.Set(uint64(len(tn.queue)))
	sh.publish(tn)
}

// shed refuses a request with 503 — the only answer admission control
// ever gives; shed requests never hang.
func (sh *shard) shed(r *request, reason string) {
	if r.done {
		return
	}
	tn := r.tn
	tn.shed.Inc()
	sh.kShed.Inc()
	if tn.scope != nil {
		tn.scope.Counter(telemetry.MServeShed).Inc()
	}
	sh.vm.Tel.Emit(telemetry.Event{
		Kind: telemetry.EvServeShed, Pid: tn.pid(),
		A: uint64(len(tn.queue)), Detail: tn.cfg.Route + ": " + reason,
	})
	sh.respond(r, http.StatusServiceUnavailable, "shed: "+reason+"\n")
	if !tn.down {
		// Shed storms on a live tenant are worth a post-mortem too
		// (throttled); the sheds of a death's queue drain are covered by
		// markDown's own dump.
		sh.flightOnShed(tn)
	}
}

// finishSpan closes the request's cost ledger and publishes it: the span
// goes to the recorder ring and each phase to the kernel and tenant phase
// histograms. Engine-goroutine normally; the socket-layer shed path calls
// it from an HTTP goroutine, which is safe because such a request never
// reached the engine (and recorder/histogram writes synchronize
// internally).
func (sh *shard) finishSpan(r *request, status int, detail string) {
	sp := r.span
	if sp == nil {
		return
	}
	r.span = nil
	now := time.Now()
	tn := r.tn
	sp.Pid = tn.pid()
	sp.Status = status
	if status != http.StatusOK {
		sp.Detail = detail
	}
	if !r.dispatchedAt.IsZero() {
		sp.ExecNs = now.Sub(r.dispatchedAt).Nanoseconds()
	} else if sp.QueueNs == 0 {
		// Never dispatched: its whole post-accept life was queue wait.
		sp.QueueNs = now.Sub(r.enq).Nanoseconds()
	}
	sp.GCNs = telemetry.CyclesToNs(sp.GCCycles)
	sp.TotalNs = now.Sub(r.t0).Nanoseconds()
	sh.spans.Record(*sp)

	sh.kSpanQueue.Observe(uint64(sp.QueueNs))
	sh.kSpanMarshal.Observe(uint64(sp.MarshalNs))
	sh.kSpanExec.Observe(sp.ExecCycles)
	sh.kSpanGC.Observe(sp.GCCycles)
	sh.kSpanTotal.Observe(uint64(sp.TotalNs))
	if sc := tn.currentScope(); sc != nil {
		sc.Histogram(telemetry.MSpanQueueNs).Observe(uint64(sp.QueueNs))
		sc.Histogram(telemetry.MSpanMarshalNs).Observe(uint64(sp.MarshalNs))
		sc.Histogram(telemetry.MSpanExecCycles).Observe(sp.ExecCycles)
		sc.Histogram(telemetry.MSpanGCCycles).Observe(sp.GCCycles)
		sc.Histogram(telemetry.MSpanTotalNs).Observe(uint64(sp.TotalNs))
	}
}

// respond delivers the single response for r. The channel is buffered, so
// the engine never blocks on a client that gave up.
func (sh *shard) respond(r *request, status int, body string) {
	if r.done {
		return
	}
	r.done = true
	sh.finishSpan(r, status, strings.TrimSuffix(body, "\n"))
	r.resp <- response{status: status, body: body, pid: r.tn.pid()}
}

// dispatchAll starts queued requests on every tenant with capacity and
// returns the total number of requests executing in the VM.
func (sh *shard) dispatchAll() int {
	running := 0
	for _, tn := range sh.tenants {
		sh.dispatch(tn)
		running += len(tn.inflight)
	}
	return running
}

// dispatch starts queued requests until the tenant is saturated: marshal
// the body into the tenant's heap, spawn a green thread on the handler.
func (sh *shard) dispatch(tn *tenant) {
	p := tn.proc
	if tn.down || p == nil || p.State() != core.ProcRunning {
		return
	}
	for len(tn.queue) > 0 && len(tn.inflight) < tn.cfg.MaxInflight {
		r := tn.queue[0]
		tn.queue = tn.queue[1:]
		if r.done { // expired while queued
			continue
		}
		var m0 time.Time
		if r.span != nil {
			m0 = time.Now()
			r.span.QueueNs = m0.Sub(r.enq).Nanoseconds()
		}
		arr, err := sh.marshal(tn, r)
		if err != nil {
			// The request wouldn't fit in the tenant's memlimit: that is
			// saturation, not failure — shed it.
			sh.shed(r, "request does not fit memlimit")
			continue
		}
		if r.span != nil {
			r.span.MarshalNs = time.Since(m0).Nanoseconds()
		}
		th, err := p.Spawn(tn.prog.class, jserv.NetHandleKey,
			interp.RefSlot(arr), interp.IntSlot(int64(tn.cfg.WorkUnits)))
		if err != nil {
			sh.shed(r, "tenant not accepting requests")
			continue
		}
		// Stamp the thread: the scheduler charges its quanta to the span
		// and the GC trigger charges pauses to the request id.
		th.ReqID = r.id
		th.Span = r.span
		r.th = th
		r.dispatchedAt = time.Now()
		tn.inflight = append(tn.inflight, r)
		if sh.vm.Cfg.Faults.Fire(faults.SiteServeDispatch) {
			// The fault plane kills the tenant mid-request — the
			// deterministic handle for testing the degradation path.
			p.Kill(core.ErrInjectedFault)
		}
	}
	tn.qdepth.Set(uint64(len(tn.queue)))
	tn.infl.Set(uint64(len(tn.inflight)))
	sh.publish(tn)
}

// marshal copies the request body into the tenant's heap as an int array:
// element 0 is the byte length, the rest the bytes packed four per int.
// The allocation is charged to the tenant's memlimit; a refusal is
// retried once after collecting the tenant's heap (the GC cycles are
// charged to the tenant too).
func (sh *shard) marshal(tn *tenant, r *request) (*object.Object, error) {
	body := r.body
	n := 1 + (len(body)+3)/4
	arr, err := tn.proc.Heap.AllocArray(tn.arrCls, n)
	if err != nil {
		res := tn.proc.CollectAttributed(r.id)
		if r.span != nil {
			r.span.GCCycles += res.Cycles
		}
		arr, err = tn.proc.Heap.AllocArray(tn.arrCls, n)
		if err != nil {
			return nil, err
		}
	}
	arr.Prims[0] = int64(len(body))
	for i, b := range body {
		arr.Prims[1+i/4] |= int64(b) << uint(8*(i%4))
	}
	return arr, nil
}

// reapAll collects finished request threads and detects tenant deaths.
func (sh *shard) reapAll(now time.Time) {
	for _, tn := range sh.tenants {
		sh.reap(tn, now)
	}
}

func (sh *shard) reap(tn *tenant, now time.Time) {
	if len(tn.inflight) > 0 {
		keep := tn.inflight[:0]
		for _, r := range tn.inflight {
			if r.th.Alive() {
				keep = append(keep, r)
				continue
			}
			if r.done { // already expired/shed; drop silently
				continue
			}
			if r.th.Err != nil || r.th.Uncaught != nil {
				sh.fail(r, "tenant died mid-request")
				continue
			}
			tn.okCount.Inc()
			sh.kOK.Inc()
			lat := uint64(now.Sub(r.enq).Nanoseconds())
			tn.latency.Observe(lat)
			if tn.scope != nil {
				tn.scope.Counter(telemetry.MServeOK).Inc()
				tn.scope.Histogram(telemetry.MServeLatency).Observe(lat)
			}
			tn.deaths = 0 // healthy again: reset the backoff ladder
			sh.respond(r, http.StatusOK, fmt.Sprintf("%s result=%d\n", tn.cfg.Name, r.th.Result.I))
		}
		tn.inflight = keep
		tn.infl.Set(uint64(len(tn.inflight)))
	}
	p := tn.proc
	if !tn.down && p != nil && p.State() != core.ProcRunning {
		sh.markDown(tn, now)
	}
}

// fail answers a request whose tenant died under it.
func (sh *shard) fail(r *request, reason string) {
	tn := r.tn
	tn.errs.Inc()
	sh.kErrs.Inc()
	if tn.scope != nil {
		tn.scope.Counter(telemetry.MServeErrors).Inc()
	}
	sh.respond(r, http.StatusBadGateway, "error: "+reason+"\n")
}

// markDown records a tenant death: queued requests are shed immediately
// (they never hang waiting on a corpse), in-flight ones fail as their
// threads die, and the supervisor schedules a restart with exponential
// backoff — the paper's administrator, automated. A quiesced (migrating)
// tenant's death is the expected end of its old incarnation: no
// post-mortem, no backoff, no restart here — the target shard restarts it.
func (sh *shard) markDown(tn *tenant, now time.Time) {
	tn.down = true
	for _, r := range tn.queue {
		sh.shed(r, "tenant down")
	}
	tn.queue = tn.queue[:0]
	tn.qdepth.Set(0)
	if tn.migrating {
		sh.publish(tn)
		return
	}
	tn.deaths++
	// Post-mortem after the queue drain, so the dump carries every span
	// this death produced (the 502s reaped above and the sheds just made).
	sh.dumpFlight(tn, "death")
	if !tn.cfg.NoRestart {
		backoff := sh.cfg.RestartBackoff << uint(tn.deaths-1)
		if backoff > maxBackoff || backoff <= 0 {
			backoff = maxBackoff
		}
		tn.nextRestart = now.Add(backoff)
	}
	sh.publish(tn)
}

// checkRestarts restarts dead tenants whose backoff expired. A lazy
// tenant with no queued demand stays cold — scale-from-zero means the
// supervisor works on demand, not on a timer.
func (sh *shard) checkRestarts(now time.Time) {
	for _, tn := range sh.tenants {
		if !tn.down || tn.migrating || tn.cfg.NoRestart || now.Before(tn.nextRestart) {
			continue
		}
		if tn.cfg.Lazy && len(tn.queue) == 0 {
			continue
		}
		deaths := tn.deaths
		if err := sh.startTenant(tn); err != nil {
			// Could not restart (e.g. memory still held by the dying
			// incarnation): back off again.
			tn.nextRestart = now.Add(maxBackoff)
			continue
		}
		tn.restarts.Inc()
		if tn.scope != nil {
			tn.scope.Counter(telemetry.MServeRestarts).Inc()
		}
		sh.vm.Tel.Emit(telemetry.Event{
			Kind: telemetry.EvServeRestart, Pid: tn.pid(),
			A: uint64(deaths), Detail: tn.cfg.Route,
		})
	}
}

// expire guarantees liveness: any request past its wall-clock deadline is
// answered now, whatever state it is in.
func (sh *shard) expire(now time.Time) {
	for _, tn := range sh.tenants {
		if len(tn.queue) > 0 {
			keep := tn.queue[:0]
			for _, r := range tn.queue {
				if now.After(r.deadline) {
					sh.shed(r, "deadline exceeded before dispatch")
					continue
				}
				keep = append(keep, r)
			}
			tn.queue = keep
			tn.qdepth.Set(uint64(len(tn.queue)))
		}
		for _, r := range tn.inflight {
			if !r.done && now.After(r.deadline) {
				// Still executing at the deadline is overload, not tenant
				// failure: answer 503 like any other shed. 502 stays
				// reserved for "the tenant died under this request".
				sh.shed(r, "deadline exceeded")
			}
		}
	}
}

// drainKilled steps the scheduler while dead tenants still have threads
// to unwind (a killed keeper must die for its process to reclaim). Only
// called when no requests are executing, so the steps are cheap.
func (sh *shard) drainKilled() {
	if !sh.unreclaimedDead() {
		return
	}
	for i := 0; i < 1024 && sh.vm.Sched.Live() > 0; i++ {
		progressed, err := sh.vm.Sched.Step()
		if err != nil || !progressed {
			return
		}
		if !sh.unreclaimedDead() {
			return
		}
	}
}

// unreclaimedDead reports whether any tenant's dead incarnation has not
// finished reclaiming.
func (sh *shard) unreclaimedDead() bool {
	for _, tn := range sh.tenants {
		p := tn.proc
		if p != nil && p.State() != core.ProcRunning && p.State() != core.ProcReclaimed {
			return true
		}
	}
	return false
}

// idle reports whether the engine has nothing actionable right now.
// Requests queued on a down tenant are not actionable — they wait on the
// restart timer, which idleWait turns into a timed sleep, not a spin.
func (sh *shard) idle() bool {
	if sh.unreclaimedDead() {
		return false
	}
	for _, tn := range sh.tenants {
		if len(tn.inflight) > 0 {
			return false
		}
		if len(tn.queue) > 0 && !tn.down {
			return false
		}
	}
	return true
}

// idleWait blocks until a submission, a control function, shutdown, or
// the next timed obligation: a down tenant's restart, or the deadline of
// a request queued behind one.
func (sh *shard) idleWait() {
	var timer <-chan time.Time
	if d, ok := sh.nextWake(); ok {
		timer = time.After(d)
	}
	select {
	case r := <-sh.submit:
		sh.admit(r)
	case fn := <-sh.ctrl:
		fn()
	case <-sh.quit:
	case <-timer:
	}
}

// nextWake computes the earliest supervisor or expiry deadline.
func (sh *shard) nextWake() (time.Duration, bool) {
	var at time.Time
	earlier := func(t time.Time) {
		if at.IsZero() || t.Before(at) {
			at = t
		}
	}
	for _, tn := range sh.tenants {
		if !tn.down {
			continue
		}
		// A cold lazy tenant has no timed obligation: it wakes on the
		// submission that queues its first request, not on a timer.
		if !tn.cfg.NoRestart && !tn.migrating && !(tn.cfg.Lazy && len(tn.queue) == 0) {
			earlier(tn.nextRestart)
		}
		for _, r := range tn.queue {
			earlier(r.deadline)
		}
	}
	if at.IsZero() {
		return 0, false
	}
	d := time.Until(at)
	if d < 0 {
		d = 0
	}
	return d, true
}

// shutdown fails everything pending, kills every tenant on this shard,
// and steps the scheduler until all processes reclaim — leaving the VM
// quiescent for post-teardown audits.
func (sh *shard) shutdown() {
	sh.drainCtrl()
	sh.refuseSubmitted()
	for _, tn := range sh.tenants {
		for _, r := range tn.queue {
			sh.respond(r, http.StatusServiceUnavailable, "shed: server shutting down\n")
		}
		tn.queue = nil
		for _, r := range tn.inflight {
			sh.respond(r, http.StatusServiceUnavailable, "shed: server shutting down\n")
		}
		if p := tn.proc; p != nil && p.State() == core.ProcRunning {
			p.Kill(nil)
		}
		tn.down = true
	}
	// Step every killed thread to its end; in-flight request threads and
	// keepers all die at their next safepoint.
	for i := 0; i < 1_000_000 && sh.vm.Sched.Live() > 0; i++ {
		progressed, err := sh.vm.Sched.Step()
		if err != nil || !progressed {
			break
		}
	}
	for _, tn := range sh.tenants {
		tn.inflight = nil
		tn.infl.Set(0)
		tn.qdepth.Set(0)
	}
	// Return the zygote templates' memory: nothing forks after shutdown,
	// and a clean teardown leaves the VM with only the kernel heap.
	for key, tpl := range sh.zygotes {
		_ = tpl.Release()
		delete(sh.zygotes, key)
	}
	// One last sweep: submissions that raced in while we were tearing
	// tenants down (Close's straggler goroutines cover anything later).
	sh.refuseSubmitted()
}

// refuseSubmitted answers everything waiting in the submit buffer 503.
func (sh *shard) refuseSubmitted() {
	for {
		select {
		case r := <-sh.submit:
			sh.respond(r, http.StatusServiceUnavailable, "shed: server shutting down\n")
		default:
			return
		}
	}
}
