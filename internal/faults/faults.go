// Package faults is the kernel's deterministic fault-injection plane.
//
// KaffeOS's correctness claims live in corner cases — a process killed in
// the middle of a mark phase, an allocation refused while a write barrier
// is half-way through its entry/exit bookkeeping, an adversarial
// preemption between two dependent stores. This package lets tests and the
// `kaffeos check` sweep provoke those corners on purpose and, crucially,
// reproducibly: every injection decision is drawn from a per-site
// deterministic stream seeded from one plan seed, so a failing schedule is
// re-runnable from its seed alone.
//
// A Plane is threaded through the kernel as named Sites (heap allocation,
// GC mid-mark, barrier store, memlimit debit, scheduler dispatch, process
// spawn/terminate). Instrumented code asks Fire(site); the plane answers
// true when the site's rule says this hit should fail. A nil *Plane and a
// disabled plane are both safe and nearly free: the hot-path cost is one
// nil check plus one atomic load.
//
// The package is a leaf — it imports only the standard library — so every
// subsystem can depend on it without cycles (the same layering rule as
// internal/telemetry).
package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Site names one instrumented fault-injection point in the kernel.
type Site uint8

const (
	// SiteHeapAlloc: heap.adopt refuses the allocation as if the memlimit
	// were exhausted (surfaces to user code as OutOfMemoryError).
	SiteHeapAlloc Site = iota
	// SiteHeapMark: a collection, between its mark and its entry re-check
	// windows, kills the heap's owning process (kill-during-GC).
	SiteHeapMark
	// SiteBarrierStore: the write barrier refuses an otherwise legal store
	// (surfaces as a segmentation violation).
	SiteBarrierStore
	// SiteMemDebit: memlimit.Debit/DebitLease refuses the debit even though
	// the limit has room.
	SiteMemDebit
	// SiteSchedPreempt: the scheduler dispatches the chosen thread with a
	// one-cycle quantum, forcing a preemption at its next safepoint.
	SiteSchedPreempt
	// SiteSchedKill: the scheduler kills the chosen thread's process just
	// before dispatching it (kill at dispatch N, i.e. safepoint N).
	SiteSchedKill
	// SiteProcSpawn: spawning a thread immediately races a process kill
	// against the newborn thread.
	SiteProcSpawn
	// SiteProcTerminate: a normally-exiting thread races a process kill
	// against its own exit transition.
	SiteProcTerminate
	// SiteServeDispatch: the network serving plane kills the tenant's
	// process right after dispatching a request into it, so the Nth
	// dispatched request (`serve.dispatch=@N`) deterministically exercises
	// the killed-mid-request degradation path.
	SiteServeDispatch
	// SiteMemBalance: the memory-balancer controller fails mid-
	// redistribution — it applies only a prefix of the round's new limits
	// (equivalently: the rest of the round acts on a stale snapshot), so
	// `membal.rebalance=@N` deterministically exercises a half-applied
	// rebalance that the next round and the kernel auditor must absorb.
	SiteMemBalance
	// SiteForkCopy: a template checkpoint or fork dies mid-clone — the
	// object copy loop aborts before the Nth object lands, and the
	// half-built heap must unwind to zero residual charges, pages, and
	// entry/exit items (`fork.copy=@N`).
	SiteForkCopy
	// SiteCodeAttach: attaching a shared code-cache artifact to a process
	// fails mid-attach — after the memlimit debit would have happened but
	// before the sharer is recorded — and the attach must unwind to zero
	// leaked bytes and zero refcounts (`codecache.attach=@N`).
	SiteCodeAttach

	numSites
)

var siteNames = [numSites]string{
	SiteHeapAlloc:     "heap.alloc",
	SiteHeapMark:      "heap.mark",
	SiteBarrierStore:  "barrier.store",
	SiteMemDebit:      "mem.debit",
	SiteSchedPreempt:  "sched.preempt",
	SiteSchedKill:     "sched.kill",
	SiteProcSpawn:     "proc.spawn",
	SiteProcTerminate: "proc.terminate",
	SiteServeDispatch: "serve.dispatch",
	SiteMemBalance:    "membal.rebalance",
	SiteForkCopy:      "fork.copy",
	SiteCodeAttach:    "codecache.attach",
}

func (s Site) String() string {
	if int(s) < len(siteNames) {
		return siteNames[s]
	}
	return fmt.Sprintf("site(%d)", uint8(s))
}

// SiteByName resolves a site from its plan-spec name.
func SiteByName(name string) (Site, bool) {
	for s, n := range siteNames {
		if n == name {
			return Site(s), true
		}
	}
	return 0, false
}

// Rule says when a site fires. Exactly one of Prob / Nth is meaningful:
// Nth > 0 selects fire-on-Nth-hit (once), otherwise every hit fires
// independently with probability Prob. Limit, when nonzero, caps the total
// number of firings of the site (applies to both forms).
type Rule struct {
	Prob  float64 // per-hit probability, 0..1
	Nth   uint64  // fire exactly on the Nth hit (1-based), once
	Limit uint64  // max total firings (0 = unlimited)
}

// Plan is a complete injection schedule: a seed plus one rule per site.
type Plan struct {
	Seed  int64
	Rules map[Site]Rule
}

// ParsePlan parses the `-faults` spec syntax:
//
//	seed=42,heap.alloc=0.01,barrier.store=@3,all=0.005,mem.debit=0.02/5
//
// Comma-separated clauses. `seed=N` sets the seed (default 1). A clause
// `site=P` arms the site with probability P; `site=@N` arms fire-on-Nth-
// hit; an optional `/L` suffix caps total firings. The pseudo-site `all`
// applies its rule to every site not named explicitly (explicit clauses
// win regardless of order). An empty spec yields an empty (never-firing)
// plan.
func ParsePlan(spec string) (Plan, error) {
	p := Plan{Seed: 1, Rules: make(map[Site]Rule)}
	var all *Rule
	explicit := make(map[Site]bool)
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return Plan{}, fmt.Errorf("faults: clause %q is not key=value", clause)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		if key == "seed" {
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return Plan{}, fmt.Errorf("faults: bad seed %q: %v", val, err)
			}
			p.Seed = n
			continue
		}
		rule, err := parseRule(val)
		if err != nil {
			return Plan{}, fmt.Errorf("faults: site %s: %v", key, err)
		}
		if key == "all" {
			all = &rule
			continue
		}
		site, ok := SiteByName(key)
		if !ok {
			return Plan{}, fmt.Errorf("faults: unknown site %q (known: %s)", key, strings.Join(siteNames[:], ", "))
		}
		p.Rules[site] = rule
		explicit[site] = true
	}
	if all != nil {
		for s := Site(0); s < numSites; s++ {
			if !explicit[s] {
				p.Rules[s] = *all
			}
		}
	}
	return p, nil
}

func parseRule(val string) (Rule, error) {
	var r Rule
	if body, cap, ok := strings.Cut(val, "/"); ok {
		n, err := strconv.ParseUint(cap, 10, 64)
		if err != nil {
			return Rule{}, fmt.Errorf("bad firing cap %q: %v", cap, err)
		}
		r.Limit = n
		val = body
	}
	if nth, ok := strings.CutPrefix(val, "@"); ok {
		n, err := strconv.ParseUint(nth, 10, 64)
		if err != nil || n == 0 {
			return Rule{}, fmt.Errorf("bad @N hit index %q", nth)
		}
		r.Nth = n
		return r, nil
	}
	p, err := strconv.ParseFloat(val, 64)
	if err != nil || p < 0 || p > 1 {
		return Rule{}, fmt.Errorf("bad probability %q (want 0..1 or @N)", val)
	}
	r.Prob = p
	return r, nil
}

// String renders the plan back to spec syntax (normalized, sites sorted).
func (p Plan) String() string {
	parts := []string{fmt.Sprintf("seed=%d", p.Seed)}
	sites := make([]Site, 0, len(p.Rules))
	for s := range p.Rules {
		sites = append(sites, s)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	for _, s := range sites {
		r := p.Rules[s]
		var v string
		if r.Nth > 0 {
			v = fmt.Sprintf("@%d", r.Nth)
		} else {
			v = strconv.FormatFloat(r.Prob, 'g', -1, 64)
		}
		if r.Limit > 0 {
			v += "/" + strconv.FormatUint(r.Limit, 10)
		}
		parts = append(parts, fmt.Sprintf("%s=%s", s, v))
	}
	return strings.Join(parts, ",")
}

// siteState is the per-site decision stream and counters.
type siteState struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rule  Rule
	armed bool
	hits  atomic.Uint64
	fires atomic.Uint64
}

// Plane is an armed fault-injection plan. The zero value and the nil
// pointer are both valid, permanently-disabled planes.
type Plane struct {
	// enabled is the single hot-path gate: when false (or the Plane is
	// nil), Fire returns false after one atomic load.
	enabled atomic.Bool
	seed    int64
	sites   [numSites]siteState
}

// NewPlane arms a plan. Sites without a rule never fire. Each site draws
// from its own deterministic stream seeded from (plan seed, site), so
// adding instrumentation at one site never perturbs another site's
// decisions.
func NewPlane(plan Plan) *Plane {
	p := &Plane{seed: plan.Seed}
	armed := false
	for s := Site(0); s < numSites; s++ {
		st := &p.sites[s]
		if rule, ok := plan.Rules[s]; ok && (rule.Prob > 0 || rule.Nth > 0) {
			st.rule = rule
			st.armed = true
			armed = true
		}
		st.rng = rand.New(rand.NewSource(plan.Seed*1_000_003 + int64(s)*7_919 + 1))
	}
	p.enabled.Store(armed)
	return p
}

// Seed reports the plan seed the plane was armed with.
func (p *Plane) Seed() int64 {
	if p == nil {
		return 0
	}
	return p.seed
}

// Enabled reports whether any site is armed.
func (p *Plane) Enabled() bool { return p != nil && p.enabled.Load() }

// SetEnabled pauses or resumes the whole plane without losing counters.
func (p *Plane) SetEnabled(on bool) {
	if p != nil {
		p.enabled.Store(on)
	}
}

// Fire reports whether this hit of site s should fail. It is safe on a nil
// plane (never fires) and safe for concurrent use; when the plane is
// disabled the cost is one atomic load.
func (p *Plane) Fire(s Site) bool {
	if p == nil || !p.enabled.Load() {
		return false
	}
	st := &p.sites[s]
	if !st.armed {
		return false
	}
	hit := st.hits.Add(1)
	st.mu.Lock()
	rule := st.rule
	fired := false
	switch {
	case rule.Limit > 0 && st.fires.Load() >= rule.Limit:
	case rule.Nth > 0:
		fired = hit == rule.Nth
	default:
		fired = st.rng.Float64() < rule.Prob
	}
	if fired {
		st.fires.Add(1)
	}
	st.mu.Unlock()
	return fired
}

// Hits reports how many times site s has been consulted.
func (p *Plane) Hits(s Site) uint64 {
	if p == nil {
		return 0
	}
	return p.sites[s].hits.Load()
}

// Fires reports how many times site s has fired.
func (p *Plane) Fires(s Site) uint64 {
	if p == nil {
		return 0
	}
	return p.sites[s].fires.Load()
}

// Summary renders per-site hit/fire counters for reports, skipping sites
// that were never consulted.
func (p *Plane) Summary() string {
	if p == nil {
		return "faults: off"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "faults: seed=%d", p.seed)
	for s := Site(0); s < numSites; s++ {
		hits, fires := p.sites[s].hits.Load(), p.sites[s].fires.Load()
		if hits == 0 && !p.sites[s].armed {
			continue
		}
		fmt.Fprintf(&b, " %s=%d/%d", s, fires, hits)
	}
	return b.String()
}
