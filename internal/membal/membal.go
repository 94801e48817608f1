// Package membal is the kernel memory balancer: a controller that
// continuously redistributes a global memory budget across process
// memlimits using the square-root rule of Kirisame et al., "Optimal Heap
// Limits for Reducing Browser Memory Use" (the MemBalancer policy, same
// Utah lineage as KaffeOS itself).
//
// The rule: give every heap its live size, then split the remaining
// budget in proportion to √(live × allocation-rate). Under a fixed total
// budget this minimizes the sum of GC time across heaps — a heap's
// collection frequency is its allocation rate divided by its headroom,
// and each collection costs time proportional to its live size, so the
// marginal value of one extra byte of headroom is equalized across heaps
// exactly when headroom ∝ √(live × rate). Heavy allocators get room to
// breathe; idle tenants are squeezed to their live size so the memory
// works where the garbage is.
//
// The package is computational + a thin applier: Limits is the pure,
// table-testable math; Controller snapshots (live, alloc-rate) readings,
// runs Limits, and applies the result through memlimit.SetMaxClamped.
// It imports only leaf packages (memlimit, telemetry, faults), so core
// and serve can both drive it without cycles.
package membal

import (
	"math"
	"sort"

	"repro/internal/faults"
	"repro/internal/memlimit"
	"repro/internal/telemetry"
)

// Sample is one heap's controller input: its live size, its allocation
// rate, and the bounds the computed limit must respect.
type Sample struct {
	// Live is the heap's live bytes at the snapshot.
	Live uint64
	// Rate is the heap's allocation rate in bytes per virtual cycle.
	Rate float64
	// Floor is the minimum limit ever assigned (0 = no floor). A tenant
	// always keeps max(Live, Floor) even when the budget is overcommitted.
	Floor uint64
	// Ceil caps the assigned limit (0 = no cap); the excess is
	// redistributed to the other heaps by weight.
	Ceil uint64
}

// Limits computes square-root-rule limits for the sampled heaps under one
// global budget. Every heap is first granted its base = max(Live, Floor);
// the remaining pool E = budget − Σbase (zero when the budget is already
// overcommitted — bases are never cut) is then split proportional to
// w_i = √(Live_i × Rate_i). When every weight is zero (all heaps idle, or
// the first round before any rate is known) the pool is split evenly.
// Ceilings are honored by water-filling: a capped heap's unused share is
// redistributed among the uncapped ones. Integer rounding residue goes to
// the heaviest-weighted uncapped heap (first by index on ties), so
// Σlimits == budget exactly whenever budget ≥ Σbase and no ceiling binds.
func Limits(budget uint64, samples []Sample) []uint64 {
	n := len(samples)
	if n == 0 {
		return nil
	}
	limits := make([]uint64, n)
	weights := make([]float64, n)
	var sumBase uint64
	allZero := true
	for i, s := range samples {
		base := s.Live
		if s.Floor > base {
			base = s.Floor
		}
		if s.Ceil != 0 && base > s.Ceil {
			base = s.Ceil
		}
		limits[i] = base
		sumBase += base
		weights[i] = math.Sqrt(float64(s.Live) * s.Rate)
		if weights[i] > 0 {
			allZero = false
		}
	}
	if budget <= sumBase {
		return limits
	}
	pool := budget - sumBase
	if allZero {
		for i := range weights {
			weights[i] = 1
		}
	}
	// Water-fill: distribute the pool by weight; anything a ceiling
	// refuses is pooled again for the remaining heaps.
	open := make([]int, 0, n)
	for i := range samples {
		if weights[i] > 0 {
			open = append(open, i)
		}
	}
	for pool > 0 && len(open) > 0 {
		var totalW float64
		for _, i := range open {
			totalW += weights[i]
		}
		granted := uint64(0)
		next := open[:0]
		heaviest := -1
		for _, i := range open {
			share := uint64(float64(pool) * (weights[i] / totalW))
			room := uint64(math.MaxUint64)
			if c := samples[i].Ceil; c != 0 {
				room = c - limits[i]
			}
			if share >= room {
				limits[i] += room
				granted += room
				continue // capped: out of the next round
			}
			limits[i] += share
			granted += share
			next = append(next, i)
			if heaviest < 0 || weights[i] > weights[heaviest] {
				heaviest = i
			}
		}
		if granted == 0 {
			// Nothing moved (pool smaller than every rounding step):
			// hand the residue to the heaviest open heap and stop.
			if heaviest >= 0 {
				room := uint64(math.MaxUint64)
				if c := samples[heaviest].Ceil; c != 0 {
					room = c - limits[heaviest]
				}
				if pool < room {
					room = pool
				}
				limits[heaviest] += room
			}
			break
		}
		pool -= granted
		if len(next) == len(open) && pool > 0 {
			// No ceiling bound this round; what is left is rounding
			// residue. Give it to the heaviest weight and finish.
			room := uint64(math.MaxUint64)
			if c := samples[heaviest].Ceil; c != 0 {
				room = c - limits[heaviest]
			}
			if pool < room {
				room = pool
			}
			limits[heaviest] += room
			break
		}
		open = next
	}
	return limits
}

// SqrtExtra is the single-heap (controller-less) form of the rule: the
// headroom to grant a heap above its live size, √(live × rate × horizon).
// horizon, in cycles, is the tuning constant trading memory for GC time —
// it is the window over which rate × horizon bytes of allocation are
// "expected", so a heap gets the geometric mean of its live size and its
// near-future allocation volume. Falls back to live (the classic 2×
// growth trigger) when the rate is unknown or zero, so a heap with no
// history behaves exactly like the legacy trigger.
func SqrtExtra(live uint64, rate float64, horizon uint64) uint64 {
	if rate <= 0 || horizon == 0 || live == 0 {
		return live
	}
	return uint64(math.Sqrt(float64(live) * rate * float64(horizon)))
}

// GCPercentFloor is GCPercent's floor: the Go runtime's default GOGC, at
// which a heap may grow by its live size before it is collected.
const GCPercentFloor = 100

// GCPercent is the rule one level down, for a host heap paced by a growth
// percentage (the Go runtime's GOGC): the percentage at which the host
// collector's next goal is live + SqrtExtra(live, rate, horizon), for a
// heap of live bytes allocating rate bytes per unit of horizon. At
// percentage p the Go runtime's goal is max(live × (1 + p/100),
// minHeap × p/100) — its heap minimum (4 MiB at p = 100) scales with p —
// so the percentage is the smaller of the two that reach the goal. It is
// never below GCPercentFloor, which a heap with no history (zero live or
// rate) gets.
func GCPercent(live uint64, rate float64, horizon, minHeap uint64) int {
	if live == 0 {
		return GCPercentFloor
	}
	extra := SqrtExtra(live, rate, horizon)
	p := 100 * extra / live
	if minHeap > 0 {
		p = min(p, 100*(live+extra)/minHeap)
	}
	return max(GCPercentFloor, int(p))
}

// Target is one controlled heap: the memlimit to resize plus the raw
// readings the controller turns into a Sample.
type Target struct {
	// ID keys the rate tracker — stable for the process' lifetime (pid).
	// A restarted tenant arrives under a fresh pid and starts cold.
	ID int32
	// Limit is the memlimit node whose maximum the controller sets.
	Limit *memlimit.Limit
	// Live is the heap's live bytes.
	Live uint64
	// AllocBytes is the heap's cumulative allocated-bytes counter; the
	// controller differentiates it against the virtual clock for the rate.
	AllocBytes uint64
	// Floor optionally overrides the controller's per-heap floor.
	Floor uint64
}

// Applied is one heap's outcome of a rebalance round.
type Applied struct {
	ID int32
	// Trigger is the computed square-root limit in heap-live-bytes terms —
	// the size at which the heap should next be collected.
	Trigger uint64
	// Max is the memlimit maximum actually installed: Trigger + Slack,
	// clamped up to the limit's in-flight use (see SetMaxClamped).
	Max uint64
}

// Controller periodically redistributes Budget across a set of targets.
// It is not goroutine-safe: exactly one goroutine (the VM's scheduler
// driver — in the serving plane, the owning shard's engine goroutine)
// calls Rebalance, matching the ownership discipline of everything else
// that touches a VM.
type Controller struct {
	// Budget is the global byte budget spread across all targets.
	Budget uint64
	// Floor is the default per-heap minimum limit (default 256 KiB).
	Floor uint64
	// Slack is added to each computed limit when setting the memlimit
	// maximum, covering the standing 64 KiB allocation lease and the
	// non-heap charges (entry/exit items, shared-heap attachments) that
	// share the limit with live bytes (default 128 KiB).
	Slack uint64
	// Sink, when set, receives one EvMemRebalance event per round.
	Sink telemetry.Sink
	// Scope, when set, carries the membal.* metrics (kernel scope of the
	// controlled VM).
	Scope *telemetry.Scope
	// Faults, when set, lets the injection plane abort a round mid-
	// redistribution (SiteMemBalance): only a prefix of the round's
	// updates is applied, exactly what a controller crash between two
	// SetMax calls would leave behind.
	Faults *faults.Plane

	prev   map[int32]rateState
	rounds uint64
}

type rateState struct {
	alloc  uint64
	cycles uint64
	rate   float64
}

func (c *Controller) floorFor(t Target) uint64 {
	if t.Floor != 0 {
		return t.Floor
	}
	if c.Floor != 0 {
		return c.Floor
	}
	return 256 << 10
}

func (c *Controller) slack() uint64 {
	if c.Slack != 0 {
		return c.Slack
	}
	return 128 << 10
}

// Rounds reports how many rebalance rounds have completed.
func (c *Controller) Rounds() uint64 { return c.rounds }

// Rebalance runs one controller round at virtual time now: estimate each
// target's allocation rate, compute square-root limits under Budget, and
// install them. Shrinks are applied before grows so that, on hard-limit
// trees, the parent's pool is never transiently over-committed by the
// reorder. Returns what was applied (a prefix of the targets when the
// fault plane cut the round short).
func (c *Controller) Rebalance(now uint64, targets []Target) []Applied {
	if len(targets) == 0 {
		return nil
	}
	if c.prev == nil {
		c.prev = make(map[int32]rateState)
	}
	samples := make([]Sample, len(targets))
	seen := make(map[int32]bool, len(targets))
	var sumLive uint64
	for i, t := range targets {
		seen[t.ID] = true
		rate := 0.0
		if pv, ok := c.prev[t.ID]; ok {
			if now > pv.cycles && t.AllocBytes >= pv.alloc {
				// EWMA-smooth the instantaneous rate so one quiet or
				// bursty interval does not whipsaw the split.
				inst := float64(t.AllocBytes-pv.alloc) / float64(now-pv.cycles)
				rate = (inst + pv.rate) / 2
			} else {
				rate = pv.rate
			}
		}
		c.prev[t.ID] = rateState{alloc: t.AllocBytes, cycles: now, rate: rate}
		samples[i] = Sample{Live: t.Live, Rate: rate, Floor: c.floorFor(t)}
		sumLive += t.Live
	}
	for id := range c.prev {
		if !seen[id] {
			delete(c.prev, id) // reclaimed process; a restart is a new pid
		}
	}
	limits := Limits(c.Budget, samples)

	// Apply in shrink-first order (stable, so the fault cut point is
	// deterministic for a deterministic target order).
	order := make([]int, len(targets))
	for i := range order {
		order[i] = i
	}
	slack := c.slack()
	shrinks := func(i int) bool { return limits[i]+slack < targets[i].Limit.Max() }
	sort.SliceStable(order, func(a, b int) bool {
		return shrinks(order[a]) && !shrinks(order[b])
	})
	cut := len(order)
	partial := false
	if c.Faults.Fire(faults.SiteMemBalance) {
		cut = (len(order) + 1) / 2
		partial = true
	}

	out := make([]Applied, 0, cut)
	clamped := uint64(0)
	for _, i := range order[:cut] {
		want := limits[i] + slack
		got := targets[i].Limit.SetMaxClamped(want)
		if got > want {
			clamped++
		}
		out = append(out, Applied{ID: targets[i].ID, Trigger: limits[i], Max: got})
	}
	c.rounds++

	if c.Scope != nil {
		c.Scope.Counter(telemetry.MMemBalRounds).Inc()
		c.Scope.Gauge(telemetry.MMemBalBudget).Set(c.Budget)
		extra := uint64(0)
		if c.Budget > sumLive {
			extra = c.Budget - sumLive
		}
		c.Scope.Gauge(telemetry.MMemBalExtra).Set(extra)
		if clamped > 0 {
			c.Scope.Counter(telemetry.MMemBalClamped).Add(clamped)
		}
		if partial {
			c.Scope.Counter(telemetry.MMemBalPartial).Inc()
		}
	}
	if c.Sink != nil {
		detail := ""
		if partial {
			detail = "partial"
		}
		c.Sink.Emit(telemetry.Event{
			Kind: telemetry.EvMemRebalance,
			A:    c.Budget, B: uint64(len(out)), Detail: detail,
		})
	}
	return out
}
