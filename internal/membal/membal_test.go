package membal

import (
	"math"
	"testing"

	"repro/internal/faults"
	"repro/internal/memlimit"
	"repro/internal/telemetry"
)

func sum(xs []uint64) uint64 {
	var t uint64
	for _, x := range xs {
		t += x
	}
	return t
}

// TestLimitsTable drives the square-root rule through its fixtures: the
// edge cases the controller meets in production (idle fleet, single
// tenant, overcommitted budget, binding ceilings) plus the proportionality
// property the rule is named for.
func TestLimitsTable(t *testing.T) {
	const M = 1 << 20
	cases := []struct {
		name    string
		budget  uint64
		samples []Sample
		want    []uint64 // exact expected limits; nil to use check instead
		check   func(t *testing.T, got []uint64)
	}{
		{
			name:    "no heaps",
			budget:  64 * M,
			samples: nil,
			want:    nil,
		},
		{
			name:   "single tenant gets the whole budget",
			budget: 64 * M,
			samples: []Sample{
				{Live: 4 * M, Rate: 100},
			},
			want: []uint64{64 * M},
		},
		{
			name:   "zero rates split the surplus evenly",
			budget: 12 * M,
			samples: []Sample{
				{Live: 2 * M}, {Live: 2 * M}, {Live: 2 * M},
			},
			want: []uint64{4 * M, 4 * M, 4 * M},
		},
		{
			name:   "zero-rate heap is squeezed to its base",
			budget: 12 * M,
			samples: []Sample{
				{Live: 2 * M, Rate: 100},
				{Live: 2 * M, Rate: 0}, // idle: weight √(live×0) = 0
			},
			check: func(t *testing.T, got []uint64) {
				if got[1] != 2*M {
					t.Errorf("idle heap got %d, want its live size %d", got[1], 2*M)
				}
				if got[0] != 10*M {
					t.Errorf("busy heap got %d, want the rest %d", got[0], 10*M)
				}
			},
		},
		{
			name:   "budget smaller than sum of floors keeps every floor",
			budget: 1 * M,
			samples: []Sample{
				{Live: 100, Floor: 1 * M, Rate: 50},
				{Live: 100, Floor: 1 * M, Rate: 50},
				{Live: 100, Floor: 1 * M},
			},
			want: []uint64{1 * M, 1 * M, 1 * M}, // overcommitted: floors win
		},
		{
			name:   "budget smaller than sum of live never cuts live",
			budget: 4 * M,
			samples: []Sample{
				{Live: 3 * M, Rate: 10},
				{Live: 3 * M, Rate: 1000},
			},
			want: []uint64{3 * M, 3 * M},
		},
		{
			name:   "floor lifts a small heap above its live size",
			budget: 8 * M,
			samples: []Sample{
				{Live: 64, Floor: 1 * M},
				{Live: 6 * M, Rate: 500},
			},
			check: func(t *testing.T, got []uint64) {
				if got[0] < 1*M {
					t.Errorf("floored heap got %d, want >= %d", got[0], 1*M)
				}
				if s := sum(got); s != 8*M {
					t.Errorf("sum %d, want budget %d", s, 8*M)
				}
			},
		},
		{
			name:   "ceiling binds and the excess spills to the other heap",
			budget: 16 * M,
			samples: []Sample{
				{Live: 2 * M, Rate: 100, Ceil: 3 * M},
				{Live: 2 * M, Rate: 100},
			},
			want: []uint64{3 * M, 13 * M},
		},
		{
			name:   "all ceilings bind below the budget",
			budget: 64 * M,
			samples: []Sample{
				{Live: 1 * M, Rate: 10, Ceil: 2 * M},
				{Live: 1 * M, Rate: 10, Ceil: 2 * M},
			},
			want: []uint64{2 * M, 2 * M}, // rest of the budget is unassignable
		},
		{
			name:   "equal heaps split equally",
			budget: 20 * M,
			samples: []Sample{
				{Live: 2 * M, Rate: 77},
				{Live: 2 * M, Rate: 77},
			},
			want: []uint64{10 * M, 10 * M},
		},
		{
			name:   "conservation with mixed weights",
			budget: 100 * M,
			samples: []Sample{
				{Live: 1 * M, Rate: 3},
				{Live: 7 * M, Rate: 900},
				{Live: 2 * M, Rate: 0},
				{Live: 11 * M, Rate: 42},
			},
			check: func(t *testing.T, got []uint64) {
				if s := sum(got); s != 100*M {
					t.Errorf("sum %d, want budget %d", s, 100*M)
				}
				for i, g := range got {
					if g < 1*M && g < 100*M/8 {
						t.Errorf("heap %d got %d, implausibly small", i, g)
					}
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Limits(tc.budget, tc.samples)
			if tc.check != nil {
				tc.check(t, got)
				return
			}
			if len(got) != len(tc.want) {
				t.Fatalf("got %d limits, want %d", len(got), len(tc.want))
			}
			for i := range tc.want {
				if got[i] != tc.want[i] {
					t.Errorf("heap %d: got %d, want %d (all: %v)", i, got[i], tc.want[i], got)
				}
			}
		})
	}
}

// TestLimitsSqrtProportional checks the defining property: surplus
// headroom above live is split in proportion to √(live × rate).
func TestLimitsSqrtProportional(t *testing.T) {
	const M = 1 << 20
	samples := []Sample{
		{Live: 1 * M, Rate: 100},
		{Live: 4 * M, Rate: 100}, // √(4·r) = 2×√(1·r): twice the headroom
	}
	got := Limits(15*M, samples)
	e0 := float64(got[0] - samples[0].Live)
	e1 := float64(got[1] - samples[1].Live)
	if ratio := e1 / e0; math.Abs(ratio-2) > 0.01 {
		t.Errorf("headroom ratio %.4f, want 2 (sqrt rule): extras %v/%v", ratio, e0, e1)
	}
}

// TestLimitsNeverBelowBase: no matter the budget, a heap's limit is never
// below max(Live, Floor) capped by Ceil — the controller must never hand a
// process a limit its own live data already violates.
func TestLimitsNeverBelowBase(t *testing.T) {
	samples := []Sample{
		{Live: 1 << 20, Floor: 256 << 10, Rate: 17},
		{Live: 10 << 20, Floor: 256 << 10, Rate: 0},
		{Live: 0, Floor: 256 << 10, Rate: 5},
	}
	for _, budget := range []uint64{0, 1, 256 << 10, 1 << 20, 11 << 20, 1 << 30} {
		got := Limits(budget, samples)
		for i, s := range samples {
			base := s.Live
			if s.Floor > base {
				base = s.Floor
			}
			if got[i] < base {
				t.Errorf("budget %d: heap %d got %d < base %d", budget, i, got[i], base)
			}
		}
	}
}

func TestSqrtExtra(t *testing.T) {
	// Unknown rate degrades to the classic 2× trigger (extra == live).
	if got := SqrtExtra(1<<20, 0, 1<<26); got != 1<<20 {
		t.Errorf("zero rate: extra %d, want live %d", got, 1<<20)
	}
	if got := SqrtExtra(1<<20, -1, 1<<26); got != 1<<20 {
		t.Errorf("negative rate: extra %d, want live %d", got, 1<<20)
	}
	if got := SqrtExtra(1<<20, 0.5, 0); got != 1<<20 {
		t.Errorf("zero horizon: extra %d, want live %d", got, 1<<20)
	}
	if got := SqrtExtra(0, 0.5, 1<<26); got != 0 {
		t.Errorf("zero live: extra %d, want 0", got)
	}
	// √(1 MiB × 1 B/cycle × 64 Mi cycles) = √(2^20 · 2^26) = 2^23.
	if got := SqrtExtra(1<<20, 1, 1<<26); got != 1<<23 {
		t.Errorf("extra %d, want %d", got, 1<<23)
	}
	// Quadrupling the rate doubles the headroom.
	a := SqrtExtra(1<<20, 1, 1<<26)
	b := SqrtExtra(1<<20, 4, 1<<26)
	if b != 2*a {
		t.Errorf("4x rate: extra %d, want 2x of %d", b, a)
	}
}

func TestGCPercent(t *testing.T) {
	const mib = 1 << 20
	for _, c := range []struct {
		name             string
		live             uint64
		rate             float64
		horizon, minHeap uint64
		want             int
	}{
		{"zero live", 0, 1e9, 1 << 30, 0, GCPercentFloor},
		{"zero rate", 8 * mib, 0, 1 << 30, 0, GCPercentFloor},
		{"negative rate", 8 * mib, -1, 1 << 30, 0, GCPercentFloor},
		{"zero horizon", 8 * mib, 1, 0, 0, GCPercentFloor},
		// √(4 MiB × 1 B/unit × 1 Mi units) = 2 MiB = 50 % of live: floored.
		{"below the floor", 4 * mib, 1, mib, 0, GCPercentFloor},
		// √(1 MiB × 1 × 1 Mi) = 1 MiB = live: exactly the floor.
		{"at the floor", mib, 1, mib, 0, 100},
		// √(1 MiB × 4 × 1 Mi) = 2 MiB.
		{"4x rate", mib, 4, mib, 0, 200},
		// √(1 MiB × 16 × 1 Mi) = 4 MiB.
		{"16x rate", mib, 16, mib, 0, 400},
		// √(4 MiB × 16 × 1 Mi) = 8 MiB = 200 % of a 4x live heap.
		{"4x live", 4 * mib, 16, mib, 0, 200},
		// Goal 1 + 4 = 5 MiB: a 4 MiB heap minimum reaches it at 125 %,
		// before live × (1 + p) does at 400 %.
		{"heap minimum binds", mib, 16, mib, 4 * mib, 125},
		// Goal 16 + 32 = 48 MiB: live × 3 reaches it at 200 %, before
		// the heap minimum does at 1200 %.
		{"live binds", 16 * mib, 64, mib, 4 * mib, 200},
		// Goal 1 + 2 = 3 MiB is below the heap minimum at any percent.
		{"heap minimum floored", mib, 4, mib, 4 * mib, GCPercentFloor},
	} {
		if got := GCPercent(c.live, c.rate, c.horizon, c.minHeap); got != c.want {
			t.Errorf("%s: GCPercent(%d, %g, %d, %d) = %d, want %d", c.name, c.live, c.rate, c.horizon, c.minHeap, got, c.want)
		}
	}
}

// harness builds a root + n child limits for controller tests.
func harness(t *testing.T, n int, childMax uint64) (*memlimit.Limit, []*memlimit.Limit) {
	t.Helper()
	root := memlimit.NewRoot("root", 1<<30)
	kids := make([]*memlimit.Limit, n)
	for i := range kids {
		l, err := root.NewChild("t", childMax, false)
		if err != nil {
			t.Fatal(err)
		}
		kids[i] = l
	}
	return root, kids
}

func TestControllerRebalance(t *testing.T) {
	const M = 1 << 20
	_, kids := harness(t, 3, 4*M)
	c := &Controller{Budget: 24 * M}

	mkTargets := func(allocs [3]uint64) []Target {
		ts := make([]Target, 3)
		for i := range ts {
			ts[i] = Target{ID: int32(i + 1), Limit: kids[i], Live: 1 * M, AllocBytes: allocs[i]}
		}
		return ts
	}

	// Round 1: no history, even split of the surplus.
	out := c.Rebalance(1000, mkTargets([3]uint64{0, 0, 0}))
	if len(out) != 3 {
		t.Fatalf("round 1 applied %d, want 3", len(out))
	}
	if c.Rounds() != 1 {
		t.Fatalf("rounds %d, want 1", c.Rounds())
	}
	for _, a := range out {
		if a.Trigger != 8*M {
			t.Errorf("round 1: tenant %d trigger %d, want even split %d", a.ID, a.Trigger, 8*M)
		}
	}

	// Round 2: tenant 3 allocated heavily; its limit must now dominate.
	out = c.Rebalance(2000, mkTargets([3]uint64{1000, 1000, 10 * M}))
	byID := map[int32]Applied{}
	for _, a := range out {
		byID[a.ID] = a
	}
	if byID[3].Trigger <= byID[1].Trigger {
		t.Errorf("hot tenant trigger %d not above cold %d", byID[3].Trigger, byID[1].Trigger)
	}
	// The memlimit maxima were actually installed (trigger + slack).
	if got := kids[2].Max(); got != byID[3].Trigger+c.slack() {
		t.Errorf("installed max %d, want trigger+slack %d", got, byID[3].Trigger+c.slack())
	}

	// A vanished tenant's rate state is pruned.
	out = c.Rebalance(3000, mkTargets([3]uint64{2000, 2000, 20 * M})[:2])
	if len(out) != 2 {
		t.Fatalf("round 3 applied %d, want 2", len(out))
	}
	if _, ok := c.prev[3]; ok {
		t.Error("reclaimed tenant's rate state not pruned")
	}
}

// TestControllerClampsToUse: a shrink below a limit's in-flight use clamps
// up to the use instead of failing, and the clamp is counted.
func TestControllerClampsToUse(t *testing.T) {
	const M = 1 << 20
	_, kids := harness(t, 2, 8*M)
	if err := kids[0].Debit(6 * M); err != nil { // in-flight use above any fair share
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	c := &Controller{Budget: 4 * M, Scope: reg.Kernel()}
	out := c.Rebalance(1000, []Target{
		{ID: 1, Limit: kids[0], Live: 64, AllocBytes: 0},
		{ID: 2, Limit: kids[1], Live: 64, AllocBytes: 0},
	})
	var got Applied
	for _, a := range out {
		if a.ID == 1 {
			got = a
		}
	}
	if got.Max < 6*M {
		t.Errorf("clamped max %d below in-flight use %d", got.Max, 6*M)
	}
	if kids[0].Max() < kids[0].Use() {
		t.Errorf("limit left with max %d < use %d", kids[0].Max(), kids[0].Use())
	}
	if n := reg.Kernel().Counter(telemetry.MMemBalClamped).Value(); n == 0 {
		t.Error("clamp not counted in membal.clamped")
	}
}

// TestControllerFaultCutsRound: with SiteMemBalance armed at round 1, only
// a prefix of the updates is applied, the round is flagged partial, and the
// next (unfaulted) round re-converges every limit.
func TestControllerFaultCutsRound(t *testing.T) {
	const M = 1 << 20
	_, kids := harness(t, 4, 4*M)
	plan, err := faults.ParsePlan("seed=1,membal.rebalance=@1")
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	c := &Controller{Budget: 32 * M, Faults: faults.NewPlane(plan), Scope: reg.Kernel()}
	targets := make([]Target, 4)
	for i := range targets {
		targets[i] = Target{ID: int32(i + 1), Limit: kids[i], Live: 1 * M}
	}

	out := c.Rebalance(1000, targets)
	if len(out) != 2 {
		t.Fatalf("faulted round applied %d updates, want prefix of 2", len(out))
	}
	if n := reg.Kernel().Counter(telemetry.MMemBalPartial).Value(); n != 1 {
		t.Errorf("membal.partial = %d, want 1", n)
	}
	// Invariant even mid-crash: no limit is left with use > max.
	for i, l := range kids {
		if l.Use() > l.Max() {
			t.Errorf("tenant %d: use %d > max %d after partial round", i, l.Use(), l.Max())
		}
	}

	// Site was @1 (one-shot): the next round applies everything.
	out = c.Rebalance(2000, targets)
	if len(out) != 4 {
		t.Fatalf("recovery round applied %d, want 4", len(out))
	}
	for i, l := range kids {
		if l.Max() != 8*M+c.slack() {
			t.Errorf("tenant %d: max %d after recovery, want %d", i, l.Max(), 8*M+c.slack())
		}
	}
}

// TestControllerRateEWMA: the rate estimate smooths instantaneous readings
// instead of tracking them exactly.
func TestControllerRateEWMA(t *testing.T) {
	const M = 1 << 20
	_, kids := harness(t, 1, 4*M)
	c := &Controller{Budget: 64 * M}
	mk := func(alloc uint64) []Target {
		return []Target{{ID: 1, Limit: kids[0], Live: M, AllocBytes: alloc}}
	}
	c.Rebalance(1000, mk(0))
	c.Rebalance(2000, mk(1000)) // inst rate 1.0 -> EWMA 0.5
	if r := c.prev[1].rate; math.Abs(r-0.5) > 1e-9 {
		t.Errorf("rate after first interval %v, want 0.5", r)
	}
	c.Rebalance(3000, mk(1000)) // inst 0 -> EWMA 0.25
	if r := c.prev[1].rate; math.Abs(r-0.25) > 1e-9 {
		t.Errorf("rate after idle interval %v, want 0.25", r)
	}
	// A clock that did not advance keeps the previous estimate.
	c.Rebalance(3000, mk(5000))
	if r := c.prev[1].rate; math.Abs(r-0.25) > 1e-9 {
		t.Errorf("rate after zero-width interval %v, want unchanged 0.25", r)
	}
}

// TestControllerEmitsEvent: each round lands one EvMemRebalance in the sink.
func TestControllerEmitsEvent(t *testing.T) {
	const M = 1 << 20
	_, kids := harness(t, 1, 4*M)
	hub := telemetry.NewHub(16)
	hub.SetTracing(true)
	c := &Controller{Budget: 8 * M, Sink: hub}
	c.Rebalance(1000, []Target{{ID: 1, Limit: kids[0], Live: M}})
	evs := hub.Trace.Snapshot()
	found := false
	for _, e := range evs {
		if e.Kind == telemetry.EvMemRebalance {
			found = true
			if e.A != 8*M || e.B != 1 {
				t.Errorf("event payload A=%d B=%d, want budget %d and 1 update", e.A, e.B, 8*M)
			}
		}
	}
	if !found {
		t.Fatalf("no EvMemRebalance in %d events", len(evs))
	}
}

// One controller round runs on the engine goroutine between request
// quanta. Its Go allocations (the estimates, the split, the Applied
// slice) stay under ⌊1.15 × the count measured when the ceiling was set⌋.
func TestRebalanceAllocationCeiling(t *testing.T) {
	for _, c := range []struct {
		tenants int
		max     float64
	}{{8, 9}, {64, 12}} {
		root := memlimit.NewRoot("root", memlimit.Unlimited)
		ctl := &Controller{Budget: uint64(c.tenants) * (4 << 20)}
		targets := make([]Target, c.tenants)
		for i := range targets {
			live := uint64(256+(i%32)*64) << 10
			targets[i] = Target{ID: int32(i), Limit: root.MustChild("t", 4<<20, false), Live: live}
			if err := targets[i].Limit.Debit(live); err != nil {
				t.Fatal(err)
			}
		}
		var now uint64
		n := testing.AllocsPerRun(50, func() {
			for j := range targets {
				targets[j].AllocBytes += uint64(1+j%7) << 12 // skewed, so the split keeps moving
			}
			now += 100_000
			ctl.Rebalance(now, targets)
		})
		t.Logf("%d tenants: %v allocations per round", c.tenants, n)
		if n > c.max {
			t.Errorf("%d tenants: %v Go allocations per round, ceiling %v", c.tenants, n, c.max)
		}
	}
}
