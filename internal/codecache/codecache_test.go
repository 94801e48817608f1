package codecache

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/interp"
	"repro/internal/memlimit"
	"repro/internal/shared"
	"repro/internal/telemetry"
)

func testManager(t *testing.T) (*Manager, *memlimit.Limit) {
	t.Helper()
	root := memlimit.NewRoot("vm", 1<<30)
	base, err := root.NewChild("codecache", memlimit.Unlimited, false)
	if err != nil {
		t.Fatal(err)
	}
	return NewManager(new(shared.Ledger), base), root
}

func testKey(b byte, variant string) Key {
	var h [32]byte
	h[0] = b
	return Key{ModuleHash: h, Variant: variant}
}

func sharerLimit(t *testing.T, root *memlimit.Limit, name string) *memlimit.Limit {
	t.Helper()
	lim, err := root.NewChild(name, 16<<20, false)
	if err != nil {
		t.Fatal(err)
	}
	return lim
}

// Full-charging: every sharer pays the whole artifact size while
// attached, and the last detach credits back exactly the charged bytes.
func TestAttachDetachExactCharges(t *testing.T) {
	m, root := testManager(t)
	prog := interp.SyntheticProgram(10, 100)
	a, err := m.Insert(testKey(1, "jit"), "mod", prog)
	if err != nil {
		t.Fatal(err)
	}
	if a.Size != prog.Size() || a.Size == 0 {
		t.Fatalf("artifact size %d, program %d", a.Size, prog.Size())
	}
	if got := m.base.Use(); got != a.Size {
		t.Fatalf("base use %d after insert, want %d", got, a.Size)
	}

	limA := sharerLimit(t, root, "proc:a")
	limB := sharerLimit(t, root, "proc:b")
	whoA, whoB := new(int), new(int)
	if err := m.book.Attach(&a.Entry, whoA, limA); err != nil {
		t.Fatal(err)
	}
	if err := m.book.Attach(&a.Entry, whoA, limA); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := m.book.Attach(&a.Entry, whoB, limB); err != nil {
		t.Fatal(err)
	}
	if limA.Use() != a.Size || limB.Use() != a.Size {
		t.Fatalf("sharers charged %d/%d, want %d each (full charging, not 1/n)",
			limA.Use(), limB.Use(), a.Size)
	}
	if got := m.book.BytesFor(whoA, shared.KindCode); got != a.Size {
		t.Fatalf("BytesFor = %d, want %d", got, a.Size)
	}

	m.book.Detach(&a.Entry, whoA)
	if limA.Use() != 0 {
		t.Fatalf("first detach left %d charged", limA.Use())
	}
	if limB.Use() != a.Size {
		t.Fatalf("detaching A disturbed B's charge: %d", limB.Use())
	}
	m.book.Detach(&a.Entry, whoB) // last detach frees exactly the charged bytes
	if limB.Use() != 0 {
		t.Fatalf("last detach left %d charged", limB.Use())
	}
	m.book.Detach(&a.Entry, whoB) // detaching a non-sharer is a no-op
	if got := m.base.Use(); got != a.Size {
		t.Fatalf("base use %d after detaches, want %d (residency is independent of sharers)", got, a.Size)
	}
	limA.Release()
	limB.Release()
}

// Insert is idempotent per key: a racing duplicate is discarded without
// double-charging the base limit.
func TestInsertDuplicateKey(t *testing.T) {
	m, _ := testManager(t)
	p1 := interp.SyntheticProgram(5, 50)
	a1, err := m.Insert(testKey(1, "jit"), "mod", p1)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := m.Insert(testKey(1, "jit"), "mod", interp.SyntheticProgram(5, 50))
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("duplicate insert returned a different artifact")
	}
	if got := m.base.Use(); got != p1.Size() {
		t.Fatalf("base use %d, want %d (no double charge)", got, p1.Size())
	}
	if len(m.Artifacts()) != 1 {
		t.Fatalf("%d artifacts, want 1", len(m.Artifacts()))
	}
}

// Distinct engine variants of the same module are distinct artifacts.
func TestVariantsAreDistinct(t *testing.T) {
	m, _ := testManager(t)
	for _, v := range []string{"jit", "jit+fuse", "jit+ic", "jit+fuse+ic"} {
		if _, err := m.Insert(testKey(7, v), "mod", interp.SyntheticProgram(1, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if len(m.Artifacts()) != 4 {
		t.Fatalf("%d artifacts, want 4 distinct variants", len(m.Artifacts()))
	}
	if _, ok := m.Lookup(testKey(7, "jit+fuse")); !ok {
		t.Fatal("variant lookup missed")
	}
	if _, ok := m.Lookup(testKey(7, "interp")); ok {
		t.Fatal("unknown variant hit")
	}
}

// Eviction under pressure drops only zero-sharer artifacts; an artifact
// with a live sharer is structurally unevictable.
func TestEvictOrphansSparesLiveSharers(t *testing.T) {
	m, root := testManager(t)
	held, err := m.Insert(testKey(1, "jit"), "held", interp.SyntheticProgram(4, 40))
	if err != nil {
		t.Fatal(err)
	}
	orphan, err := m.Insert(testKey(2, "jit"), "orphan", interp.SyntheticProgram(8, 80))
	if err != nil {
		t.Fatal(err)
	}
	lim := sharerLimit(t, root, "proc:a")
	who := new(int)
	if err := m.book.Attach(&held.Entry, who, lim); err != nil {
		t.Fatal(err)
	}

	freed := m.EvictOrphans()
	if freed != orphan.Size {
		t.Fatalf("evicted %d bytes, want %d (the orphan only)", freed, orphan.Size)
	}
	if _, ok := m.Lookup(held.Key); !ok {
		t.Fatal("eviction dropped an artifact with a live sharer")
	}
	if _, ok := m.Lookup(orphan.Key); ok {
		t.Fatal("orphan survived eviction")
	}
	if got := m.base.Use(); got != held.Size {
		t.Fatalf("base use %d after eviction, want %d", got, held.Size)
	}
	if lim.Use() != held.Size {
		t.Fatalf("eviction disturbed a sharer charge: %d", lim.Use())
	}

	// Once the sharer detaches, the artifact becomes evictable.
	m.book.Detach(&held.Entry, who)
	if freed := m.EvictOrphans(); freed != held.Size {
		t.Fatalf("post-detach eviction freed %d, want %d", freed, held.Size)
	}
	if got := m.base.Use(); got != 0 {
		t.Fatalf("base use %d after full eviction, want 0", got)
	}
	lim.Release()
}

// A firing codecache.attach fault leaks zero bytes and zero refcounts.
func TestAttachFaultUnwindsCleanly(t *testing.T) {
	m, root := testManager(t)
	plan, err := faults.ParsePlan("seed=1,codecache.attach=@1")
	if err != nil {
		t.Fatal(err)
	}
	m.book.Faults = faults.NewPlane(plan)
	a, err := m.Insert(testKey(1, "jit"), "mod", interp.SyntheticProgram(3, 30))
	if err != nil {
		t.Fatal(err)
	}
	lim := sharerLimit(t, root, "proc:a")
	who := new(int)

	err = m.book.Attach(&a.Entry, who, lim)
	if !errors.Is(err, shared.ErrAttachFault) {
		t.Fatalf("attach err = %v, want ErrAttachFault", err)
	}
	if lim.Use() != 0 {
		t.Fatalf("aborted attach leaked %d bytes", lim.Use())
	}
	if a.Sharers() != 0 {
		t.Fatalf("aborted attach leaked %d refcount(s)", a.Sharers())
	}

	// The site fired once (@1); the retry succeeds and charges normally.
	if err := m.book.Attach(&a.Entry, who, lim); err != nil {
		t.Fatal(err)
	}
	if lim.Use() != a.Size || a.Sharers() != 1 {
		t.Fatalf("retry charged %d bytes, %d sharers", lim.Use(), a.Sharers())
	}
	m.book.Detach(&a.Entry, who)
	lim.Release()
}

// An attach that overruns the sharer's memlimit charges nothing.
func TestAttachOverLimit(t *testing.T) {
	m, root := testManager(t)
	a, err := m.Insert(testKey(1, "jit"), "mod", interp.SyntheticProgram(100, 10000))
	if err != nil {
		t.Fatal(err)
	}
	lim, err := root.NewChild("proc:tiny", 16, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.book.Attach(&a.Entry, new(int), lim); err == nil {
		t.Fatal("attach fit into a 16-byte limit")
	}
	if lim.Use() != 0 || a.Sharers() != 0 {
		t.Fatalf("failed attach left use=%d sharers=%d", lim.Use(), a.Sharers())
	}
	lim.Release()
}

// Concurrent attach/detach/kill churn under -race: charges stay exact
// and every limit drains to zero.
func TestConcurrentAttachDetachKill(t *testing.T) {
	m, root := testManager(t)
	const artifacts = 4
	const workers = 8
	const rounds = 200

	arts := make([]*Artifact, artifacts)
	for i := range arts {
		a, err := m.Insert(testKey(byte(i+1), "jit"), fmt.Sprintf("mod%d", i), interp.SyntheticProgram(i+1, 10*(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		arts[i] = a
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lim := sharerLimit(t, root, fmt.Sprintf("proc:w%d", w))
			who := new(int)
			for r := 0; r < rounds; r++ {
				a := arts[(w+r)%artifacts]
				switch r % 3 {
				case 0:
					_ = m.book.Attach(&a.Entry, who, lim)
				case 1:
					m.book.Detach(&a.Entry, who)
				case 2: // kill: drop every handle at once
					m.book.DetachAll(who)
				}
			}
			m.book.DetachAll(who)
			if got := lim.Use(); got != 0 {
				t.Errorf("worker %d: %d bytes still charged after DetachAll", w, got)
			}
			lim.Release()
		}(w)
	}
	wg.Wait()

	var want uint64
	for _, a := range arts {
		if n := a.Sharers(); n != 0 {
			t.Errorf("artifact %q still has %d sharer(s)", a.Name, n)
		}
		want += a.Size
	}
	if got := m.base.Use(); got != want {
		t.Fatalf("base use %d after churn, want %d", got, want)
	}
}

// Snapshot produces a consistent charge table the auditor can reconcile.
func TestSnapshotConsistency(t *testing.T) {
	m, root := testManager(t)
	a, err := m.Insert(testKey(1, "jit"), "mod", interp.SyntheticProgram(2, 20))
	if err != nil {
		t.Fatal(err)
	}
	lim := sharerLimit(t, root, "proc:a")
	if err := m.book.Attach(&a.Entry, new(int), lim); err != nil {
		t.Fatal(err)
	}
	m.book.Snapshot(func(infos []shared.ChargeInfo) {
		if len(infos) != 1 {
			t.Fatalf("snapshot has %d artifacts, want 1", len(infos))
		}
		ci := infos[0]
		if ci.Kind != shared.KindCode || ci.Name != "mod" || ci.Home != m.base || ci.Heap != nil || ci.Size != a.Size {
			t.Fatalf("snapshot row %+v", ci)
		}
		if len(ci.Sharers) != 1 || ci.Sharers[0] != lim {
			t.Fatalf("snapshot sharers %v", ci.Sharers)
		}
	})
}

// Metrics: hits/misses/attach/detach/evict counters and residency
// gauges track the manager's state.
func TestMetrics(t *testing.T) {
	m, root := testManager(t)
	scope := telemetry.NewRegistry().Kernel()
	m.book.Metrics = scope

	key := testKey(1, "jit")
	if _, ok := m.Lookup(key); ok {
		t.Fatal("phantom artifact")
	}
	a, err := m.Insert(key, "mod", interp.SyntheticProgram(1, 10))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Lookup(key); !ok {
		t.Fatal("lookup missed after insert")
	}
	lim := sharerLimit(t, root, "proc:a")
	who := new(int)
	if err := m.book.Attach(&a.Entry, who, lim); err != nil {
		t.Fatal(err)
	}
	m.book.Detach(&a.Entry, who)
	m.EvictOrphans()

	for name, want := range map[string]uint64{
		telemetry.MCodeHits:     1,
		telemetry.MCodeMisses:   1,
		telemetry.MCodeAttached: 1,
		telemetry.MCodeDetached: 1,
		telemetry.MCodeEvicted:  1,
	} {
		if got := scope.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := scope.Gauge(telemetry.MCodeResident).Value(); got != 0 {
		t.Errorf("resident gauge %d after eviction, want 0", got)
	}
	lim.Release()
}

// Sharer reads take the ledger lock: this fails under -race if they read
// the sharer map while a kill detaches on another goroutine.
func TestSharerReadsRaceAttachDetach(t *testing.T) {
	m, root := testManager(t)
	a, err := m.Insert(testKey(1, "jit"), "mod", interp.SyntheticProgram(2, 20))
	if err != nil {
		t.Fatal(err)
	}
	lim := sharerLimit(t, root, "proc:a")
	who := new(int)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 300; i++ {
			if err := m.book.Attach(&a.Entry, who, lim); err != nil {
				t.Error(err)
				return
			}
			if i%2 == 0 {
				m.book.Detach(&a.Entry, who)
			} else {
				m.book.DetachAll(who)
			}
		}
	}()
	for i := 0; i < 300; i++ {
		_ = a.Sharers()
		_ = a.SharedBy(who)
	}
	<-done
	if n := a.Sharers(); n != 0 || lim.Use() != 0 {
		t.Fatalf("after churn: %d sharer(s), %d bytes charged", n, lim.Use())
	}
}
