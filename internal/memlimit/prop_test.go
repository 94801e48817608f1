package memlimit

import (
	"math/rand"
	"sync"
	"testing"
)

// The property suite drives random operation sequences through a memlimit
// tree while an exact model tracks what the tree's books must say. It
// exists because the memory-balancer controller made SetMax a hot,
// concurrent operation: a shrink racing the 64 KiB allocation lease is
// precisely the kind of interleaving a fixed unit test never finds.
//
// Invariants checked after every operation:
//   - use ≤ max at every node (SetMaxClamped must make this unbreakable);
//   - conservation: every node's use equals its own outstanding charges
//     plus its soft descendants' charges plus its hard children's current
//     reservations — no byte appears or disappears;
//   - Available never underflows (reports ≤ max always);
//   - no operation panics unless the model says it must.

// propNode mirrors one live limit: the bytes debited directly at it
// (payload + outstanding lease) and its children.
type propNode struct {
	l        *Limit
	hard     bool
	max      uint64 // tracked current max (updated on successful SetMax*)
	charged  uint64 // direct debits outstanding (includes lease)
	lease    uint64 // portion of charged that is the allocation lease
	children []*propNode
	parent   *propNode
}

// expectedUse computes what the real node's use must be.
func (n *propNode) expectedUse() uint64 {
	u := n.charged
	for _, c := range n.children {
		if c.hard {
			u += c.max
		} else {
			u += c.expectedUse()
		}
	}
	return u
}

// walk visits the subtree.
func (n *propNode) walk(f func(*propNode)) {
	f(n)
	for _, c := range n.children {
		c.walk(f)
	}
}

func checkInvariants(t *testing.T, step int, root *propNode) {
	t.Helper()
	root.walk(func(n *propNode) {
		use, max := n.l.Use(), n.l.Max()
		if use > max {
			t.Fatalf("step %d: %q use %d > max %d", step, n.l.Name(), use, max)
		}
		if want := n.expectedUse(); use != want {
			t.Fatalf("step %d: %q use %d, model says %d", step, n.l.Name(), use, want)
		}
		if max != n.max {
			t.Fatalf("step %d: %q max %d, model says %d", step, n.l.Name(), max, n.max)
		}
		if av := n.l.Available(); av > max {
			t.Fatalf("step %d: %q Available %d > max %d (underflow)", step, n.l.Name(), av, max)
		}
	})
}

// TestPropRandomOps: 64 seeds × 400 random Debit/Credit/DebitLease/
// Transfer/SetMax/SetMaxClamped/NewChild/Release sequences, with the model
// audited after every operation.
func TestPropRandomOps(t *testing.T) {
	const (
		seeds = 64
		steps = 400
		K     = uint64(1) << 10
	)
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rootL := NewRoot("root", 4096*K)
		root := &propNode{l: rootL, hard: true, max: 4096 * K}
		nodes := []*propNode{root}

		// collect re-snapshots the flat node list after releases.
		collect := func() {
			nodes = nodes[:0]
			root.walk(func(n *propNode) { nodes = append(nodes, n) })
		}
		pick := func() *propNode { return nodes[rng.Intn(len(nodes))] }

		for step := 0; step < steps; step++ {
			switch op := rng.Intn(10); op {
			case 0, 1: // Debit
				n := pick()
				amt := uint64(rng.Intn(64)) * K
				err := n.l.Debit(amt)
				if err == nil {
					n.charged += amt
				}
			case 2: // Credit part of our own charges (never the lease)
				n := pick()
				if own := n.charged - n.lease; own > 0 {
					amt := uint64(rng.Int63n(int64(own))) + 1
					n.l.Credit(amt)
					n.charged -= amt
				}
			case 3: // DebitLease: refund the old lease, take a new one
				n := pick()
				size := uint64(rng.Intn(32)) * K
				batch := uint64(64) * K
				lease, err := n.l.DebitLease(size, batch, n.lease)
				if err != nil {
					// Refund consumed, nothing charged.
					n.charged -= n.lease
					n.lease = 0
				} else {
					n.charged += size + lease - n.lease
					n.lease = lease
				}
			case 4: // Transfer between two distinct nodes
				a, b := pick(), pick()
				if a == b {
					break
				}
				own := a.charged - a.lease
				if own == 0 {
					break
				}
				amt := uint64(rng.Int63n(int64(own))) + 1
				if a.l.Transfer(amt, b.l) == nil {
					a.charged -= amt
					b.charged += amt
				}
			case 5: // SetMax (the strict variant)
				n := pick()
				max := uint64(rng.Intn(512)) * K
				if n.l.SetMax(max) == nil {
					n.max = max
				}
			case 6, 7: // SetMaxClamped (the controller's variant)
				n := pick()
				want := uint64(rng.Intn(512)) * K
				n.max = n.l.SetMaxClamped(want)
				if n.max < want && n.max != n.l.Use() {
					// A grow may be cut short only by a hard parent refusing
					// the delta; then the max must simply be unchanged.
					if n.max != n.l.Max() {
						t.Fatalf("seed %d step %d: clamped grow returned %d, limit says %d",
							seed, step, n.max, n.l.Max())
					}
				}
			case 8: // NewChild
				if len(nodes) > 12 {
					break
				}
				n := pick()
				hard := rng.Intn(3) == 0
				max := uint64(rng.Intn(256)+1) * K
				c, err := n.l.NewChild("c", max, hard)
				if err == nil {
					cn := &propNode{l: c, hard: hard, max: max, parent: n}
					n.children = append(n.children, cn)
					collect()
				}
			case 9: // Release a drained leaf
				n := pick()
				if n == root || len(n.children) > 0 || n.charged != 0 {
					break
				}
				n.l.Release()
				p := n.parent
				for i, c := range p.children {
					if c == n {
						p.children = append(p.children[:i], p.children[i+1:]...)
						break
					}
				}
				collect()
			}
			checkInvariants(t, step, root)
		}

		// Drain: credit everything back, release every limit; the root must
		// come back to zero use — total conservation over the whole run.
		var drain func(n *propNode)
		drain = func(n *propNode) {
			for _, c := range n.children {
				drain(c)
			}
			n.children = nil
			n.l.Credit(n.charged)
			n.charged, n.lease = 0, 0
			if n != root {
				n.l.Release()
			}
		}
		drain(root)
		if use := rootL.Use(); use != 0 {
			t.Fatalf("seed %d: root use %d after full drain, want 0", seed, use)
		}
	}
}

// TestPropConcurrentShrinkVsLease is the race the controller actually
// runs: one goroutine continuously shrinks and grows a tenant's limit with
// SetMaxClamped (as rebalance rounds do) while the tenant's allocator
// churns 64 KiB leases through DebitLease. The naive shrink — read Use,
// subtract, SetMax — either livelocks or underflows here; SetMaxClamped
// must keep use ≤ max and both counters finite throughout. Run with -race.
func TestPropConcurrentShrinkVsLease(t *testing.T) {
	const K = uint64(1) << 10
	root := NewRoot("root", 1<<30)
	const initialMax = 8192 * K
	tenant, err := root.NewChild("tenant", initialMax, false)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Allocator: lease in, lease out, forever.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		lease := uint64(0)
		charged := uint64(0)
		for i := 0; ; i++ {
			select {
			case <-stop:
				tenant.Credit(charged)
				return
			default:
			}
			size := uint64(rng.Intn(16)) * K
			got, err := tenant.DebitLease(size, 64*K, lease)
			if err != nil {
				charged -= lease
				lease = 0
			} else {
				charged += size + got - lease
				lease = got
			}
			if own := charged - lease; own > 64*K {
				tenant.Credit(own / 2)
				charged -= own / 2
			}
		}
	}()

	// Controller: shrink to the bone, grow back, 10k rounds.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 10_000; i++ {
			want := uint64(rng.Intn(256)) * K // mostly brutal shrinks
			got := tenant.SetMaxClamped(want)
			if got < want {
				panic("clamped result below requested max")
			}
		}
	}()

	// Auditor: sample the invariant while both run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := root.Snapshot()
			var check func(n *Node)
			check = func(n *Node) {
				if n.Use > n.Max {
					panic("use > max observed under concurrency")
				}
				for _, c := range n.Children {
					check(c)
				}
			}
			check(snap)
			// The pair comes from one lock acquisition: a Use read before
			// a shrink compared with a Max read after it is not a state
			// the limit was ever in.
			if use, max := tenant.Load(); use > max {
				panic("use > max observed under concurrency")
			}
			// Available saturates at zero; a wrapped max-use would be
			// ~2^64. No round sets a max above the initial one, so that
			// bounds every honest answer without a second racing read.
			if av := tenant.Available(); av > initialMax {
				panic("Available underflowed")
			}
		}
	}()

	wg.Wait()
	if use, max := tenant.Load(); use > max {
		t.Fatalf("final state: use %d > max %d", use, max)
	}
	if use := tenant.Use(); use != 0 {
		t.Fatalf("allocator drained but use is %d", use)
	}
}
