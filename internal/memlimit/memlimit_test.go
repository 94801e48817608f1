package memlimit

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDebitCredit(t *testing.T) {
	root := NewRoot("root", 1000)
	if err := root.Debit(400); err != nil {
		t.Fatal(err)
	}
	if got := root.Use(); got != 400 {
		t.Fatalf("Use = %d, want 400", got)
	}
	root.Credit(150)
	if got := root.Use(); got != 250 {
		t.Fatalf("Use = %d, want 250", got)
	}
}

func TestDebitRejectsOverflowOfLimit(t *testing.T) {
	root := NewRoot("root", 100)
	if err := root.Debit(101); err == nil {
		t.Fatal("debit past limit succeeded")
	}
	var ex *ErrExceeded
	err := root.Debit(101)
	if !errors.As(err, &ex) {
		t.Fatalf("error type %T, want *ErrExceeded", err)
	}
	if ex.Limit != root || ex.Need != 101 {
		t.Fatalf("ErrExceeded = %+v", ex)
	}
	if root.Use() != 0 {
		t.Fatal("failed debit changed use")
	}
}

func TestSoftChildPropagates(t *testing.T) {
	root := NewRoot("root", 1000)
	child := root.MustChild("proc", 500, false)
	if err := child.Debit(300); err != nil {
		t.Fatal(err)
	}
	if root.Use() != 300 || child.Use() != 300 {
		t.Fatalf("use root=%d child=%d, want 300/300", root.Use(), child.Use())
	}
	child.Credit(100)
	if root.Use() != 200 || child.Use() != 200 {
		t.Fatalf("after credit: root=%d child=%d, want 200/200", root.Use(), child.Use())
	}
}

func TestSoftChildBoundedByParent(t *testing.T) {
	root := NewRoot("root", 100)
	child := root.MustChild("proc", 500, false) // child max looser than parent
	err := child.Debit(200)
	var ex *ErrExceeded
	if !errors.As(err, &ex) || ex.Limit != root {
		t.Fatalf("err = %v, want ErrExceeded at root", err)
	}
	if child.Use() != 0 || root.Use() != 0 {
		t.Fatal("failed debit left partial charge")
	}
}

func TestHardChildReservesAtCreation(t *testing.T) {
	root := NewRoot("root", 1000)
	child, err := root.NewChild("reserved", 600, true)
	if err != nil {
		t.Fatal(err)
	}
	if root.Use() != 600 {
		t.Fatalf("root.Use = %d after hard child, want 600", root.Use())
	}
	// Debits inside the hard child do not touch the parent.
	if err := child.Debit(500); err != nil {
		t.Fatal(err)
	}
	if root.Use() != 600 {
		t.Fatalf("root.Use = %d after child debit, want still 600", root.Use())
	}
	if err := child.Debit(200); err == nil {
		t.Fatal("debit past hard child limit succeeded")
	}
}

func TestHardChildCreationFailsWhenNoRoom(t *testing.T) {
	root := NewRoot("root", 100)
	if _, err := root.NewChild("big", 200, true); err == nil {
		t.Fatal("oversized hard reservation succeeded")
	}
	if root.Use() != 0 {
		t.Fatal("failed reservation charged the parent")
	}
}

func TestDeepMixedHierarchy(t *testing.T) {
	root := NewRoot("root", 10_000)
	hard := root.MustChild("hard", 4000, true)
	soft := hard.MustChild("soft", 3000, false)
	leaf := soft.MustChild("leaf", 2000, false)

	if err := leaf.Debit(1500); err != nil {
		t.Fatal(err)
	}
	// Propagation: leaf -> soft -> hard, stops at hard.
	if leaf.Use() != 1500 || soft.Use() != 1500 || hard.Use() != 1500 {
		t.Fatalf("uses = %d/%d/%d, want 1500 each", leaf.Use(), soft.Use(), hard.Use())
	}
	if root.Use() != 4000 {
		t.Fatalf("root.Use = %d, want 4000 (reservation only)", root.Use())
	}
	leaf.Credit(1500)
	if hard.Use() != 0 {
		t.Fatalf("hard.Use = %d after full credit, want 0", hard.Use())
	}
}

func TestReleaseHardReturnsReservation(t *testing.T) {
	root := NewRoot("root", 1000)
	child := root.MustChild("c", 400, true)
	child.Release()
	if root.Use() != 0 {
		t.Fatalf("root.Use = %d after release, want 0", root.Use())
	}
	if err := child.Debit(1); err == nil {
		t.Fatal("debit on released limit succeeded")
	}
}

func TestReleaseNonZeroUsePanics(t *testing.T) {
	root := NewRoot("root", 1000)
	child := root.MustChild("c", 400, false)
	if err := child.Debit(10); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("release with outstanding use did not panic")
		}
	}()
	child.Release()
}

func TestCreditOverflowPanics(t *testing.T) {
	root := NewRoot("root", 1000)
	defer func() {
		if recover() == nil {
			t.Fatal("credit past use did not panic")
		}
	}()
	root.Credit(1)
}

func TestTransfer(t *testing.T) {
	root := NewRoot("root", 1000)
	a := root.MustChild("a", 500, true)
	b := root.MustChild("b", 500, true)
	if err := a.Debit(300); err != nil {
		t.Fatal(err)
	}
	if err := a.Transfer(300, b); err != nil {
		t.Fatal(err)
	}
	if a.Use() != 0 || b.Use() != 300 {
		t.Fatalf("after transfer: a=%d b=%d, want 0/300", a.Use(), b.Use())
	}
}

func TestTransferFailsAndRollsBack(t *testing.T) {
	root := NewRoot("root", 1000)
	a := root.MustChild("a", 500, true)
	b := root.MustChild("b", 100, true)
	if err := a.Debit(300); err != nil {
		t.Fatal(err)
	}
	if err := a.Transfer(300, b); err == nil {
		t.Fatal("transfer past dst limit succeeded")
	}
	if a.Use() != 300 || b.Use() != 0 {
		t.Fatalf("failed transfer mutated state: a=%d b=%d", a.Use(), b.Use())
	}
}

// Two soft siblings share their parent's use: moving bytes between them
// must not need the parent to hold the bytes twice, however full it is.
func TestTransferBetweenSoftSiblingsUnderFullParent(t *testing.T) {
	root := NewRoot("root", 1000)
	a := root.MustChild("a", 1000, false)
	b := root.MustChild("b", 1000, false)
	if err := a.Debit(900); err != nil {
		t.Fatal(err)
	}
	if err := a.Transfer(800, b); err != nil {
		t.Fatalf("transfer between siblings under a 90%% full parent: %v", err)
	}
	if a.Use() != 100 || b.Use() != 800 || root.Use() != 900 {
		t.Fatalf("after transfer: a=%d b=%d root=%d, want 100/800/900", a.Use(), b.Use(), root.Use())
	}
	// Up to a soft ancestor: the ancestor's use does not move either.
	if err := b.Transfer(800, root); err != nil {
		t.Fatal(err)
	}
	if b.Use() != 0 || root.Use() != 900 {
		t.Fatalf("after transfer to the parent: b=%d root=%d, want 0/900", b.Use(), root.Use())
	}
}

func TestSetMaxHardAdjustsParent(t *testing.T) {
	root := NewRoot("root", 1000)
	c := root.MustChild("c", 400, true)
	if err := c.SetMax(600); err != nil {
		t.Fatal(err)
	}
	if root.Use() != 600 {
		t.Fatalf("root.Use = %d after grow, want 600", root.Use())
	}
	if err := c.SetMax(100); err != nil {
		t.Fatal(err)
	}
	if root.Use() != 100 {
		t.Fatalf("root.Use = %d after shrink, want 100", root.Use())
	}
	if err := c.Debit(90); err != nil {
		t.Fatal(err)
	}
	if err := c.SetMax(50); err == nil {
		t.Fatal("shrink below use succeeded")
	}
}

func TestStringRendersTree(t *testing.T) {
	root := NewRoot("root", 100)
	root.MustChild("a", 10, true)
	root.MustChild("b", 20, false)
	s := root.String()
	if s == "" {
		t.Fatal("empty render")
	}
}

// Property: any sequence of debits and credits keeps use <= max at every
// node, and a full unwind returns every node to zero.
func TestPropBalancedOperations(t *testing.T) {
	f := func(seed int64, ops []uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		root := NewRoot("root", 1_000_000)
		nodes := []*Limit{root}
		for i := 0; i < 4; i++ {
			parent := nodes[rng.Intn(len(nodes))]
			c, err := parent.NewChild("n", uint64(rng.Intn(500_000)+1000), rng.Intn(2) == 0)
			if err == nil {
				nodes = append(nodes, c)
			}
		}
		type charge struct {
			l *Limit
			n uint64
		}
		var charges []charge
		for _, op := range ops {
			l := nodes[int(op)%len(nodes)]
			n := uint64(op%997) + 1
			if err := l.Debit(n); err == nil {
				charges = append(charges, charge{l, n})
			}
			for _, node := range nodes {
				if node.Use() > node.Max() {
					return false
				}
			}
		}
		for _, c := range charges {
			c.l.Credit(c.n)
		}
		// Tear down children bottom-up (reverse creation order): each node
		// must be back to zero local use, and releasing hard nodes must
		// return their reservations so the root ends at zero.
		for i := len(nodes) - 1; i >= 1; i-- {
			if nodes[i].Use() != 0 {
				return false
			}
			nodes[i].Release()
		}
		return root.Use() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the sum of direct soft-child uses plus direct local debits never
// exceeds a node's recorded use (soft children are reflected in parents).
func TestPropSoftReflection(t *testing.T) {
	f := func(amounts []uint16) bool {
		root := NewRoot("root", Unlimited)
		kids := []*Limit{
			root.MustChild("a", Unlimited, false),
			root.MustChild("b", Unlimited, false),
			root.MustChild("c", Unlimited, false),
		}
		var want uint64
		for i, a := range amounts {
			n := uint64(a)
			if kids[i%3].Debit(n) == nil {
				want += n
			}
		}
		return root.Use() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Every heap allocation debits its process limit and every collection
// credits it, so a debit/credit pair allocates nothing, whether it climbs
// a soft chain or stops at a hard reservation.
func TestDebitCreditAllocatesNothing(t *testing.T) {
	for _, hard := range []bool{false, true} {
		l := NewRoot("root", Unlimited).MustChild("l1", Unlimited, hard).
			MustChild("l2", Unlimited, false).MustChild("l3", 64<<20, false)
		var err error
		if n := testing.AllocsPerRun(100, func() { err = l.Debit(64); l.Credit(64) }); n != 0 || err != nil {
			t.Errorf("hard=%v: debit+credit made %v Go allocations (err %v), want 0", hard, n, err)
		}
	}
}
