package vmaddr

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestReserveAssignsPages(t *testing.T) {
	s := NewSpace()
	h := s.NewHeapID()
	base, err := s.Reserve(h, 4)
	if err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	if base%PageSize != 0 {
		t.Fatalf("base %#x not page aligned", base)
	}
	for off := uint64(0); off < 4*PageSize; off += 128 {
		got, ok := s.HeapOf(base + off)
		if !ok || got != h {
			t.Fatalf("HeapOf(base+%#x) = %v, %v; want %v, true", off, got, ok, h)
		}
	}
	if _, ok := s.HeapOf(base + 4*PageSize); ok {
		t.Fatalf("address past reservation resolved to a heap")
	}
}

func TestReserveDistinctRanges(t *testing.T) {
	s := NewSpace()
	a, b := s.NewHeapID(), s.NewHeapID()
	ba, err := s.Reserve(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := s.Reserve(b, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ba == bb {
		t.Fatalf("overlapping reservations at %#x", ba)
	}
	if got, _ := s.HeapOf(ba); got != a {
		t.Errorf("first range owner = %v, want %v", got, a)
	}
	if got, _ := s.HeapOf(bb); got != b {
		t.Errorf("second range owner = %v, want %v", got, b)
	}
}

func TestReserveRejectsBadArgs(t *testing.T) {
	s := NewSpace()
	h := s.NewHeapID()
	if _, err := s.Reserve(h, 0); err == nil {
		t.Error("Reserve(0 pages) succeeded")
	}
	if _, err := s.Reserve(h, -1); err == nil {
		t.Error("Reserve(-1 pages) succeeded")
	}
	if _, err := s.Reserve(NoHeap, 1); err == nil {
		t.Error("Reserve(NoHeap) succeeded")
	}
}

func TestReleaseUnmaps(t *testing.T) {
	s := NewSpace()
	h := s.NewHeapID()
	base, _ := s.Reserve(h, 3)
	s.Release(h, base, 3)
	if _, ok := s.HeapOf(base); ok {
		t.Error("released page still mapped")
	}
	if n := s.PagesOwned(h); n != 0 {
		t.Errorf("PagesOwned = %d after release, want 0", n)
	}
	if n := s.Pages(); n != 0 {
		t.Errorf("Pages = %d after release, want 0", n)
	}
}

func TestReleaseWrongOwnerPanics(t *testing.T) {
	s := NewSpace()
	a, b := s.NewHeapID(), s.NewHeapID()
	base, _ := s.Reserve(a, 1)
	defer func() {
		if recover() == nil {
			t.Error("release by non-owner did not panic")
		}
	}()
	s.Release(b, base, 1)
}

func TestReassignTransfersOwnership(t *testing.T) {
	s := NewSpace()
	user, kernel := s.NewHeapID(), s.NewHeapID()
	base, _ := s.Reserve(user, 5)
	s.Reassign(base, 5, kernel)
	for i := 0; i < 5; i++ {
		got, ok := s.HeapOf(base + uint64(i)*PageSize)
		if !ok || got != kernel {
			t.Fatalf("page %d owner = %v, %v; want kernel", i, got, ok)
		}
	}
	if n := s.PagesOwned(user); n != 0 {
		t.Errorf("user still owns %d pages after reassign", n)
	}
}

func TestReassignSkipsUnmapped(t *testing.T) {
	s := NewSpace()
	a, b := s.NewHeapID(), s.NewHeapID()
	base, _ := s.Reserve(a, 2)
	s.Release(a, base, 2)
	s.Reassign(base, 2, b)
	if _, ok := s.HeapOf(base); ok {
		t.Error("reassign resurrected an unmapped page")
	}
}

func TestHeapIDsUnique(t *testing.T) {
	s := NewSpace()
	seen := make(map[HeapID]bool)
	for i := 0; i < 1000; i++ {
		id := s.NewHeapID()
		if id == NoHeap {
			t.Fatal("minted NoHeap")
		}
		if seen[id] {
			t.Fatalf("duplicate heap ID %v", id)
		}
		seen[id] = true
	}
}

func TestSpaceExhaustion(t *testing.T) {
	s := NewSpace()
	s.limit = s.next + 4*PageSize
	h := s.NewHeapID()
	if _, err := s.Reserve(h, 8); err != ErrSpaceExhausted {
		t.Fatalf("Reserve past limit: err = %v, want ErrSpaceExhausted", err)
	}
	if _, err := s.Reserve(h, 4); err != nil {
		t.Fatalf("Reserve within limit failed: %v", err)
	}
}

func TestConcurrentReserve(t *testing.T) {
	s := NewSpace()
	const workers, pagesEach = 16, 8
	bases := make([]uint64, workers)
	ids := make([]HeapID, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i] = s.NewHeapID()
			b, err := s.Reserve(ids[i], pagesEach)
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
				return
			}
			bases[i] = b
		}(i)
	}
	wg.Wait()
	seen := make(map[uint64]int)
	for i, b := range bases {
		for p := 0; p < pagesEach; p++ {
			page := (b >> PageShift) + uint64(p)
			if prev, dup := seen[page]; dup {
				t.Fatalf("page %#x leased to workers %d and %d", page, prev, i)
			}
			seen[page] = i
		}
	}
}

func TestPagesFor(t *testing.T) {
	cases := []struct {
		size uint64
		want int
	}{
		{0, 0}, {1, 1}, {PageSize - 1, 1}, {PageSize, 1},
		{PageSize + 1, 2}, {10 * PageSize, 10},
	}
	for _, c := range cases {
		if got := PagesFor(c.size); got != c.want {
			t.Errorf("PagesFor(%d) = %d, want %d", c.size, got, c.want)
		}
	}
}

// Property: every address inside a reservation resolves to the reserving
// heap, and addresses in separate reservations never alias.
func TestPropReservationResolution(t *testing.T) {
	s := NewSpace()
	f := func(nPages uint8, offsets []uint16) bool {
		n := int(nPages%16) + 1
		h := s.NewHeapID()
		base, err := s.Reserve(h, n)
		if err != nil {
			return false
		}
		for _, off := range offsets {
			addr := base + uint64(off)%(uint64(n)<<PageShift)
			got, ok := s.HeapOf(addr)
			if !ok || got != h {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestHeapOfRacingWriters resolves pages while a writer reserves, reassigns
// and releases them: every answer must name a heap that owned that page at
// some point (or report it unmapped). The writer's plan is fixed up front —
// reservations from one goroutine get consecutive bases — so readers know
// each page's possible owners without synchronizing with the writer.
func TestHeapOfRacingWriters(t *testing.T) {
	s := NewSpace()
	type lease struct {
		first, n      uint64 // pages, relative to baseAddr's
		owner, merged HeapID
	}
	const rounds = 3000
	plan := make([]lease, rounds)
	var byPage []int32 // page - baseAddr's page -> plan index
	for i := range plan {
		n := uint64(1 + i%16)
		plan[i] = lease{first: uint64(len(byPage)), n: n, owner: s.NewHeapID(), merged: s.NewHeapID()}
		for j := uint64(0); j < n; j++ {
			byPage = append(byPage, int32(i))
		}
	}
	first := baseAddr >> PageShift

	// check resolves pseudo-random pages until stop is closed, then once
	// more over every page, and reports how many resolved to a heap.
	check := func(x uint64, stop <-chan struct{}) (hits int) {
		resolve := func(rel uint64) bool {
			got, ok := s.HeapOf((first+rel)<<PageShift + x%PageSize)
			if !ok {
				return true
			}
			hits++
			if l := plan[byPage[rel]]; got != l.owner && got != l.merged {
				t.Errorf("page %d resolved to heap %d; its owners were %d and %d", rel, got, l.owner, l.merged)
				return false
			}
			return true
		}
		for {
			select {
			case <-stop:
				for rel := range byPage {
					if !resolve(uint64(rel)) {
						return hits
					}
				}
				return hits
			default:
			}
			for k := 0; k < 64; k++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				if !resolve(x % uint64(len(byPage))) {
					return hits
				}
			}
		}
	}

	stop := make(chan struct{})
	var ready, wg sync.WaitGroup
	resolved := make([]int, 2)
	for r := range resolved {
		ready.Add(1)
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ready.Done()
			resolved[r] = check(uint64(r)*0x9e3779b97f4a7c15+1, stop)
		}(r)
	}
	ready.Wait()
	for i, l := range plan {
		base, err := s.Reserve(l.owner, int(l.n))
		if err != nil || base != (first+l.first)<<PageShift {
			t.Fatalf("reservation %d at %#x, %v; planned %#x", i, base, err, (first+l.first)<<PageShift)
		}
		if i%2 == 0 {
			s.Reassign(base, int(l.n), l.merged)
		}
		if i%3 != 0 {
			owner := l.owner
			if i%2 == 0 {
				owner = l.merged
			}
			s.Release(owner, base, int(l.n))
		}
		if i%64 == 0 {
			runtime.Gosched() // let the readers in at -cpu 1
		}
	}
	close(stop)
	wg.Wait()
	if resolved[0]+resolved[1] == 0 {
		t.Error("no lookup resolved to a heap")
	}
}

// leaves reports how many page-table leaves are allocated: the table's
// memory, in units of one leaf.
func (s *Space) leaves() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	d := s.dir.Load()
	for i := range d.leaves {
		if d.leaves[i].Load() != nil {
			n++
		}
	}
	return n
}

// TestLeavesTrackLivePages churns reservations past a long-lived one (the
// kernel heap's first chunk, say): the page table keeps only the leaves
// that still map a page, plus the one being filled.
func TestLeavesTrackLivePages(t *testing.T) {
	s := NewSpace()
	pinned := s.NewHeapID()
	if _, err := s.Reserve(pinned, 4); err != nil {
		t.Fatal(err)
	}
	h := s.NewHeapID()
	for i := 0; i < 10000; i++ {
		base, err := s.Reserve(h, 16)
		if err != nil {
			t.Fatal(err)
		}
		s.Release(h, base, 16)
	}
	if n := s.leaves(); n > 2 {
		t.Errorf("%d page-table leaves after churn, want <= 2", n)
	}
	if n := s.Pages(); n != 4 {
		t.Errorf("Pages = %d, want the 4 pinned", n)
	}
	if n := s.PagesOwned(pinned); n != 4 {
		t.Errorf("PagesOwned(pinned) = %d, want 4", n)
	}
}

func TestHeapOfAllocatesNothing(t *testing.T) {
	s := NewSpace()
	h := s.NewHeapID()
	base, err := s.Reserve(h, 4)
	if err != nil {
		t.Fatal(err)
	}
	var got HeapID
	if n := testing.AllocsPerRun(100, func() { got, _ = s.HeapOf(base + PageSize) }); n != 0 || got != h {
		t.Errorf("HeapOf: %v Go allocations (got heap %d), want 0", n, got)
	}
}
