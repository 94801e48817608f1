package shared

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/faults"
	"repro/internal/heap"
	"repro/internal/memlimit"
	"repro/internal/telemetry"
)

// ErrAttachFault is returned when the codecache.attach fault site fires
// mid-attach of a code entry; the attach has fully unwound by then.
var ErrAttachFault = errors.New("codecache: injected attach fault")

// Kind is what a ledger entry shares.
type Kind uint8

const (
	// KindHeap is a shared heap (Manager): the heap allocator charges
	// its bytes to the entry's home.
	KindHeap Kind = iota
	// KindCode is a compiled artifact (package codecache): it has no
	// heap, so Add charges its home Size.
	KindCode
)

// Entry is one thing in the ledger: a name, a fixed size, a home limit
// that pays for its residency, and the sharers each charged the full
// size. Sharing kinds embed it.
type Entry struct {
	Kind Kind
	Name string
	// Size is fixed once the entry is frozen.
	Size uint64
	// H is a heap entry's storage (nil for code).
	H *heap.Heap

	book    *Ledger
	home    *memlimit.Limit
	frozen  bool
	gone    bool // left the ledger: merged or evicted
	sharers sharerLimits
}

// sharerLimits maps each sharer of an entry to the limit charged for it.
type sharerLimits map[any]*memlimit.Limit

// Frozen reports whether the entry is frozen (code entries always are).
func (e *Entry) Frozen() bool {
	e.book.mu.Lock()
	defer e.book.mu.Unlock()
	return e.frozen
}

// Sharers reports the number of sharers currently charged for the entry.
func (e *Entry) Sharers() int {
	e.book.mu.Lock()
	defer e.book.mu.Unlock()
	return len(e.sharers)
}

// SharedBy reports whether who is currently attached.
func (e *Entry) SharedBy(who any) bool {
	e.book.mu.Lock()
	defer e.book.mu.Unlock()
	_, ok := e.sharers[who]
	return ok
}

// Ledger is the VM's one book of sharing (§2): every sharer of an entry
// is charged its full size while it holds it (not 1/n, so nobody is
// charged asynchronously when another sharer exits) and credited when it
// lets go. An entry nobody holds is an orphan, and its kind decides when
// the kernel takes it back: Manager.ReclaimOrphans merges orphaned heaps
// into the kernel heap, codecache evicts orphaned code under pressure.
//
// One mutex guards every entry's sharers and the per-sharer index. Lock
// order: codecache's index → Ledger.mu → heap locks → memlimit tree, so
// Snapshot callbacks may snapshot heaps and limits. The zero value is
// ready to use.
type Ledger struct {
	// Telemetry receives heap entries' shared-* events (the hub counts
	// them as shared.*), Metrics code entries' codecache.* counters, and
	// Faults arms codecache.attach on code attaches. Set once at VM
	// construction; nil turns each off.
	Telemetry telemetry.Sink
	Metrics   *telemetry.Scope
	Faults    *faults.Plane

	mu       sync.Mutex
	entries  []*Entry
	bySharer map[any][]*Entry
}

// enterLocked records e under home. Callers hold l.mu.
func (l *Ledger) enterLocked(e *Entry, k Kind, home *memlimit.Limit) {
	e.Kind, e.book, e.home = k, l, home
	e.sharers = make(sharerLimits)
	l.entries = append(l.entries, e)
}

// removeLocked drops an orphan from the book. Callers hold l.mu.
func (l *Ledger) removeLocked(e *Entry) {
	e.gone = true
	i := slices.Index(l.entries, e)
	l.entries = slices.Delete(l.entries, i, i+1)
}

// Add enters e as a frozen code entry of fixed e.Size and charges its
// residency to home; on a refused debit nothing is recorded.
func (l *Ledger) Add(e *Entry, home *memlimit.Limit) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := home.Debit(e.Size); err != nil {
		return err
	}
	l.enterLocked(e, KindCode, home)
	e.frozen = true
	return nil
}

// Evict removes the code entry e if no sharer holds it, crediting its
// home, and reports whether it did: code a live process installed can
// never vanish underneath it.
func (l *Ledger) Evict(e *Entry) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e.gone || e.Kind != KindCode || len(e.sharers) > 0 {
		return false
	}
	e.home.Credit(e.Size)
	l.removeLocked(e)
	l.emit(e, 0, telemetry.MCodeEvicted, nil)
	return true
}

// Attach charges who (through limit) the full size of e. Attaching twice
// is idempotent; e must be frozen and still in the ledger. On a code
// entry the codecache.attach site fires after the debit and before the
// sharer is recorded, and a firing unwinds the debit.
func (l *Ledger) Attach(e *Entry, who any, limit *memlimit.Limit) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e.gone {
		return fmt.Errorf("%w: %q", ErrNotFound, e.Name)
	}
	if !e.frozen {
		return ErrNotFrozen
	}
	if _, dup := e.sharers[who]; dup {
		return nil
	}
	if err := limit.Debit(e.Size); err != nil {
		return err
	}
	if e.Kind == KindCode && l.Faults.Fire(faults.SiteCodeAttach) {
		limit.Credit(e.Size)
		l.emit(e, 0, telemetry.MCodeAborts, who)
		return fmt.Errorf("attach %q: %w", e.Name, ErrAttachFault)
	}
	e.sharers[who] = limit
	if l.bySharer == nil {
		l.bySharer = make(map[any][]*Entry)
	}
	l.bySharer[who] = append(l.bySharer[who], e)
	l.emit(e, telemetry.EvSharedAttach, telemetry.MCodeAttached, who)
	return nil
}

// Detach credits who's charge for e back. Detaching a non-sharer is a
// no-op.
func (l *Ledger) Detach(e *Entry, who any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := e.sharers[who]; ok {
		l.creditLocked(e, who)
		held := l.bySharer[who]
		i := slices.Index(held, e)
		l.bySharer[who] = slices.Delete(held, i, i+1)
	}
}

// DetachAll credits every charge who holds, of every kind.
func (l *Ledger) DetachAll(who any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.bySharer[who] {
		l.creditLocked(e, who)
	}
	delete(l.bySharer, who)
}

func (l *Ledger) creditLocked(e *Entry, who any) {
	e.sharers[who].Credit(e.Size)
	delete(e.sharers, who)
	l.emit(e, telemetry.EvSharedDetach, telemetry.MCodeDetached, who)
}

// BytesFor reports the total size of the k entries who is charged for.
func (l *Ledger) BytesFor(who any, k Kind) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n uint64
	for _, e := range l.bySharer[who] {
		if e.Kind == k {
			n += e.Size
		}
	}
	return n
}

// ChargeInfo is a point-in-time copy of one entry, captured by Snapshot
// for the invariant auditor. A heap entry's Home is the limit its heap
// charges (the population limit until the freeze, the base after); a
// code entry's Home was charged Size by Add.
type ChargeInfo struct {
	Kind    Kind
	Name    string
	Size    uint64
	Frozen  bool
	Home    *memlimit.Limit
	Heap    *heap.Heap        // nil for code
	Sharers []*memlimit.Limit // each charged Size
}

// Snapshot invokes fn with every entry's charge state while holding the
// ledger lock, so no entry or charge changes while fn captures the rest
// of the world.
func (l *Ledger) Snapshot(fn func([]ChargeInfo)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	infos := make([]ChargeInfo, len(l.entries))
	for i, e := range l.entries {
		infos[i] = ChargeInfo{Kind: e.Kind, Name: e.Name, Size: e.Size, Frozen: e.frozen, Home: e.home, Heap: e.H}
		for _, lim := range e.sharers {
			infos[i].Sharers = append(infos[i].Sharers, lim)
		}
	}
	fn(infos)
}

// emit reports one transition of e under its kind's telemetry name: a
// heap entry's as event ev with Size as its size word (the population
// cap at creation), a code entry's as kernel counter ctr. who maps to a
// pid when it implements telemetry.Pidded.
func (l *Ledger) emit(e *Entry, ev telemetry.Kind, ctr string, who any) {
	if e.Kind == KindCode {
		if l.Metrics != nil {
			l.Metrics.Counter(ctr).Inc()
		}
	} else if l.Telemetry != nil {
		l.Telemetry.Emit(telemetry.Event{Kind: ev, Pid: telemetry.PidOf(who), A: e.Size, Detail: e.Name})
	}
}
