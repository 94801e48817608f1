// Package sched implements the kvm green-thread scheduler.
//
// One host goroutine steps VM threads round-robin, one quantum of simulated
// cycles at a time. Because execution is deterministic and every simulated
// cycle is charged to exactly one thread (and hence one process), CPU
// accounting is precise — including cycles spent in the garbage collector,
// which the VM charges to the thread that triggered the collection (paper
// §2, "Precise memory and CPU accounting").
//
// The scheduler also maintains the virtual clock: simulated time advances
// exactly as fast as threads consume cycles. The paper's testbed was a 500
// MHz Pentium III, so 500,000 cycles make one virtual millisecond.
package sched

import (
	"fmt"
	"sync/atomic"

	"repro/internal/faults"
	"repro/internal/interp"
	"repro/internal/telemetry"
)

// CyclesPerMs converts simulated cycles to virtual milliseconds (500 MHz,
// matching the paper's measurement host).
const CyclesPerMs = 500_000

// DefaultQuantum is the scheduling quantum in cycles (0.2 virtual ms).
const DefaultQuantum = 100_000

// ExitFunc is called when a thread leaves the scheduler for good.
type ExitFunc func(t *interp.Thread, res interp.StepResult)

// ChargeFunc is called after every step with the cycles just consumed.
type ChargeFunc func(t *interp.Thread, cycles uint64)

// Scheduler runs threads.
type Scheduler struct {
	// Engine executes threads; per-thread overrides via EngineFor.
	Engine interp.Engine
	// EngineFor, when set, selects the engine per thread (processes may
	// run under different execution engines in one VM).
	EngineFor func(t *interp.Thread) interp.Engine
	// Quantum is the cycle budget per dispatch (DefaultQuantum if 0).
	Quantum int64
	// OnExit is invoked when a thread finishes or is killed.
	OnExit ExitFunc
	// Charge is invoked with consumed cycles after every dispatch.
	Charge ChargeFunc
	// Telemetry, when set, receives one EvDispatch event per dispatched
	// quantum (feeding the quantum-latency histogram) and EvYield events.
	Telemetry telemetry.Sink
	// Faults, when set, is the injection plane. SiteSchedPreempt dispatches
	// the chosen thread with a one-cycle quantum (forced preemption at its
	// next safepoint); SiteSchedKill invokes FaultKill on the chosen thread
	// just before dispatch, so the Nth dispatch is the Nth kill point —
	// "kill at safepoint N" in plan terms.
	Faults *faults.Plane
	// FaultKill is the SiteSchedKill action (the VM wires it to kill the
	// thread's owning process).
	FaultKill func(t *interp.Thread)

	runq     []*interp.Thread
	blocked  []*interp.Thread
	sleeping []*interp.Thread
	waiting  []*interp.Thread // Object.wait / parked threads
	// now is the virtual clock in cycles. Written only by the scheduling
	// goroutine; atomic so telemetry pollers can read it concurrently.
	now   atomic.Uint64
	steps uint64
}

// New returns a scheduler using eng for every thread.
func New(eng interp.Engine) *Scheduler {
	return &Scheduler{Engine: eng}
}

// Now reports elapsed virtual cycles. Safe to call from any goroutine.
func (s *Scheduler) Now() uint64 { return s.now.Load() }

// NowMillis reports elapsed virtual milliseconds.
func (s *Scheduler) NowMillis() uint64 { return s.now.Load() / CyclesPerMs }

// Steps reports the number of dispatches performed.
func (s *Scheduler) Steps() uint64 { return s.steps }

// Add enqueues a thread for execution.
func (s *Scheduler) Add(t *interp.Thread) {
	if t.State == interp.StateNew {
		t.State = interp.StateRunnable
	}
	s.runq = append(s.runq, t)
}

// Live reports how many threads the scheduler still tracks.
func (s *Scheduler) Live() int {
	return len(s.runq) + len(s.blocked) + len(s.sleeping) + len(s.waiting)
}

// LiveNonDaemon reports tracked threads that keep the VM alive.
func (s *Scheduler) LiveNonDaemon() int {
	n := 0
	for _, q := range [][]*interp.Thread{s.runq, s.blocked, s.sleeping, s.waiting} {
		for _, t := range q {
			if !t.Daemon {
				n++
			}
		}
	}
	return n
}

// Sleep parks the calling thread until the virtual clock reaches wakeAt
// cycles. Intended for use by natives: they set the state and the
// scheduler moves the thread to the sleep queue after the step returns.
func (s *Scheduler) Sleep(t *interp.Thread, cycles uint64) {
	t.WakeAt = s.now.Load() + cycles
	t.State = interp.StateSleeping
}

// Yield makes the thread give up the remainder of its quantum.
func (s *Scheduler) Yield(t *interp.Thread) {
	t.Fuel = 0
	if s.Telemetry != nil {
		s.Telemetry.Emit(telemetry.Event{
			Kind: telemetry.EvYield,
			Pid:  telemetry.PidOf(t.Owner),
			A:    uint64(t.ID),
		})
	}
}

func (s *Scheduler) engineFor(t *interp.Thread) interp.Engine {
	if s.EngineFor != nil {
		if e := s.EngineFor(t); e != nil {
			return e
		}
	}
	return s.Engine
}

// quantum returns the configured quantum.
func (s *Scheduler) quantum() int64 {
	if s.Quantum > 0 {
		return s.Quantum
	}
	return DefaultQuantum
}

// ErrDeadlock is returned by Run when threads remain but none can proceed.
type ErrDeadlock struct {
	Blocked int
}

func (e *ErrDeadlock) Error() string {
	return fmt.Sprintf("sched: deadlock: %d thread(s) blocked with empty run queue", e.Blocked)
}

// Step dispatches one thread for one quantum. It reports whether any
// thread was dispatched.
func (s *Scheduler) Step() (bool, error) {
	s.wake()
	if len(s.runq) == 0 {
		// Idle: advance the clock to the earliest deadline among sleepers
		// and timed waiters.
		var earliest uint64
		for _, t := range s.sleeping {
			if earliest == 0 || t.WakeAt < earliest {
				earliest = t.WakeAt
			}
		}
		for _, t := range s.waiting {
			if t.WakeAt > 0 && (earliest == 0 || t.WakeAt < earliest) {
				earliest = t.WakeAt
			}
		}
		if earliest > s.now.Load() {
			s.now.Store(earliest)
			s.wake()
		}
		if len(s.runq) == 0 {
			blockedish := len(s.blocked)
			for _, t := range s.waiting {
				if t.WakeAt == 0 {
					blockedish++
				}
			}
			if blockedish > 0 {
				return false, &ErrDeadlock{Blocked: blockedish}
			}
			return false, nil
		}
	}

	t := s.runq[0]
	s.runq[0] = nil // the backing array must not keep a dead thread's process alive
	s.runq = s.runq[1:]

	// A kill posted while the thread was queued and parked is honoured
	// here without running it.
	if t.KillPending() && !t.InKernel() && len(t.Frames) == 0 {
		t.Kill()
	}

	if s.Faults.Fire(faults.SiteSchedKill) && s.FaultKill != nil {
		s.FaultKill(t)
	}
	t.Fuel = s.quantum()
	if s.Faults.Fire(faults.SiteSchedPreempt) {
		t.Fuel = 1
	}
	before := t.Cycles
	res := s.engineFor(t).Step(t)
	consumed := t.Cycles - before
	s.now.Add(consumed)
	s.steps++
	if s.Charge != nil {
		s.Charge(t, consumed)
	}
	if t.Span != nil {
		// Request-cost attribution: the quantum's cycles are charged to the
		// request the thread is serving. Nil for every non-serving thread,
		// so the hot-path cost when spans are off is this one comparison.
		t.Span.ExecCycles += consumed
		t.Span.Quanta++
	}
	if s.Telemetry != nil {
		s.Telemetry.Emit(telemetry.Event{
			Kind: telemetry.EvDispatch,
			Pid:  telemetry.PidOf(t.Owner),
			Req:  t.ReqID,
			A:    consumed,
			B:    uint64(res),
		})
	}

	switch res {
	case interp.StepYielded:
		s.runq = append(s.runq, t)
	case interp.StepBlocked:
		s.blocked = append(s.blocked, t)
	case interp.StepSleeping:
		s.sleeping = append(s.sleeping, t)
	case interp.StepWaiting:
		s.waiting = append(s.waiting, t)
	case interp.StepFinished, interp.StepKilled:
		if s.OnExit != nil {
			s.OnExit(t, res)
		}
	}
	return true, nil
}

// wake moves unblocked and expired threads back to the run queue.
func (s *Scheduler) wake() {
	if len(s.blocked) > 0 {
		keep := s.blocked[:0]
		for _, t := range s.blocked {
			switch {
			case t.KillPending() && !t.InKernel():
				// Killing a parked thread unwinds it immediately; it never
				// acquires the monitor it was waiting for.
				t.ForcePark()
				if s.OnExit != nil {
					s.OnExit(t, interp.StepKilled)
				}
			case t.BlockedOn == nil || interp.MonitorFree(t, t.BlockedOn):
				t.BlockedOn = nil
				t.State = interp.StateRunnable
				s.runq = append(s.runq, t)
			default:
				keep = append(keep, t)
			}
		}
		s.blocked = keep
	}
	if len(s.sleeping) > 0 {
		keep := s.sleeping[:0]
		for _, t := range s.sleeping {
			switch {
			case t.KillPending() && !t.InKernel():
				t.ForcePark()
				if s.OnExit != nil {
					s.OnExit(t, interp.StepKilled)
				}
			case t.WakeAt <= s.now.Load():
				t.State = interp.StateRunnable
				s.runq = append(s.runq, t)
			default:
				keep = append(keep, t)
			}
		}
		s.sleeping = keep
	}
	if len(s.waiting) > 0 {
		keep := s.waiting[:0]
		for _, t := range s.waiting {
			switch {
			case t.KillPending() && !t.InKernel():
				interp.CancelWait(t)
				t.ForcePark()
				if s.OnExit != nil {
					s.OnExit(t, interp.StepKilled)
				}
			case func() bool {
				// A timed wait whose deadline passed self-notifies.
				if t.WakeAt > 0 && t.WakeAt <= s.now.Load() {
					t.Notified = true
					t.WakeAt = 0
				}
				return interp.ReacquireReady(t)
			}():
				if err := interp.Resume(t); err != nil {
					// Monitor snatched between check and resume (cannot
					// happen single-threaded, but stay safe): keep waiting.
					keep = append(keep, t)
					continue
				}
				s.runq = append(s.runq, t)
			default:
				keep = append(keep, t)
			}
		}
		s.waiting = keep
	}
}

// Run dispatches until no non-daemon threads remain, the cycle budget is
// exhausted (0 = unlimited), or a deadlock is detected. The budget is
// relative to the clock at the call, so repeated calls each run a slice.
func (s *Scheduler) Run(maxCycles uint64) error {
	start := s.now.Load()
	for s.LiveNonDaemon() > 0 {
		if maxCycles > 0 && s.now.Load()-start >= maxCycles {
			return nil
		}
		progressed, err := s.Step()
		if err != nil {
			return err
		}
		if !progressed {
			return nil
		}
	}
	return nil
}

// RunUntil dispatches until cond reports true, no threads remain, or the
// scheduler deadlocks.
func (s *Scheduler) RunUntil(cond func() bool) error {
	for !cond() && s.LiveNonDaemon() > 0 {
		progressed, err := s.Step()
		if err != nil {
			return err
		}
		if !progressed {
			return nil
		}
	}
	return nil
}
