// Package interp implements the kvm execution engines' shared runtime
// (threads, frames, operand stacks, monitors, exception dispatch) and the
// baseline switch-dispatch interpreter.
//
// Threads here are green threads: the scheduler steps one thread at a time
// for a quantum of simulated cycles, so execution is deterministic and CPU
// time is precisely accountable per process (paper §2, "Precise memory and
// CPU accounting"). "User mode" and "kernel mode" do not indicate hardware
// privilege; they indicate whether the thread can be terminated at the next
// safepoint (user mode) or must first leave the kernel in a clean state
// (kernel mode, entered through kernel natives).
package interp

import (
	"fmt"
	"sync/atomic"

	"repro/internal/heap"
	"repro/internal/object"
	"repro/internal/telemetry"
)

// Slot is one operand stack or local variable slot: either a reference or
// a primitive value (doubles are stored as IEEE bits).
type Slot struct {
	R *object.Object
	I int64
}

// RefSlot makes a reference slot.
func RefSlot(o *object.Object) Slot { return Slot{R: o} }

// IntSlot makes a primitive slot.
func IntSlot(v int64) Slot { return Slot{I: v} }

// Frame is one activation record. A thread reuses its Frames: a popped
// frame is cleared and kept for the next call at the same depth, so a
// *Frame stays valid (pointer-stable) for as long as it is live.
type Frame struct {
	M      *object.Method
	PC     int
	Locals []Slot
	Stack  []Slot
	SP     int
	// Monitors tracks objects locked by MONITORENTER in this frame and not
	// yet unlocked, so unwinding (exceptions, termination) releases them.
	Monitors []*object.Object

	// slots backs Locals and Stack; it survives reuse and grows only when
	// a method needs more slots than any earlier one at this depth.
	slots []Slot
	// body is the statement table the JIT resolved on first entry, so
	// resuming the frame after a return does no lookup.
	body *compiled
}

func (f *Frame) push(s Slot) { f.Stack[f.SP] = s; f.SP++ }
func (f *Frame) pop() Slot   { f.SP--; return f.Stack[f.SP] }
func (f *Frame) top() *Slot  { return &f.Stack[f.SP-1] }
func (f *Frame) clearAbove() { clear(f.Stack[f.SP:]) }

// forgetMonitor forgets the most recent MONITORENTER of o in this frame.
func (f *Frame) forgetMonitor(o *object.Object) {
	for i := len(f.Monitors) - 1; i >= 0; i-- {
		if f.Monitors[i] == o {
			last := len(f.Monitors) - 1
			copy(f.Monitors[i:], f.Monitors[i+1:])
			f.Monitors[last] = nil
			f.Monitors = f.Monitors[:last]
			return
		}
	}
}

// State is a thread's scheduler-visible state.
type State uint8

const (
	StateNew State = iota
	StateRunnable
	StateBlocked  // waiting to acquire a monitor
	StateSleeping // sleeping until a virtual deadline
	StateWaiting  // in Object.wait or parked on a predicate
	StateFinished // entry method returned
	StateKilled   // terminated (kill or uncaught throwable)
)

func (s State) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateRunnable:
		return "runnable"
	case StateBlocked:
		return "blocked"
	case StateSleeping:
		return "sleeping"
	case StateWaiting:
		return "waiting"
	case StateFinished:
		return "finished"
	case StateKilled:
		return "killed"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// StepResult reports why an engine returned control to the scheduler.
type StepResult uint8

const (
	StepYielded  StepResult = iota // quantum exhausted or explicit yield
	StepBlocked                    // thread blocked on a monitor
	StepSleeping                   // thread sleeping on the virtual clock
	StepWaiting                    // thread in Object.wait or parked
	StepFinished                   // entry frame returned
	StepKilled                     // killed or uncaught throwable
)

// Thread is one green thread.
type Thread struct {
	ID    int32
	Name  string
	Env   *Env
	Owner any // the owning process (opaque to this package)

	// Heap is the default allocation heap (the owner process' heap).
	// AllocOverride temporarily redirects allocation, e.g. while
	// populating a shared heap.
	Heap          *heap.Heap
	AllocOverride *heap.Heap

	Frames []*Frame
	State  State

	// Fuel is the remaining simulated cycles in the current quantum; the
	// engine decrements it and yields at a safepoint when it runs out.
	Fuel int64
	// Cycles is the total simulated cycles this thread has consumed.
	Cycles uint64

	// killRequested asks the thread to terminate. User-mode code honours
	// it at the next safepoint; kernel-mode code defers it until the
	// kernel nesting unwinds (paper §2, "Safe termination of processes").
	// Atomic: Process.Kill may be called from any goroutine, concurrently
	// with itself, while only the scheduling goroutine reads the flag.
	killRequested atomic.Bool
	// KernelDepth counts nested kernel-mode sections.
	KernelDepth int

	// BlockedOn is the monitor the thread is waiting to acquire.
	BlockedOn *object.Object
	// WakeAt is the virtual-cycle deadline for a sleeping thread.
	WakeAt uint64

	// Object.wait/park state (see wait.go).
	WaitingOn      *object.Object
	WaitCond       func() bool
	Notified       bool
	SavedLockCount int32

	// Uncaught is the throwable that killed the thread, if any.
	Uncaught *object.Object
	// Err is the VM-level error that killed the thread, if any.
	Err error
	// Result is the value returned by the entry method, if it returns one.
	Result Slot

	// Daemon threads do not keep their process alive.
	Daemon bool

	// ReqID is the serving-plane request this thread is executing (0 =
	// none): it stamps dispatch and GC events so their cost can be
	// attributed to one request. Span, when non-nil, is that request's
	// live cost ledger; the scheduler adds consumed cycles to it and the
	// GC trigger adds pause cycles. Both are written before the thread is
	// spawned and then touched only on the scheduling goroutine.
	ReqID uint64
	Span  *telemetry.Span

	// scratch is the spill buffer used by the SpillSim interpreter mode.
	scratch []Slot
	// stmtFailed marks a failed check inside a compiled statement until
	// the statement's root consumes it (see jit_stmt.go).
	stmtFailed bool
}

// InKernel reports whether the thread is in kernel mode.
func (t *Thread) InKernel() bool { return t.KernelDepth > 0 }

// EnterKernel enters a kernel-mode section.
func (t *Thread) EnterKernel() { t.KernelDepth++ }

// ExitKernel leaves a kernel-mode section.
func (t *Thread) ExitKernel() {
	if t.KernelDepth == 0 {
		panic("interp: kernel mode underflow")
	}
	t.KernelDepth--
}

// AllocHeap is the heap new objects go to.
func (t *Thread) AllocHeap() *heap.Heap {
	if t.AllocOverride != nil {
		return t.AllocOverride
	}
	return t.Heap
}

// Kill requests termination. The engine honours it at the next user-mode
// safepoint; a thread stuck in kernel mode finishes the kernel section
// first. Killing an already-dead thread is harmless (the flag is only
// consulted at dispatch), and Kill is safe to call from any goroutine,
// concurrently with itself — double kills are idempotent.
func (t *Thread) Kill() {
	t.killRequested.Store(true)
}

// KillPending reports whether a kill has been requested.
func (t *Thread) KillPending() bool { return t.killRequested.Load() }

// ForcePark terminates a parked (blocked or sleeping) thread in place:
// frames unwind, monitors release, and the thread is killed. The scheduler
// calls it for kill requests against threads that are not running.
func (t *Thread) ForcePark() {
	t.unwindAll()
	t.BlockedOn = nil
	t.State = StateKilled
	t.Err = errKilled
}

// Alive reports whether the thread can still run.
func (t *Thread) Alive() bool {
	return t.State != StateFinished && t.State != StateKilled
}

// PushFrame pushes an activation of m with the given argument slots
// (receiver first for instance methods), copying them into the callee's
// locals: args may be the caller's operand stack. A warmed thread pushes
// without allocating — the frame at this depth, and its slots, are reused.
func (t *Thread) PushFrame(m *object.Method, args []Slot) error {
	if m.Code == nil {
		return fmt.Errorf("interp: PushFrame of native method %s", m)
	}
	n := len(t.Frames)
	if n >= t.Env.MaxFrames() {
		return fmt.Errorf("interp: stack overflow at %d frames", n)
	}
	var f *Frame
	if n < cap(t.Frames) {
		t.Frames = t.Frames[:n+1]
		f = t.Frames[n]
	}
	if f == nil {
		f = new(Frame)
		t.Frames = append(t.Frames[:n], f)
	}
	nl, size := m.MaxLocals, m.MaxLocals+m.MaxStack
	if cap(f.slots) < size {
		f.slots = make([]Slot, size)
	}
	f.M = m
	f.Locals = f.slots[:nl:nl]
	f.Stack = f.slots[nl:size:size]
	copy(f.Locals, args)
	return nil
}

// popFrame pops the top frame: it releases the monitors the frame still
// holds and clears it, so a pooled frame references nothing and the
// thread's roots stay exactly its live frames.
func (t *Thread) popFrame() {
	n := len(t.Frames) - 1
	f := t.Frames[n]
	for i := len(f.Monitors) - 1; i >= 0; i-- {
		releaseMonitor(t, f.Monitors[i])
	}
	clear(f.Monitors)
	clear(f.Locals)
	clear(f.Stack)
	*f = Frame{Monitors: f.Monitors[:0], slots: f.slots}
	t.Frames = t.Frames[:n]
}

// Top returns the current frame, or nil.
func (t *Thread) Top() *Frame {
	if len(t.Frames) == 0 {
		return nil
	}
	return t.Frames[len(t.Frames)-1]
}

// Roots enumerates every object reference reachable from the thread's
// stack: locals, operand stacks, held monitors, and any in-flight
// throwable. Thread stacks are scanned during every heap's GC (paper §2
// notes this residual "GC crosstalk" as the price of direct sharing).
func (t *Thread) Roots(visit func(*object.Object)) {
	for _, f := range t.Frames {
		for i := range f.Locals {
			if f.Locals[i].R != nil {
				visit(f.Locals[i].R)
			}
		}
		for i := 0; i < f.SP; i++ {
			if f.Stack[i].R != nil {
				visit(f.Stack[i].R)
			}
		}
		for _, m := range f.Monitors {
			visit(m)
		}
	}
	if t.Uncaught != nil {
		visit(t.Uncaught)
	}
	if t.Result.R != nil {
		visit(t.Result.R)
	}
	if t.BlockedOn != nil {
		visit(t.BlockedOn)
	}
	if t.WaitingOn != nil {
		visit(t.WaitingOn)
	}
}

// unwindAll pops every frame, releasing held monitors. Used for kill and
// for uncaught throwables.
func (t *Thread) unwindAll() {
	for len(t.Frames) > 0 {
		t.popFrame()
	}
}
