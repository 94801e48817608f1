package interp

import (
	"repro/internal/object"
)

// Exception dispatch costs. KaffeOS integrated Kaffe00's fast (table-based)
// exception dispatch (§4.1: "the benefits of adding faster exception
// handling show up strongly in jack"); the slow variant models Kaffe99,
// which rebuilt backtrace state on every frame walked.
const (
	fastThrowBase     = 40
	fastThrowPerFrame = 15
	slowThrowBase     = 300
	slowThrowPerFrame = 150
)

// backtraceEntry simulates Kaffe99's per-frame allocation during slow
// exception dispatch; the storage is real so the host allocator sees the
// same pressure pattern.
type backtraceEntry struct {
	method *object.Method
	pc     int
	_      [4]int64
}

// raise dispatches throwable obj from the current PC, unwinding frames
// until a matching handler is found. It reports (result, continue): when a
// handler is found execution continues (outer loop re-fetches the frame);
// otherwise the thread dies with the uncaught throwable.
func (t *Thread) raise(obj *object.Object) (StepResult, bool) {
	fast := t.Env.FastExceptions
	base, per := int64(slowThrowBase), int64(slowThrowPerFrame)
	if fast {
		base, per = fastThrowBase, fastThrowPerFrame
	}
	t.Fuel -= base
	t.Cycles += uint64(base)

	var backtrace []*backtraceEntry
	first := true
	for len(t.Frames) > 0 {
		f := t.Top()
		t.Fuel -= per
		t.Cycles += uint64(per)
		if !fast {
			backtrace = append(backtrace, &backtraceEntry{method: f.M, pc: f.PC})
		}
		// The top frame's PC is the faulting instruction; caller frames
		// have already advanced past their invoke.
		pc := f.PC
		if !first {
			pc--
		}
		first = false
		for i, h := range f.M.Code.Handlers {
			if pc < h.Start || pc >= h.End {
				continue
			}
			if !handlerMatches(f.M, i, obj) {
				continue
			}
			f.SP = 0
			f.push(RefSlot(obj))
			f.PC = h.PC
			_ = backtrace
			return StepYielded, true
		}
		t.popFrame()
	}
	t.Uncaught = obj
	t.Err = &Thrown{Obj: obj}
	t.State = StateKilled
	return StepKilled, false
}

// handlerMatches reports whether handler i of m catches obj.
func handlerMatches(m *object.Method, i int, obj *object.Object) bool {
	h := m.Code.Handlers[i]
	if h.Type == "" {
		return true
	}
	if i < len(m.HandlerClasses) && m.HandlerClasses[i] != nil {
		return m.HandlerClasses[i].AssignableFrom(obj.Class)
	}
	// Unlinked handler (test fixtures): match by class name along the
	// superclass chain.
	for c := obj.Class; c != nil; c = c.Super {
		if c.Name == h.Type {
			return true
		}
	}
	return false
}

// Throw lets natives raise a throwable by class name.
func (e *Env) Throw(t *Thread, cls, msg string) error {
	obj, err := e.throwable(t, cls, msg)
	if err != nil {
		return err
	}
	return &Thrown{Obj: obj}
}
