package interp

import (
	"errors"
	"fmt"
	"io"
	"math/rand"

	"repro/internal/barrier"
	"repro/internal/heap"
	"repro/internal/memlimit"
	"repro/internal/object"
)

// Well-known throwable class names raised by the VM itself.
const (
	ClsNullPointer       = "java/lang/NullPointerException"
	ClsArithmetic        = "java/lang/ArithmeticException"
	ClsArrayIndex        = "java/lang/ArrayIndexOutOfBoundsException"
	ClsArrayStore        = "java/lang/ArrayStoreException"
	ClsClassCast         = "java/lang/ClassCastException"
	ClsNegativeArraySize = "java/lang/NegativeArraySizeException"
	ClsOutOfMemory       = "java/lang/OutOfMemoryError"
	ClsStackOverflow     = "java/lang/StackOverflowError"
	ClsSegViolation      = "kaffeos/SegmentationViolationError"
	ClsIllegalMonitor    = "java/lang/IllegalMonitorStateException"
)

// NativeFunc is the implementation type for native methods. args holds the
// receiver (for instance methods) followed by the declared arguments. A
// native reports a Java-visible exception by returning *Thrown; any other
// error is a VM-internal fault that kills the thread.
type NativeFunc func(t *Thread, args []Slot) (Slot, error)

// Thrown wraps a throwable object propagating as a Go error through native
// frames.
type Thrown struct {
	Obj *object.Object
}

func (e *Thrown) Error() string {
	return fmt.Sprintf("throwable %s", e.Obj.Class.Name)
}

// Env provides VM services to the execution engines. The kernel/VM layer
// fills the callbacks; unit tests use lighter fixtures.
type Env struct {
	Reg          *heap.Registry
	Barrier      barrier.Barrier
	BarrierStats *barrier.Stats

	// Throwable builds an exception/error object of the named class in the
	// thread's namespace. If it cannot (class missing, out of memory), it
	// returns a VM error and the thread dies.
	Throwable func(t *Thread, className, msg string) (*object.Object, error)

	// Intern returns the per-process interned string object for s (paper
	// §3.3: strings intern per process, not globally).
	Intern func(t *Thread, s string) (*object.Object, error)

	// CollectHeap runs a GC of h on behalf of t (charging the GC cycles
	// appropriately). Called when an allocation hits its memlimit before
	// the allocation is retried.
	CollectHeap func(t *Thread, h *heap.Heap)

	// NewString allocates a (non-interned) string object holding s on the
	// thread's allocation heap, charged with the character storage.
	NewString func(t *Thread, s string) (*object.Object, error)

	// Spawn registers the Thread object's green thread with the scheduler
	// (java/lang/Thread.start).
	Spawn func(t *Thread, threadObj *object.Object) error

	// SleepMillis parks the thread for ms virtual milliseconds.
	SleepMillis func(t *Thread, ms int64)

	// YieldThread gives up the remainder of the quantum.
	YieldThread func(t *Thread)

	// JoinThread parks t until the green thread behind threadObj exits
	// (java/lang/Thread.join). A nil or never-started target is a no-op.
	JoinThread func(t *Thread, threadObj *object.Object)

	// ThreadAlive reports whether threadObj's green thread is running.
	ThreadAlive func(t *Thread, threadObj *object.Object) bool

	// Stdout returns the per-process output writer.
	Stdout func(t *Thread) io.Writer

	// NowMillis reports the virtual clock in milliseconds.
	NowMillis func() int64

	// NowCycles reports the virtual clock in cycles (for timed waits).
	NowCycles func() uint64

	// RandFor returns the per-process deterministic random source.
	RandFor func(t *Thread) *rand.Rand

	// FastExceptions selects table-based exception dispatch (the Kaffe00
	// improvement integrated into KaffeOS, §4.1); the slow variant walks
	// frames with per-frame allocation like Kaffe99.
	FastExceptions bool
	// ThinLocks selects header-word locking; the heavyweight variant
	// allocates a monitor record per locked object like Kaffe99.
	ThinLocks bool
	// SpillSim models Kaffe 1.0b4's naive code generator, which
	// "translates each instruction individually" and emits "many
	// unnecessary register spills and reloads": the interpreter performs
	// redundant per-instruction decode and local-variable memory traffic.
	SpillSim bool

	// MaxFrameDepth bounds the frame stack (default 512).
	MaxFrameDepth int
}

// MaxFrames reports the frame stack bound.
func (e *Env) MaxFrames() int {
	if e.MaxFrameDepth <= 0 {
		return 512
	}
	return e.MaxFrameDepth
}

// errKilled is a sentinel for thread termination honoured at safepoints.
var errKilled = errors.New("interp: thread killed")

// throwable constructs a VM-raised throwable via the env.
func (e *Env) throwable(t *Thread, cls, msg string) (*object.Object, error) {
	if e.Throwable == nil {
		return nil, fmt.Errorf("interp: no Throwable factory (wanted %s: %s)", cls, msg)
	}
	return e.Throwable(t, cls, msg)
}

// AllocObject allocates an instance of c on the thread's allocation heap,
// triggering a GC and retrying once if the heap's memlimit is hit. It
// returns *Thrown(OutOfMemoryError) when memory is genuinely exhausted.
func (e *Env) AllocObject(t *Thread, c *object.Class) (*object.Object, error) {
	h := t.AllocHeap()
	o, err := h.Alloc(c)
	if err == nil {
		return o, nil
	}
	if !isMemErr(err) {
		return nil, err
	}
	if e.CollectHeap != nil {
		e.CollectHeap(t, h)
		if o, err = h.Alloc(c); err == nil {
			return o, nil
		}
	}
	return nil, e.oom(t, err)
}

// AllocArray is AllocObject for arrays.
func (e *Env) AllocArray(t *Thread, c *object.Class, n int) (*object.Object, error) {
	h := t.AllocHeap()
	o, err := h.AllocArray(c, n)
	if err == nil {
		return o, nil
	}
	if !isMemErr(err) {
		return nil, err
	}
	if e.CollectHeap != nil {
		e.CollectHeap(t, h)
		if o, err = h.AllocArray(c, n); err == nil {
			return o, nil
		}
	}
	return nil, e.oom(t, err)
}

func (e *Env) oom(t *Thread, cause error) error {
	// Building the OutOfMemoryError itself needs memory; the throwable
	// factory allocates it on the kernel heap to guarantee progress.
	obj, err := e.throwable(t, ClsOutOfMemory, cause.Error())
	if err != nil {
		return fmt.Errorf("interp: allocating OutOfMemoryError: %w (original: %v)", err, cause)
	}
	return &Thrown{Obj: obj}
}

func isMemErr(err error) bool {
	var ex *memlimit.ErrExceeded
	return errors.As(err, &ex)
}
