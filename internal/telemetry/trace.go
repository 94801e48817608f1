package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// DefaultRingSize is the tracer's default capacity in events.
const DefaultRingSize = 1 << 16

// Tracer is a bounded ring buffer of events. Appends are serialized with
// a mutex (the scheduler's host goroutine is the main producer; pollers
// and tests may emit concurrently); when the ring is full the oldest
// events are overwritten, so a trace always holds the most recent window.
// The ring grows on first use, so a VM that never traces holds no events.
type Tracer struct {
	mu sync.Mutex
	r  ring[Event] // r.total is the Seq of the next event
}

// NewTracer creates a tracer holding up to capacity events
// (DefaultRingSize if capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultRingSize
	}
	return &Tracer{r: newRing[Event](capacity)}
}

// Append records an event, assigning its sequence number, and reports it.
func (tr *Tracer) Append(e Event) Event {
	tr.mu.Lock()
	e.Seq = tr.r.total
	tr.r.push(e)
	tr.mu.Unlock()
	return e
}

// Total reports how many events were ever appended (including ones the
// ring has since overwritten).
func (tr *Tracer) Total() uint64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.r.total
}

// Capacity reports the ring size.
func (tr *Tracer) Capacity() int { return tr.r.limit }

// Dropped reports how many events fell off the ring.
func (tr *Tracer) Dropped() uint64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.r.dropped()
}

// Snapshot returns the retained events, oldest first.
func (tr *Tracer) Snapshot() []Event {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.r.snapshot()
}

// MarshalEvent renders one event as a JSON object with kind-specific
// payload keys.
func MarshalEvent(e Event) ([]byte, error) {
	aName, bName := FieldNames(e.Kind)
	m := map[string]any{
		"seq":      e.Seq,
		"t_cycles": e.Time,
		"kind":     e.Kind.String(),
		"pid":      e.Pid,
		aName:      e.A,
		bName:      e.B,
	}
	if e.Req != 0 {
		m["req"] = e.Req
	}
	if e.Detail != "" {
		m["detail"] = e.Detail
	}
	return json.Marshal(m)
}

// WriteJSONL dumps the retained events as JSON lines, oldest first.
func (tr *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, e := range tr.Snapshot() {
		line, err := MarshalEvent(e)
		if err != nil {
			return err
		}
		if _, err := bw.Write(line); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
