package telemetry

// ringFirst is how many values a ring allocates on its first append.
const ringFirst = 64

// ring keeps the last limit values appended to it. It starts empty and
// doubles on append until it holds limit values, then overwrites the
// oldest, so a ring that nothing writes costs no memory and a full one
// costs exactly what it did when rings were allocated up front. Callers
// serialize access.
type ring[T any] struct {
	buf   []T
	limit int
	total uint64 // values ever appended; the index of the next one
}

func newRing[T any](limit int) ring[T] { return ring[T]{limit: limit} }

// push appends v, growing the buffer while it is below its limit.
func (r *ring[T]) push(v T) {
	if n := len(r.buf); r.total == uint64(n) && n < r.limit {
		// Still filling: every slot is in use, in order, so growth is
		// a plain copy and no value moves relative to the next index.
		grown := make([]T, min(max(2*n, ringFirst), r.limit))
		copy(grown, r.buf)
		r.buf = grown
	}
	r.buf[r.total%uint64(len(r.buf))] = v
	r.total++
}

// dropped reports how many values fell off the ring.
func (r *ring[T]) dropped() uint64 {
	if r.total <= uint64(r.limit) {
		return 0
	}
	return r.total - uint64(r.limit)
}

// snapshot returns a copy of the retained values, oldest first.
func (r *ring[T]) snapshot() []T {
	if r.total > uint64(r.limit) {
		// Wrapped (so the buffer is full): the oldest retained value is
		// at total%limit.
		out := make([]T, 0, r.limit)
		start := r.total % uint64(r.limit)
		out = append(out, r.buf[start:]...)
		return append(out, r.buf[:start]...)
	}
	out := make([]T, r.total)
	copy(out, r.buf[:r.total])
	return out
}
