package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// checkWindow holds a snapshot of sequence numbers to the ring contract:
// the last min(total, capacity) values, oldest first, contiguous.
func checkWindow(t *testing.T, what string, seqs []uint64, total uint64, capacity int) {
	t.Helper()
	want := min(total, uint64(capacity))
	if uint64(len(seqs)) != want {
		t.Fatalf("%s after %d: %d retained, want %d", what, total, len(seqs), want)
	}
	for i, s := range seqs {
		if s != total-want+uint64(i) {
			t.Fatalf("%s after %d: retained[%d] = %d, want %d", what, total, i, s, total-want+uint64(i))
		}
	}
}

// TestRingsGrowOnUse appends one value at a time to a tracer and a span
// recorder, through every doubling of their buffers and twice around the
// full ring, and checks after each append that the retained window, Seq,
// Capacity and Dropped are exactly what a ring allocated up front keeps.
// Capacities that are not a power of two make the last step a partial
// doubling.
func TestRingsGrowOnUse(t *testing.T) {
	for _, capacity := range []int{1, 5, ringFirst, 1000} {
		tr := NewTracer(capacity)
		rec := NewSpanRecorder(capacity)
		if len(tr.r.buf) != 0 || len(rec.r.buf) != 0 {
			t.Fatalf("cap %d: rings allocated before first use", capacity)
		}
		for n := uint64(1); n <= uint64(3*capacity); n++ {
			if e := tr.Append(Event{Kind: EvYield, A: n - 1}); e.Seq != n-1 {
				t.Fatalf("cap %d: Append assigned Seq %d, want %d", capacity, e.Seq, n-1)
			}
			rec.Record(Span{ID: n - 1})
			if got := len(tr.r.buf); got > min(capacity, max(2*int(n), ringFirst)) {
				t.Fatalf("cap %d after %d appends: buffer of %d", capacity, n, got)
			}
			var seqs, ids []uint64
			for _, e := range tr.Snapshot() {
				if e.A != e.Seq {
					t.Fatalf("cap %d: event Seq %d carries payload %d", capacity, e.Seq, e.A)
				}
				seqs = append(seqs, e.Seq)
			}
			for _, sp := range rec.Snapshot() {
				ids = append(ids, sp.ID)
			}
			checkWindow(t, "tracer", seqs, n, capacity)
			checkWindow(t, "spans", ids, n, capacity)
			dropped := n - min(n, uint64(capacity))
			if tr.Dropped() != dropped || rec.Dropped() != dropped {
				t.Fatalf("cap %d after %d: dropped %d/%d, want %d", capacity, n, tr.Dropped(), rec.Dropped(), dropped)
			}
			if tr.Capacity() != capacity || rec.Capacity() != capacity || tr.Total() != n || rec.Total() != n {
				t.Fatalf("cap %d after %d: capacity %d/%d, total %d/%d", capacity, n,
					tr.Capacity(), rec.Capacity(), tr.Total(), rec.Total())
			}
		}
		if len(tr.r.buf) != capacity || len(rec.r.buf) != capacity {
			t.Errorf("cap %d: full rings hold %d/%d slots", capacity, len(tr.r.buf), len(rec.r.buf))
		}
	}
	if c := NewTracer(0).Capacity(); c != DefaultRingSize {
		t.Errorf("default tracer capacity %d, want %d", c, DefaultRingSize)
	}
	if c := NewSpanRecorder(0).Capacity(); c != DefaultSpanRing {
		t.Errorf("default span capacity %d, want %d", c, DefaultSpanRing)
	}
}

// TestRingsGrowUnderConcurrentAppends runs appenders against a tracer and
// a span recorder while their buffers grow and wrap (run it under -race):
// every Seq is handed out once, and the retained window is contiguous
// and oldest first, also in the JSONL dump.
func TestRingsGrowUnderConcurrentAppends(t *testing.T) {
	const writers, each, capacity = 8, 500, 3000
	tr := NewTracer(capacity)
	rec := NewSpanRecorder(capacity)
	var wg sync.WaitGroup
	seen := make([][]uint64, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				e := tr.Append(Event{Kind: EvDispatch, Pid: int32(w)})
				seen[w] = append(seen[w], e.Seq)
				rec.Record(Span{ID: rec.NextID(), Shard: w})
				if i%100 == 0 {
					_ = tr.Snapshot()
					_ = rec.Dropped()
				}
			}
		}(w)
	}
	wg.Wait()

	const total = writers * each
	handed := make(map[uint64]bool, total)
	for _, seqs := range seen {
		for _, s := range seqs {
			if handed[s] {
				t.Fatalf("Seq %d handed out twice", s)
			}
			handed[s] = true
		}
	}
	var seqs []uint64
	for _, e := range tr.Snapshot() {
		seqs = append(seqs, e.Seq)
	}
	checkWindow(t, "tracer", seqs, total, capacity)
	if tr.Dropped() != total-capacity || rec.Dropped() != total-capacity {
		t.Errorf("dropped %d/%d, want %d", tr.Dropped(), rec.Dropped(), total-capacity)
	}
	if got := len(rec.Snapshot()); got != capacity {
		t.Errorf("span ring retains %d, want %d", got, capacity)
	}

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != capacity {
		t.Fatalf("JSONL has %d lines, want %d", len(lines), capacity)
	}
	for i, line := range lines {
		var m struct{ Seq uint64 }
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatal(err)
		}
		if want := uint64(total - capacity + i); m.Seq != want {
			t.Fatalf("JSONL line %d: seq %d, want %d", i, m.Seq, want)
		}
	}
}
