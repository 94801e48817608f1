package telemetry

import (
	"bufio"
	"encoding/json"
	"strings"
	"testing"
)

func TestSpanRecorderRingWrap(t *testing.T) {
	r := NewSpanRecorder(4)
	if r.Enabled() {
		t.Fatal("recorder enabled by default; spans must be opt-in")
	}
	if got := r.Capacity(); got != 4 {
		t.Fatalf("Capacity = %d, want 4", got)
	}
	for i := 1; i <= 6; i++ {
		id := r.NextID()
		if id != uint64(i) {
			t.Fatalf("NextID = %d, want %d (ids must start at 1 and be dense)", id, i)
		}
		route := "/a"
		if i%2 == 0 {
			route = "/b"
		}
		r.Record(Span{ID: id, Route: route, Status: 200, TotalNs: int64(i) * 100})
	}
	if got := r.Total(); got != 6 {
		t.Errorf("Total = %d, want 6", got)
	}
	if got := r.Dropped(); got != 2 {
		t.Errorf("Dropped = %d, want 2 (6 recorded into a ring of 4)", got)
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("Snapshot len = %d, want 4", len(snap))
	}
	for i, sp := range snap {
		if want := uint64(i + 3); sp.ID != want {
			t.Errorf("snap[%d].ID = %d, want %d (oldest first after wrap)", i, sp.ID, want)
		}
	}
}

func TestSpanRecorderForRoute(t *testing.T) {
	r := NewSpanRecorder(8)
	for i := 1; i <= 6; i++ {
		route := "/a"
		if i%2 == 0 {
			route = "/b"
		}
		r.Record(Span{ID: r.NextID(), Route: route})
	}
	a := r.ForRoute("/a", 0)
	if len(a) != 3 {
		t.Fatalf("ForRoute(/a) len = %d, want 3", len(a))
	}
	for _, sp := range a {
		if sp.Route != "/a" {
			t.Errorf("ForRoute(/a) returned span of route %q", sp.Route)
		}
	}
	// n limits to the most recent, keeping order.
	last2 := r.ForRoute("/a", 2)
	if len(last2) != 2 || last2[0].ID != 3 || last2[1].ID != 5 {
		t.Errorf("ForRoute(/a, 2) = %+v, want ids [3 5]", last2)
	}
	if got := r.ForRoute("/missing", 0); len(got) != 0 {
		t.Errorf("ForRoute(/missing) = %d spans, want 0", len(got))
	}
}

func TestSpanRecorderWriteJSONL(t *testing.T) {
	r := NewSpanRecorder(8)
	r.Record(Span{ID: 1, Route: "/x", Status: 200, ExecCycles: 42, TotalNs: 1000})
	r.Record(Span{ID: 2, Route: "/x", Status: 503, Detail: "submit queue full"})
	var sb strings.Builder
	if err := r.WriteJSONL(&sb); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	var got []Span
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	for sc.Scan() {
		var sp Span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		got = append(got, sp)
	}
	if len(got) != 2 {
		t.Fatalf("decoded %d spans, want 2", len(got))
	}
	if got[0].ID != 1 || got[0].ExecCycles != 42 || got[0].TotalNs != 1000 {
		t.Errorf("span 1 round-trip mismatch: %+v", got[0])
	}
	if got[1].Status != 503 || got[1].Detail != "submit queue full" {
		t.Errorf("span 2 round-trip mismatch: %+v", got[1])
	}
	// A 200 span must omit the detail field entirely.
	if strings.Contains(strings.SplitN(sb.String(), "\n", 2)[0], "detail") {
		t.Errorf("detail field present on a span without one: %s", sb.String())
	}
}

func TestCyclesToNs(t *testing.T) {
	// 500 MHz virtual clock: one cycle is two nanoseconds.
	if got := CyclesToNs(CyclesPerMs); got != 1_000_000 {
		t.Fatalf("CyclesToNs(CyclesPerMs) = %d, want 1ms", got)
	}
}

// What the serving plane does for every request's span allocates nothing:
// with spans off, the enabled check; with spans on, the id, the ring slot
// and the five kernel phase histograms.
func TestSpanEmissionAllocatesNothing(t *testing.T) {
	for _, on := range []bool{false, true} {
		rec := NewSpanRecorder(0)
		rec.SetEnabled(on)
		k := NewHub(0).Reg.Kernel()
		hists := []*Histogram{k.Histogram(MSpanQueueNs), k.Histogram(MSpanMarshalNs),
			k.Histogram(MSpanExecCycles), k.Histogram(MSpanGCCycles), k.Histogram(MSpanTotalNs)}
		n := testing.AllocsPerRun(100, func() {
			if !rec.Enabled() {
				return
			}
			sp := Span{ID: rec.NextID(), Route: "/pin", Pid: 1, Status: 200, QueueNs: 120, MarshalNs: 40,
				ExecCycles: 2000, GCCycles: 500, GCNs: CyclesToNs(500), Quanta: 2, TotalNs: 5000}
			rec.Record(sp)
			for i, v := range []uint64{uint64(sp.QueueNs), uint64(sp.MarshalNs), sp.ExecCycles, sp.GCCycles, uint64(sp.TotalNs)} {
				hists[i].Observe(v)
			}
		})
		if n != 0 || on != (rec.Total() > 0) {
			t.Errorf("spans on=%v: %v Go allocations per span, %d recorded; want 0 allocations", on, n, rec.Total())
		}
	}
}
