package serve

import (
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"testing"
	"time"
)

func gcPercentInForce() int {
	s := []metrics.Sample{{Name: "/gc/gogc:percent"}}
	metrics.Read(s)
	return int(s[0].Value.Uint64())
}

// TestPlanePacesGoHeap runs a two-shard plane under traffic and checks
// that it owns the process's Go GC pacing: the pacer sets a GC percent at
// or above the floor from a measured live heap and allocation rate, every
// shard exports the setting and its inputs on /metrics, and Close
// restores the GC percent that was in force before the plane started.
func TestPlanePacesGoHeap(t *testing.T) {
	const marker = 137
	defer debug.SetGCPercent(debug.SetGCPercent(marker))
	pacer.mu.Lock()
	planes := pacer.planes
	pacer.mu.Unlock()
	if planes != 0 {
		t.Fatalf("%d planes from earlier tests still hold the pacer", planes)
	}

	s, _ := startSharded(t, 2, Config{}, []TenantConfig{{Route: "/a"}, {Route: "/b"}})
	addr, err := s.ServeTelemetry("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Traffic for a few pacing periods, with a collection in between so
	// the live heap is measured.
	for deadline := time.Now().Add(4 * paceEvery); time.Now().Before(deadline); {
		for _, route := range []string{"/a", "/b"} {
			if status, _ := s.Do(route, []byte("pace")); status != http.StatusOK {
				t.Fatalf("%s: status %d", route, status)
			}
		}
		runtime.GC()
	}
	if got := gcPercentInForce(); got < 100 {
		t.Errorf("GC percent in force %d, want at least the floor", got)
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, fam := range []string{"kaffeos_go_gc_percent", "kaffeos_go_heap_goal_bytes",
		"kaffeos_go_heap_live_bytes", "kaffeos_go_alloc_bytes_per_s"} {
		shards := map[string]bool{}
		for _, line := range strings.Split(string(text), "\n") {
			if !strings.HasPrefix(line, fam+"{") || !strings.Contains(line, `pid="0"`) {
				continue
			}
			v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			if err != nil || v <= 0 {
				t.Errorf("%s: %q", fam, line)
			}
			shards[line[:strings.Index(line, ",")]] = true
		}
		if len(shards) != 2 {
			t.Errorf("%s exported by %d shards, want 2:\n%s", fam, len(shards), text)
		}
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := gcPercentInForce(); got != marker {
		t.Errorf("after the last Close the GC percent is %d, want the %d in force before", got, marker)
	}
}
