package serve

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

func startSharded(t *testing.T, shards int, cfg Config, tenants []TenantConfig) (*Server, string) {
	t.Helper()
	cfg.Shards = shards
	s, _, base := startServer(t, core.Config{}, cfg, tenants)
	return s, base
}

func auditAllShards(t *testing.T, s *Server) {
	t.Helper()
	for i, vm := range s.VMs() {
		if rep := vm.Audit(true); !rep.OK() {
			t.Fatalf("shard %d post-teardown audit failed:\n%s", i, rep)
		}
	}
}

// TestShardedE2E drives real HTTP traffic through a 4-shard plane: every
// request to a well-behaved tenant must return 200 regardless of which
// shard owns it, and every shard's VM must audit green after teardown.
func TestShardedE2E(t *testing.T) {
	tenants := make([]TenantConfig, 8)
	for i := range tenants {
		tenants[i] = TenantConfig{Route: fmt.Sprintf("/t%d", i), WorkUnits: 20}
	}
	s, base := startSharded(t, 4, Config{}, tenants)

	if s.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", s.Shards())
	}
	// The default placement (LeastLoaded) round-robins by tenant count:
	// 8 tenants over 4 shards must land 2 per shard.
	perShard := make(map[int]int)
	for _, row := range s.Rows() {
		if row.Shard < 0 || row.Shard >= 4 {
			t.Fatalf("%s on shard %d", row.Route, row.Shard)
		}
		perShard[row.Shard]++
	}
	for sh, n := range perShard {
		if n != 2 {
			t.Errorf("shard %d owns %d tenants, want 2 (placement %v)", sh, n, perShard)
		}
	}

	const total = 800
	var bad, hung atomic.Uint64
	var next atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Timeout: 20 * time.Second}
			for {
				i := next.Add(1) - 1
				if i >= total {
					return
				}
				route := tenants[int(i)%len(tenants)].Route
				resp, err := client.Post(base+route, "text/plain",
					strings.NewReader(fmt.Sprintf("req-%d-from-%d", i, c)))
				if err != nil {
					hung.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					bad.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	if hung.Load() != 0 {
		t.Errorf("%d requests got no HTTP response", hung.Load())
	}
	if bad.Load() != 0 {
		t.Errorf("%d non-200 responses from well-behaved tenants across shards", bad.Load())
	}
	// Every shard must actually have served traffic, not just existed.
	loads := s.Loads()
	for _, ld := range loads {
		if ld.Cycles == 0 {
			t.Errorf("shard %d executed zero cycles; traffic never reached it (%+v)", ld.Shard, loads)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	auditAllShards(t, s)
}

// TestShardedIsolation puts a MemHog on a multi-shard plane: its deaths
// and restarts must never produce a non-200 for any other tenant, on its
// own shard or any other.
func TestShardedIsolation(t *testing.T) {
	tenants := []TenantConfig{
		{Route: "/a", WorkUnits: 30, MemKB: 8192},
		{Route: "/b", WorkUnits: 30, MemKB: 8192},
		{Route: "/c", WorkUnits: 30, MemKB: 8192},
		{Route: "/hog", Hog: true, MemKB: 1024, QueueMax: 32, ShedFraction: -1},
	}
	s, base := startSharded(t, 2, Config{RequestTimeout: 20 * time.Second}, tenants)

	const total = 1200
	var neighbourBad, hogUnanswered, hung atomic.Uint64
	var next atomic.Uint64
	var wg sync.WaitGroup
	routes := []string{"/a", "/b", "/c", "/hog"}
	for c := 0; c < 12; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 25 * time.Second}
			for {
				i := next.Add(1) - 1
				if i >= total {
					return
				}
				r := int(i) % len(routes)
				resp, err := client.Post(base+routes[r], "text/plain", strings.NewReader("x"))
				if err != nil {
					hung.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch {
				case r == 3:
					if resp.StatusCode != http.StatusOK &&
						resp.StatusCode != http.StatusBadGateway &&
						resp.StatusCode != http.StatusServiceUnavailable {
						hogUnanswered.Add(1)
					}
				case resp.StatusCode != http.StatusOK:
					neighbourBad.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if hung.Load() != 0 {
		t.Errorf("%d requests got no response", hung.Load())
	}
	if neighbourBad.Load() != 0 {
		t.Errorf("neighbours saw %d non-200s (cross-tenant/cross-shard isolation violated)", neighbourBad.Load())
	}
	if hogUnanswered.Load() != 0 {
		t.Errorf("%d hog requests answered outside 200/502/503", hogUnanswered.Load())
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	auditAllShards(t, s)
}

// TestLeastLoaded pins the default placement: fewest tenants, the first
// shard on ties.
func TestLeastLoaded(t *testing.T) {
	cases := []struct {
		name  string
		loads []ShardLoad
		want  int
	}{
		{"empty plane", []ShardLoad{{Shard: 0}, {Shard: 1}}, 0},
		{"fewest tenants", []ShardLoad{{Shard: 0, Tenants: 2}, {Shard: 1, Tenants: 1}}, 1},
		{"first wins tie", []ShardLoad{{Shard: 0, Tenants: 1}, {Shard: 1}, {Shard: 2}}, 1},
	}
	for _, tc := range cases {
		if got := LeastLoaded("/r", tc.loads); got != tc.want {
			t.Errorf("%s: LeastLoaded = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestPlacement pins registration-time placement: a custom hook is
// obeyed, and out-of-range hooks are rejected.
func TestPlacement(t *testing.T) {
	var placed []string
	s, err := NewSharded(core.Config{Engine: core.EngineJITOpt}, Config{
		Shards: 3,
		Place: func(route string, loads []ShardLoad) int {
			placed = append(placed, route)
			return 2
		},
	}, []TenantConfig{{Route: "/a"}, {Route: "/b"}})
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	defer s.Close()
	if len(placed) != 2 {
		t.Errorf("placement hook called %d times, want 2", len(placed))
	}
	for _, row := range s.Rows() {
		if row.Shard != 2 {
			t.Errorf("%s on shard %d, want 2", row.Route, row.Shard)
		}
	}

	_, err = NewSharded(core.Config{Engine: core.EngineJITOpt}, Config{
		Shards: 2,
		Place:  func(route string, loads []ShardLoad) int { return 5 },
	}, []TenantConfig{{Route: "/a"}})
	if err == nil {
		t.Error("out-of-range placement: want error")
	}
}

// TestShardsRunCachedCodeConcurrently runs the compile-heavy NetWide
// servlet on two shards at once, each executing the same code-cache
// artifact (same module, same engine variant) on its own goroutine. The
// compiled-body table is read without a lock, so this is the -race check
// that nothing on the call path is shared between shards; both shards must
// answer every body identically and audit clean.
func TestShardsRunCachedCodeConcurrently(t *testing.T) {
	tenants := []TenantConfig{
		{Route: "/w0", Program: Wide, WorkUnits: 20},
		{Route: "/w1", Program: Wide, WorkUnits: 20},
	}
	s, _, _ := startServer(t, core.Config{CodeCache: true}, Config{Shards: 2}, tenants)
	if rows := s.Rows(); rows[0].Shard == rows[1].Shard {
		t.Fatalf("both tenants on shard %d", rows[0].Shard)
	}
	const perRoute = 40
	replies := make([][]string, len(tenants))
	var wg sync.WaitGroup
	for i, tc := range tenants {
		replies[i] = make([]string, perRoute)
		wg.Add(1)
		go func(i int, route string) {
			defer wg.Done()
			for k := 0; k < perRoute; k++ {
				status, body := s.Do(route, []byte(fmt.Sprintf("body-%d", k)))
				if status != http.StatusOK {
					t.Errorf("%s request %d: status %d %q", route, k, status, body)
				}
				replies[i][k] = body
			}
		}(i, tc.Route)
	}
	wg.Wait()
	for k := range replies[0] {
		// Replies are "<tenant> result=N": compare everything past the name.
		_, r0, _ := strings.Cut(replies[0][k], " ")
		_, r1, _ := strings.Cut(replies[1][k], " ")
		if r0 == "" || r0 != r1 {
			t.Fatalf("body-%d: shards disagree: %q vs %q", k, replies[0][k], replies[1][k])
		}
	}
	var keys [2]map[string]bool
	for i, vm := range s.VMs() {
		keys[i] = make(map[string]bool)
		for _, a := range vm.CodeMgr.Artifacts() {
			keys[i][fmt.Sprintf("%x/%s", a.Key.ModuleHash, a.Key.Variant)] = true
		}
	}
	if len(keys[0]) == 0 || fmt.Sprint(keys[0]) != fmt.Sprint(keys[1]) {
		t.Fatalf("shards hold different artifacts: %v vs %v", keys[0], keys[1])
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	auditAllShards(t, s)
}

// TestAdmitDispatchesBeforeShedding sends a burst that one engine pass
// admits at once, to a tenant whose queue holds one request and whose
// process runs eight. Admission must start what the free slots take
// before it refuses "queue full": exactly the requests beyond
// MaxInflight+QueueMax are shed, and every other one answers 200.
func TestAdmitDispatchesBeforeShedding(t *testing.T) {
	const inflight, queue, excess = 8, 1, 2
	const burst = inflight + queue + excess
	s, err := NewSharded(core.Config{Engine: core.EngineJITOpt}, Config{Shards: 1}, []TenantConfig{
		{Route: "/b", WorkUnits: 2000, QueueMax: queue, MaxInflight: inflight}})
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	defer s.Close()
	sh := s.shards[0]

	// The whole burst waits in the submit buffer before the engine loop
	// exists, so its first pass admits all of it.
	statuses := make(chan int, burst)
	for i := 0; i < burst; i++ {
		go func() {
			status, _ := s.Do("/b", []byte("burst"))
			statuses <- status
		}()
	}
	for len(sh.submit) < burst {
		time.Sleep(100 * time.Microsecond)
	}
	if _, err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}

	count := map[int]int{}
	for i := 0; i < burst; i++ {
		count[<-statuses]++
	}
	if count[200] != inflight+queue || count[503] != excess {
		t.Errorf("burst of %d: statuses %v, want %d x 200 and %d x 503", burst, count, inflight+queue, excess)
	}
	if row := s.Rows()[0]; row.Shed != excess {
		t.Errorf("shed %d, want %d", row.Shed, excess)
	}
}
