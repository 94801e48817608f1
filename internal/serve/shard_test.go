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
	"repro/internal/telemetry"
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
	s, base := startSharded(t, 4, Config{Place: LeastLoaded}, tenants)

	if s.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", s.Shards())
	}
	// LeastLoaded placement on an idle plane round-robins by tenant count:
	// 8 tenants over 4 shards must land 2 per shard.
	perShard := make(map[int]int)
	for i := range tenants {
		sh := s.ShardOf(tenants[i].Route)
		if sh < 0 || sh >= 4 {
			t.Fatalf("ShardOf(%s) = %d", tenants[i].Route, sh)
		}
		perShard[sh]++
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
	s, base := startSharded(t, 2, Config{Place: LeastLoaded, RequestTimeout: 20 * time.Second}, tenants)

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

// TestMigrateUnderTraffic moves a tenant between shards while clients
// hammer it: during the move requests may shed 503 but must never hang
// or error with anything but 502/503; after the move the tenant serves
// 200s from the target shard and both shards audit green.
func TestMigrateUnderTraffic(t *testing.T) {
	tenants := []TenantConfig{
		{Route: "/hot", WorkUnits: 20},
		{Route: "/other", WorkUnits: 20},
	}
	s, base := startSharded(t, 2, Config{
		Place:          func(route string, loads []ShardLoad) int { return 0 }, // everything starts on shard 0
		RequestTimeout: 10 * time.Second,
	}, tenants)

	if got := s.ShardOf("/hot"); got != 0 {
		t.Fatalf("ShardOf(/hot) = %d before migration, want 0", got)
	}

	stop := make(chan struct{})
	var badStatus, hung atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 20 * time.Second}
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Post(base+"/hot", "text/plain", strings.NewReader("x"))
				if err != nil {
					hung.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK &&
					resp.StatusCode != http.StatusBadGateway &&
					resp.StatusCode != http.StatusServiceUnavailable {
					badStatus.Add(1)
				}
			}
		}()
	}

	time.Sleep(50 * time.Millisecond) // traffic in flight
	if err := s.Migrate("/hot", 1); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if got := s.ShardOf("/hot"); got != 1 {
		t.Fatalf("ShardOf(/hot) = %d after migration, want 1", got)
	}
	time.Sleep(50 * time.Millisecond) // traffic lands on the new shard
	close(stop)
	wg.Wait()

	if hung.Load() != 0 {
		t.Errorf("%d requests hung or failed at the HTTP layer during migration", hung.Load())
	}
	if badStatus.Load() != 0 {
		t.Errorf("%d responses outside 200/502/503 during migration", badStatus.Load())
	}

	// The moved tenant must serve from the target shard.
	status, body := get(t, http.DefaultClient, base+"/hot", "after")
	if status != http.StatusOK {
		t.Fatalf("post-migration request: status %d body %q", status, body)
	}
	// The bystander on the source shard was never disturbed.
	if status, body := get(t, http.DefaultClient, base+"/other", "x"); status != http.StatusOK {
		t.Fatalf("bystander after migration: status %d body %q", status, body)
	}
	var hotRow TenantRow
	for _, row := range s.Rows() {
		if row.Route == "/hot" {
			hotRow = row
		}
	}
	if hotRow.Migrations != 1 {
		t.Errorf("migrations = %d, want 1 (row %+v)", hotRow.Migrations, hotRow)
	}
	if hotRow.Shard != 1 {
		t.Errorf("row shard = %d, want 1", hotRow.Shard)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	auditAllShards(t, s)
}

// TestMigrateErrors pins the migration error surface: unknown routes and
// out-of-range shards fail, moving onto the current shard is a no-op.
func TestMigrateErrors(t *testing.T) {
	s, _ := startSharded(t, 2, Config{
		Place: func(route string, loads []ShardLoad) int { return 0 },
	}, []TenantConfig{{Route: "/t", WorkUnits: 10}})
	defer func() {
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		auditAllShards(t, s)
	}()

	if err := s.Migrate("/nope", 1); err == nil {
		t.Error("Migrate unknown route: want error")
	}
	if err := s.Migrate("/t", 7); err == nil {
		t.Error("Migrate to shard 7 of 2: want error")
	}
	if err := s.Migrate("/t", -1); err == nil {
		t.Error("Migrate to shard -1: want error")
	}
	if err := s.Migrate("/t", 0); err != nil {
		t.Errorf("Migrate onto current shard: %v, want no-op", err)
	}
	if got := s.ShardOf("/t"); got != 0 {
		t.Errorf("ShardOf(/t) = %d after no-op migrate, want 0", got)
	}
}

// TestLeastLoaded pins the placement hook's tie-breaking order:
// queue+inflight, then tenant count, then cycles.
func TestLeastLoaded(t *testing.T) {
	cases := []struct {
		name  string
		loads []ShardLoad
		want  int
	}{
		{"empty plane", []ShardLoad{{Shard: 0}, {Shard: 1}}, 0},
		{"queue wins", []ShardLoad{{Shard: 0, Queue: 5}, {Shard: 1, Queue: 1}}, 1},
		{"inflight counts", []ShardLoad{{Shard: 0, Inflight: 3}, {Shard: 1, Queue: 1}}, 1},
		{"tenants break ties", []ShardLoad{{Shard: 0, Tenants: 2}, {Shard: 1, Tenants: 1}}, 1},
		{"cycles break ties", []ShardLoad{{Shard: 0, Cycles: 100}, {Shard: 1, Cycles: 50}}, 1},
		{"first wins full tie", []ShardLoad{{Shard: 0}, {Shard: 1}, {Shard: 2}}, 0},
	}
	for _, tc := range cases {
		if got := LeastLoaded("/r", tc.loads); got != tc.want {
			t.Errorf("%s: LeastLoaded = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestPlacement pins registration-time placement: the hash default is
// stable, a custom hook is obeyed, and out-of-range hooks are rejected.
func TestPlacement(t *testing.T) {
	if a, b := hashShard("/zone0", 4), hashShard("/zone0", 4); a != b {
		t.Errorf("hashShard not stable: %d vs %d", a, b)
	}
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
	if len(placed) != 2 {
		t.Errorf("placement hook called %d times, want 2", len(placed))
	}
	for _, route := range []string{"/a", "/b"} {
		if got := s.ShardOf(route); got != 2 {
			t.Errorf("ShardOf(%s) = %d, want 2", route, got)
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

// TestNewShardedRejectsSharedHub: per-shard hubs are structural — a
// caller-supplied hub would silently serialize all shards' telemetry.
func TestNewShardedRejectsSharedHub(t *testing.T) {
	_, err := NewSharded(core.Config{Engine: core.EngineJITOpt, Telemetry: telemetry.NewHub(0)},
		Config{Shards: 2}, []TenantConfig{{Route: "/a"}})
	if err == nil {
		t.Error("NewSharded with shared hub: want error")
	}
}
