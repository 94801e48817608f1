package serve

import (
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
)

// parseResult extracts the checksum from a "name result=N" response body.
func parseResult(t *testing.T, body string) int64 {
	t.Helper()
	i := strings.LastIndex(body, "result=")
	if i < 0 {
		t.Fatalf("no result in body %q", body)
	}
	n, err := strconv.ParseInt(strings.TrimSpace(body[i+len("result="):]), 10, 64)
	if err != nil {
		t.Fatalf("bad result in body %q: %v", body, err)
	}
	return n
}

// TestServeTemplateForkCorrectness runs the same warm servlet twice — one
// tenant initialized the classic way, one forked from a checkpointed
// zygote — and demands identical answers: the fork path must be
// observationally equivalent to running the clinit, all the way out to
// the HTTP response.
func TestServeTemplateForkCorrectness(t *testing.T) {
	s, vm, base := startServer(t, core.Config{}, Config{}, []TenantConfig{
		{Route: "/classic", Warm: true, WorkUnits: 50},
		{Route: "/zygote", Warm: true, WorkUnits: 50, Template: true},
	})

	for _, body := range []string{"", "x", "hello world", strings.Repeat("q", 700)} {
		st1, b1 := get(t, http.DefaultClient, base+"/classic", body)
		st2, b2 := get(t, http.DefaultClient, base+"/zygote", body)
		if st1 != http.StatusOK || st2 != http.StatusOK {
			t.Fatalf("body %q: classic %d %q, zygote %d %q", body, st1, b1, st2, b2)
		}
		if r1, r2 := parseResult(t, b1), parseResult(t, b2); r1 != r2 {
			t.Errorf("body %q: classic result %d, forked result %d — clone diverges from clinit", body, r1, r2)
		}
	}

	// Exactly one zygote template exists for the shape, cached on the shard.
	if got := len(vm.Templates()); got != 1 {
		t.Errorf("%d templates live, want 1 shared zygote", got)
	}

	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Shutdown released the zygotes; teardown is as clean as a no-template run.
	if got := len(vm.Templates()); got != 0 {
		t.Errorf("%d templates survive Close", got)
	}
	auditOK(t, vm)
}

// TestServeTemplateRestartForksFromZygote kills a template tenant
// mid-request with the fault plane: the supervisor's restart must fork a
// fresh incarnation from the cached zygote (no second checkpoint), and
// the reborn tenant must answer exactly as before death.
func TestServeTemplateRestartForksFromZygote(t *testing.T) {
	plan, err := faults.ParsePlan("seed=3,serve.dispatch=@2")
	if err != nil {
		t.Fatal(err)
	}
	s, vm, base := startServer(t, core.Config{Faults: faults.NewPlane(plan)},
		Config{RestartBackoff: 2 * time.Millisecond},
		[]TenantConfig{{Route: "/z", Warm: true, Template: true, WorkUnits: 30}})
	defer func() {
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		auditOK(t, vm)
	}()

	status, body := get(t, http.DefaultClient, base+"/z", "ping")
	if status != http.StatusOK {
		t.Fatalf("first request: %d %q", status, body)
	}
	want := parseResult(t, body)
	firstPid := s.Rows()[0].Pid

	// Request 2 dies mid-flight to the injected kill.
	if status, body := get(t, http.DefaultClient, base+"/z", "ping"); status != http.StatusBadGateway {
		t.Fatalf("faulted request: %d %q, want 502", status, body)
	}

	// The supervisor forks a replacement; same answer, new pid.
	deadline := time.Now().Add(5 * time.Second)
	for {
		status, body = get(t, http.DefaultClient, base+"/z", "ping")
		if status == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant never came back; last status %d %q", status, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := parseResult(t, body); got != want {
		t.Errorf("restarted incarnation answers %d, first answered %d", got, want)
	}
	row := s.Rows()[0]
	if row.Restarts == 0 {
		t.Error("restart not recorded")
	}
	if row.Pid == firstPid {
		t.Errorf("restarted incarnation kept pid %d; want a fresh process", firstPid)
	}
	// Still exactly one template: restarts reuse the zygote, they do not
	// re-checkpoint.
	if got := len(vm.Templates()); got != 1 {
		t.Errorf("%d templates after restart, want the one cached zygote", got)
	}
}

// TestServeLazyScaleFromZero registers a lazy template tenant: no
// process, no zygote, nothing until the first request — which then pays
// one checkpoint plus one fork and is answered 200.
func TestServeLazyScaleFromZero(t *testing.T) {
	s, vm, base := startServer(t, core.Config{}, Config{}, []TenantConfig{
		{Route: "/cold", Warm: true, Template: true, Lazy: true, WorkUnits: 20},
	})
	defer func() {
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		auditOK(t, vm)
	}()

	if row := s.Rows()[0]; row.Up || row.Pid != 0 {
		t.Fatalf("lazy tenant has a process before any traffic: %+v", row)
	}
	if got := len(vm.Templates()); got != 0 {
		t.Fatalf("%d templates before any traffic, want 0", got)
	}

	status, body := get(t, http.DefaultClient, base+"/cold", "wake up")
	if status != http.StatusOK {
		t.Fatalf("first request to lazy tenant: %d %q", status, body)
	}
	if row := s.Rows()[0]; !row.Up || row.Pid == 0 {
		t.Errorf("lazy tenant not up after first request: %+v", row)
	}
	if got := len(vm.Templates()); got != 1 {
		t.Errorf("%d templates after first request, want 1", got)
	}

	// Steady state: it keeps serving.
	if status, _ := get(t, http.DefaultClient, base+"/cold", "again"); status != http.StatusOK {
		t.Errorf("second request: %d", status)
	}
}
