package core

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/telemetry"
)

// TestConcurrentPollersDuringChurn hammers the introspection surface
// (/metrics, /spans, /audit, /procs) from concurrent scrapers while the
// VM churns processes through create/run/GC/reclaim. Run under -race
// this is the data-race acceptance test for the telemetry read paths:
// pollers must always get a well-formed answer and never a torn one.
func TestConcurrentPollersDuringChurn(t *testing.T) {
	vm := newTestVM(t)
	vm.Tel.SetTracing(true)
	vm.Tel.Spans.SetEnabled(true)

	ts := httptest.NewServer(telemetry.Handler([]telemetry.Source{vm.TelemetrySource()}))
	defer ts.Close()

	churnSrc := `
.class app/Churn
.method main ()V static
.locals 2
.stack 3
	iconst 0
	istore 0
L0:	ldc 256
	newarray [I
	astore 1
	iinc 0 1
	iload 0
	ldc 2000
	if_icmplt L0
	return
.end
.end`

	done := make(chan struct{})
	var polls, failures atomic.Uint64
	var wg sync.WaitGroup
	paths := []string{"/metrics", "/spans", "/audit", "/procs"}
	for _, path := range paths {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			client := &http.Client{}
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := client.Get(ts.URL + path)
				if err != nil {
					failures.Add(1)
					continue
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					failures.Add(1)
					continue
				}
				switch path {
				case "/metrics":
					if !strings.Contains(string(body), "# TYPE kaffeos_") {
						failures.Add(1)
					}
				case "/procs", "/audit":
					if len(body) == 0 || body[0] != '[' {
						failures.Add(1)
					}
				}
				polls.Add(1)
			}
		}(path)
	}

	// The churn: short-lived processes allocating under a tight memlimit,
	// so the pollers race against create, GC, exit, and reclaim.
	for i := 0; i < 20; i++ {
		p := mustProc(t, vm, "churn", ProcessOptions{MemLimit: 1 << 20})
		load(t, p, churnSrc)
		spawn(t, p, "app/Churn", "main()V")
		if err := vm.Run(0); err != nil {
			t.Fatalf("churn round %d: %v", i, err)
		}
		if p.State() != ProcReclaimed {
			t.Fatalf("churn round %d: state %v, want reclaimed", i, p.State())
		}
	}
	close(done)
	wg.Wait()

	if failures.Load() != 0 {
		t.Errorf("%d polls failed or returned malformed bodies", failures.Load())
	}
	if polls.Load() < uint64(len(paths)) {
		t.Errorf("only %d successful polls across %d paths; pollers never got going", polls.Load(), len(paths))
	}
	t.Logf("%d polls served during churn", polls.Load())
}
