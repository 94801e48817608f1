// Netserve: the paper's MemHog experiment over a real socket. Four
// tenants — three well-behaved servlet processes and one MemHog with its
// admission high-water disabled — serve concurrent HTTP traffic. The hog
// walks into its memlimit and is killed and restarted, repeatedly, while
// the neighbours answer every single request with 200.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/serve"
)

func main() {
	requests := flag.Int("requests", 4000, "total requests to drive")
	clients := flag.Int("clients", 16, "concurrent client connections")
	flag.Parse()

	srv, err := serve.NewSharded(core.Config{Engine: core.EngineJITOpt}, serve.Config{Shards: 1}, []serve.TenantConfig{
		{Route: "/zone0"},
		{Route: "/zone1"},
		{Route: "/zone2"},
		// ShedFraction -1 disables the graceful high-water shed, so the
		// hog runs straight into its memlimit: the kernel kill is the
		// isolation boundary under test.
		{Route: "/memhog", Hog: true, MemKB: 1024, ShedFraction: -1},
	})
	if err != nil {
		log.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	base := "http://" + addr
	fmt.Printf("netserve: 3 servlet zones + 1 MemHog on %s, %d requests, %d clients\n",
		base, *requests, *clients)

	routes := []string{"/zone0", "/zone1", "/zone2", "/memhog"}
	var neighbourErrs, hogFailures atomic.Uint64
	var next atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= *requests {
					return
				}
				route := routes[i%len(routes)]
				resp, err := http.Post(base+route, "text/plain", strings.NewReader("payload"))
				if err != nil {
					neighbourErrs.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					if route == "/memhog" {
						hogFailures.Add(1)
					} else {
						neighbourErrs.Add(1)
					}
				}
			}
		}()
	}
	wg.Wait()

	rows := srv.Rows()
	if err := srv.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%-10s %-8s %8s %8s %8s %8s %9s\n",
		"route", "role", "requests", "ok", "shed", "errors", "restarts")
	for _, r := range rows {
		fmt.Printf("%-10s %-8s %8d %8d %8d %8d %9d\n",
			r.Route, r.Role, r.Requests, r.OK, r.Shed, r.Errors, r.Restarts)
	}
	fmt.Println()
	var restarts uint64
	for _, r := range rows {
		if r.Role == "memhog" {
			restarts = r.Restarts
		}
	}
	switch {
	case neighbourErrs.Load() > 0:
		log.Fatalf("FAIL: neighbours saw %d errors — isolation violated", neighbourErrs.Load())
	case restarts == 0:
		log.Fatal("FAIL: the MemHog never died — nothing was demonstrated")
	default:
		fmt.Printf("the MemHog was killed by its memlimit and restarted %d times\n", restarts)
		fmt.Printf("(%d of its requests failed or were shed); the neighbours answered\n", hogFailures.Load())
		fmt.Println("every request with 200 — kernel isolation held under real traffic.")
	}
	if rep := srv.VMs()[0].Audit(true); !rep.OK() {
		log.Fatalf("FAIL: post-run audit:\n%s", rep)
	}
	fmt.Println("post-run kernel audit: all invariants hold.")
}
