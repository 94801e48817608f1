// Servletfarm: a small server farm on one KaffeOS VM, reproducing the
// paper's §4.2 setup end to end — many servlet zones, one process each,
// a client load of requests, and a MemHog in the mix. The farm is the
// one-shard serving plane (internal/serve) driven in process through
// Server.Do, one closed-loop client per zone.
package main

import (
	"flag"
	"fmt"
	"log"
	"sync"

	"repro/internal/core"
	"repro/internal/serve"
)

func main() {
	zones := flag.Int("zones", 6, "number of well-behaved servlet zones")
	requests := flag.Int("requests", 200, "requests each zone must answer")
	hog := flag.Bool("memhog", true, "include a MemHog zone")
	flag.Parse()

	var tenants []serve.TenantConfig
	for i := 0; i < *zones; i++ {
		tenants = append(tenants, serve.TenantConfig{Route: fmt.Sprintf("/zone-%02d", i), MemKB: 2048})
	}
	if *hog {
		// ShedFraction -1: no graceful high-water shed, so the hog runs
		// straight into its memlimit and the kernel kills it.
		tenants = append(tenants, serve.TenantConfig{Route: "/memhog", Hog: true, MemKB: 512, ShedFraction: -1})
	}
	srv, err := serve.NewSharded(core.Config{Engine: core.EngineJITOpt}, serve.Config{Shards: 1}, tenants)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := srv.Start("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	vm := srv.VMs()[0]

	fmt.Printf("farm: %d zones, memhog=%v, %d requests per zone\n", *zones, *hog, *requests)
	start := vm.Sched.NowMillis()
	var wg sync.WaitGroup
	for _, tc := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < *requests; i++ {
				srv.Do(tc.Route, []byte("payload"))
			}
		}()
	}
	wg.Wait()
	ms := vm.Sched.NowMillis() - start
	rows := srv.Rows()
	if err := srv.Close(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("served in %d virtual ms\n", ms)
	fmt.Printf("%-10s %-8s %10s %9s\n", "zone", "role", "handled", "restarts")
	for _, r := range rows {
		fmt.Printf("%-10s %-8s %10d %9d\n", r.Name, r.Role, r.OK, r.Restarts)
	}
	fmt.Printf("\nVM after run: kernel heap %d bytes, %d live processes\n",
		vm.KernelHeap.Bytes(), len(vm.Processes()))
	if rep := vm.Audit(true); !rep.OK() {
		log.Fatalf("post-run audit:\n%s", rep)
	}
	fmt.Println("(the memhog's restarts are its OutOfMemoryError deaths — nobody else noticed)")
}
