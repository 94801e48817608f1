// Command servbench regenerates the paper's Figure 4: scaling behaviour
// of JVM deployment models as the number of servlets increases, with and
// without a MemHog denial-of-service servlet.
//
// Usage:
//
//	servbench            # the six curves of Figure 4: four measured on one
//	                     # serving-plane shard, IBM/1 modelled (a few minutes)
//	servbench -json f    # ... and write the points and the paper's features
//	servbench -net -requests 10000 -clients 32   # real HTTP load against a
//	                     # self-hosted serving plane (one process per route)
//	servbench -net -target http://host:8080      # aim at a running `kaffeos serve`
//	servbench -net -json out.json                # self-describing JSON artifact
//	servbench -net -overcommit -membudget 12582912  # A/B: static even-split
//	                     # limits vs the memory controller under one budget
//	servbench -net -coldstart                       # A/B: clinit cold starts vs
//	                     # zygote forks, gated at a 10x median improvement
//	servbench -net -codecache                       # A/B: private per-process JIT
//	                     # vs the shared code cache, gated at a 3x median improvement
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	net := flag.Bool("net", false, "generate real HTTP load against a serving plane (self-hosted unless -target)")
	coldstart := flag.Bool("coldstart", false, "-net: run the cold-start A/B (clinit init vs zygote fork), gated at 10x")
	trials := flag.Int("trials", 24, "-net -coldstart: scale-from-zero trials per arm")
	codecache := flag.Bool("codecache", false, "-net: run the shared-code-cache A/B (private JIT per process vs shared artifacts), gated at 3x")
	overcommit := flag.Bool("overcommit", false, "-net: run the overcommit A/B (static limits vs memory controller) under -membudget")
	memBudget := flag.Uint64("membudget", 12<<20, "-net -overcommit: global tenant memory budget in bytes")
	requests := flag.Uint64("requests", 10000, "-net: total requests (default 1600 for an A/B)")
	target := flag.String("target", "", "-net: base URL of a running server (empty = self-host)")
	routes := flag.String("routes", "/zone0,/zone1,/zone2,/memhog:hog:1024", "-net: route spec (see kaffeos serve)")
	clients := flag.Int("clients", 32, "-net: concurrent client connections")
	bodyBytes := flag.Int("body", 64, "-net: request body size in bytes")
	shards := flag.Int("shards", 1, "-net: engine shards for the self-hosted plane (one VM per shard)")
	jsonPath := flag.String("json", "", "write the run report (with host info) to this file")
	flag.Parse()

	var err error
	switch {
	case *net && (*coldstart || *codecache || *overcommit):
		opts := abOptions{
			trials: *trials, shards: *shards, clients: *clients, requests: *requests,
			memBudget: *memBudget,
		}
		if opts.trials <= 0 {
			opts.trials = 24
		}
		if !flagSet("requests") {
			opts.requests = 1600
		}
		if !flagSet("clients") {
			opts.clients = 128
		}
		selected := map[string]bool{"coldstart": *coldstart, "codecache": *codecache, "overcommit": *overcommit}
		for _, exp := range abExperiments(opts) {
			if selected[exp.name] {
				_, err = runAB(exp, os.Stdout, *jsonPath)
				break
			}
		}
	case *net:
		err = netBench(*target, *routes, *clients, *requests, *bodyBytes, *shards, *jsonPath)
	default:
		err = figure4(os.Stdout, *jsonPath)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "servbench: %v\n", err)
		os.Exit(1)
	}
}

// flagSet reports whether the user passed a flag explicitly.
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}
