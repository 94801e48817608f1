package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/spec"
)

// workload is one set of inputs the benchmark runs. Exactly one of tenants
// (a serve_* traffic mix) and programs (a batch_* program list) is set.
type workload struct {
	name string
	why  string

	// serve_*: the tenants of the plane, the request body size, and which
	// route (if any) is the misbehaving one the end-to-end metrics exclude.
	tenants   []serve.TenantConfig
	bodyBytes int
	hogRoute  string

	// batch_*: names of the spec programs one round runs once each.
	programs []string
}

func (w *workload) isServe() bool { return len(w.tenants) > 0 }

// wellBehaved lists the routes whose replies count in end-to-end metrics.
func (w *workload) wellBehaved() []serve.TenantConfig {
	var out []serve.TenantConfig
	for _, tc := range w.tenants {
		if tc.Route != w.hogRoute {
			out = append(out, tc)
		}
	}
	return out
}

func zones(n int, tc serve.TenantConfig) []serve.TenantConfig {
	out := make([]serve.TenantConfig, n)
	for i := range out {
		out[i] = tc
		out[i].Route = fmt.Sprintf("/zone%d", i)
	}
	return out
}

// workloads are the five workloads, in the order a full run executes them.
// The README's layer table says which layer each one stresses and which it
// must not move.
var workloads = []*workload{
	{
		name:      "serve_small",
		why:       "tiny requests: the serve plane and Go runtime do nearly all the work, the VM under a tenth of a request",
		tenants:   zones(4, serve.TenantConfig{WorkUnits: 100}),
		bodyBytes: 64,
	},
	{
		name:      "serve_heavy",
		why:       "16 KiB bodies, 4k work units, 1 MiB limits: interp+heap+memlimit+tenant GC dominate server CPU",
		tenants:   zones(4, serve.TenantConfig{WorkUnits: 4000, MemKB: 1024}),
		bodyBytes: 16 << 10,
	},
	{
		name: "serve_hostile",
		why:  "paper Fig. 4 MemHog: 3 good tenants beside a hog killed and restarted many times a second",
		tenants: append(zones(3, serve.TenantConfig{WorkUnits: 100}),
			serve.TenantConfig{Route: "/memhog", Hog: true, MemKB: 1024, ShedFraction: -1, QueueMax: 32}),
		bodyBytes: 64,
		hogRoute:  "/memhog",
	},
	{
		name:     "batch_compute",
		why:      "compress+mpegaudio: straight-line array loops, instruction dispatch cost and little else",
		programs: []string{"compress", "mpegaudio"},
	},
	{
		name:     "batch_pointer",
		why:      "db+javac+jess+jack: calls, allocation, reference stores, GC and exceptions through the same engine",
		programs: []string{"db", "javac", "jess", "jack"},
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// vmConfig and planeConfig build the serving plane exactly as `kaffeos
// serve` does by default.
var vmConfig = core.Config{Engine: core.EngineJITOpt}

func planeConfig(shards int) serve.Config {
	return serve.Config{Shards: shards, Place: serve.LeastLoaded}
}

// connections is K, the number of closed-loop callers and engine shards.
func connections() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// batchPlatform is the production configuration batch programs run on.
var batchPlatform = spec.Platform{
	Name:           "bench",
	Engine:         core.EngineJITOpt,
	FastExceptions: true,
	ThinLocks:      true,
	Barrier:        barrier.NoHeapPointer,
}

// poolSize is how many distinct request bodies a run draws from.
const poolSize = 256

// inputs are the seeded request bodies of a serve workload with the reply
// each well-behaved route must give for each of them.
type inputs struct {
	bodies [][]byte
	// want[route][i] is the exact reply body for bodies[i].
	want map[string][]string
}

// genInputs makes a serve workload's inputs from the seed. The server never
// sees the seed, only the bodies as they arrive on the socket.
func genInputs(w *workload, seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{bodies: make([][]byte, poolSize), want: make(map[string][]string)}
	for i := range in.bodies {
		b := make([]byte, w.bodyBytes)
		rng.Read(b)
		in.bodies[i] = b
	}
	for _, tc := range w.wellBehaved() {
		want := make([]string, poolSize)
		for i, b := range in.bodies {
			want[i] = fmt.Sprintf("%s result=%d\n", tc.Route[1:], servletChecksum(b, tc.WorkUnits))
		}
		in.want[tc.Route] = want
	}
	return in
}

// servletChecksum is an independent Go re-implementation of what
// jserv/NetServlet.handle computes for a request body: the serving plane
// marshals the body as an int array (element 0 the byte length, then the
// bytes packed four per int, little-endian), the servlet folds the array
// with acc=(acc+x)&0xFFFFFF and then runs acc=(acc*31+i)&0xFFFFFF for
// i in [0, workUnits).
func servletChecksum(body []byte, workUnits int) int64 {
	const mask = 0xFFFFFF
	acc := int64(len(body)) & mask
	for i := 0; i < len(body); i += 4 {
		var x int64
		for j := 0; j < 4 && i+j < len(body); j++ {
			x |= int64(body[i+j]) << uint(8*j)
		}
		acc = (acc + x) & mask
	}
	for i := int64(0); i < int64(workUnits); i++ {
		acc = (acc*31 + i) & mask
	}
	return acc
}
