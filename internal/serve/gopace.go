package serve

import (
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/membal"
	"repro/internal/telemetry"
)

// The serving plane paces the Go heap it runs on with the rule membal
// applies to tenant heaps (membal.GCPercent): headroom √(live × rate ×
// horizon) over the live Go heap, sampled from runtime/metrics by the
// shard loops. The GC percent is process-global, so one pacer serves every
// plane in the process: the first NewSharded takes the setting over and
// the last Close restores what was in force before.

const (
	// paceEvery is how often the shard loops resample the Go heap.
	paceEvery = 100 * time.Millisecond
	// paceHorizon is the rule's horizon: the heap collects about every
	// √(live × horizon / rate). It was chosen from the bench's serve
	// workloads on a 2-core host (two shards, medians of 65 samples):
	//
	//	workload       live     rate        at 250 ms: percent  goal     GC every
	//	serve_small    2.4 MB   133 MB/s               266      11 MB    66 ms
	//	serve_hostile  3.8 MB   216 MB/s               346      19 MB    70 ms
	//	serve_heavy    2.7 MB   548 MB/s               522      22 MB    35 ms
	//
	// Before the plane paced its heap, two shards' idle telemetry rings
	// (9.4 MB) were its ballast at GC percent 100: goals of 24–26 MB and a
	// collection every 89, 61 and 22 ms. At 250 ms every goal is smaller,
	// serve_hostile and serve_heavy collect less often and serve_small
	// about as often. 500 ms read serve_heavy rss_p90_mb 44.8 MiB against
	// the ballast's 37.3 (the benchmark's bound is 1.2x); GC percent 100
	// without the ballast read serve_small op_tail_us 1.65x.
	paceHorizon = 250 * time.Millisecond
	// goMinHeap is the Go runtime's heap minimum at GC percent 100.
	goMinHeap = 4 << 20
)

// goPacer is the process's one Go GC pacing loop state.
type goPacer struct {
	next atomic.Int64 // Unix ns at which the next sample is due

	mu      sync.Mutex
	planes  int                       // servers between NewSharded and Close
	prev    int                       // GC percent in force before the first plane
	percent int                       // GC percent this pacer set last (0: none yet)
	scopes  map[*telemetry.Scope]bool // the planes' shard kernel scopes
	at      time.Time                 // last sample
	allocs  uint64                    // cumulative Go heap allocation at the last sample
	rate    float64                   // smoothed allocation rate, bytes per second
	samples []metrics.Sample
}

var pacer = goPacer{samples: []metrics.Sample{
	{Name: "/gc/heap/live:bytes"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/goal:bytes"},
	{Name: "/gc/gogc:percent"},
}}

// acquire registers a plane whose shards' kernel scopes carry the pacing
// gauges. The first plane records the GC percent in force.
func (p *goPacer) acquire(s *Server) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.planes == 0 {
		metrics.Read(p.samples)
		p.prev = int(p.samples[3].Value.Uint64())
		p.percent, p.rate, p.at = 0, 0, time.Time{}
		p.scopes = make(map[*telemetry.Scope]bool)
		p.next.Store(0)
	}
	p.planes++
	for _, sh := range s.shards {
		p.scopes[sh.vm.Tel.Reg.Kernel()] = true
	}
}

// release unregisters a plane; the last one restores the previous GC
// percent.
func (p *goPacer) release(s *Server) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, sh := range s.shards {
		delete(p.scopes, sh.vm.Tel.Reg.Kernel())
	}
	if p.planes--; p.planes == 0 && p.percent != 0 {
		debug.SetGCPercent(p.prev)
		p.percent = 0
	}
}

// tick samples the Go heap and applies the rule when a sample is due.
// Every shard loop calls it once per iteration; all but one call per
// paceEvery return after one atomic load.
func (p *goPacer) tick(now time.Time) {
	due := p.next.Load()
	if now.UnixNano() < due || !p.next.CompareAndSwap(due, now.Add(paceEvery).UnixNano()) {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	metrics.Read(p.samples)
	live, allocs := p.samples[0].Value.Uint64(), p.samples[1].Value.Uint64()
	if dt := now.Sub(p.at); !p.at.IsZero() && dt > 0 && allocs >= p.allocs {
		// Smoothed like membal.Controller's tenant rates, so one quiet or
		// bursty interval does not whipsaw the setting.
		p.rate = (float64(allocs-p.allocs)/dt.Seconds() + p.rate) / 2
	}
	p.at, p.allocs = now, allocs
	percent := membal.GCPercent(live, p.rate/1e9, uint64(paceHorizon), goMinHeap)
	if percent != p.percent {
		debug.SetGCPercent(percent)
		p.percent = percent
		metrics.Read(p.samples[2:3]) // the goal under the new setting
	}
	for k := range p.scopes {
		k.Gauge(telemetry.MGoGCPercent).Set(uint64(percent))
		k.Gauge(telemetry.MGoHeapGoal).Set(p.samples[2].Value.Uint64())
		k.Gauge(telemetry.MGoHeapLive).Set(live)
		k.Gauge(telemetry.MGoAllocRate).Set(uint64(p.rate))
	}
}
