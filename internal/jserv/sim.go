// Package jserv reproduces the paper's servlet-engine experiment
// (Figure 4): how service time for well-behaved servlets scales with the
// number of servlets, for three deployment models, with and without a
// MemHog servlet mounting a denial-of-service attack.
//
// Two layers:
//
//   - The request-driven servlet programs (programs.go) the serving plane
//     (internal/serve) loads into its tenant processes. `servbench`
//     measures four of Figure 4's curves with them: KaffeOS and
//     KaffeOS,MemHog run one process per servlet beside a MemHog killed
//     by its own memlimit; IBM/n and IBM/n,MemHog run every servlet, and
//     the hog, in one NetDispatch process that the hog's
//     OutOfMemoryError takes down whole.
//
//   - A fluid model (this file) of the one deployment that cannot be run
//     here: IBM/1, one JVM per servlet on the paper's 256 MB Pentium III.
//     Its curve is about host paging once the JVMs' footprints exceed
//     RAM, which measuring would mean creating real memory pressure on
//     the host. The per-request service time is an input — servbench
//     passes the measured IBM/n time at one servlet — and the testbed's
//     hardware is a handful of constants.
package jserv

import (
	"fmt"
	"math"
)

// The modelled testbed. Times in seconds, memory in MB.
const (
	ramMB         = 256 // physical memory of the paper's machine
	jvmBaseMB     = 2   // one JVM's footprint at startup
	servletHeapMB = 6   // a dedicated JVM's servlet heap, growing toward its cap
	heapCapMB     = 8   // per-JVM heap limit (8 MB in the paper)
	hogFillMBps   = 50  // MemHog allocation rate on a full CPU
	jvmRestartSec = 8   // exec + JIT warmup + JServ redeploy of one JVM
	// pagingSlope shapes the thrash knee: once committed memory exceeds
	// RAM, effective CPU speed divides by 1 + slope*(committed/RAM - 1)^2.
	// An attempt to start 100 JVMs "rendered the machine inoperable".
	pagingSlope = 2
	// RequestsPerServlet is the quota each well-behaved servlet answers
	// (Figure 4's y axis is the time until all have).
	RequestsPerServlet = 1000
)

// Figure4Points is the servlet-count sweep of Figure 4.
func Figure4Points() []int { return []int{1, 5, 10, 20, 40, 80} }

// Outcome summarizes one modelled IBM/1 run.
type Outcome struct {
	Servlets int
	MemHog   bool
	// Seconds until every well-behaved servlet answered its quota.
	Seconds float64
	// Crashes counts the hog JVM's OutOfMemoryError deaths.
	Crashes int
	// ThrashFactor is the worst paging slowdown observed.
	ThrashFactor float64
}

func (o Outcome) String() string {
	return fmt.Sprintf("IBM/1 n=%d hog=%v: %.1fs (%d crashes, thrash %.1fx)",
		o.Servlets, o.MemHog, o.Seconds, o.Crashes, o.ThrashFactor)
}

// IBM1 models one point of the IBM/1 curves: servlets JVMs, one per
// well-behaved servlet, plus with memHog one more JVM running the hog,
// all sharing one CPU equally; serviceSec is one request's CPU time. The
// hog's JVM dies when its heap hits the cap and restarts after
// jvmRestartSec; the other JVMs are isolated from it by the OS and only
// feel its CPU share and its memory.
func IBM1(servlets int, memHog bool, serviceSec float64) Outcome {
	if servlets < 1 || serviceSec <= 0 {
		panic("jserv: need at least one servlet and a positive service time")
	}
	const dtMax = 0.25 // longest fluid step, seconds
	var (
		now, hogFill, hogUpAt float64
		remaining             = float64(RequestsPerServlet)
		out                   = Outcome{Servlets: servlets, MemHog: memHog, ThrashFactor: 1}
	)
	// Every good servlet starts together and runs at the same rate, so
	// one remaining-work figure stands for all of them.
	for remaining > 0 {
		hogAlive := memHog && now >= hogUpAt
		runnables := float64(servlets)
		committed := runnables * (jvmBaseMB + servletHeapMB)
		if memHog {
			committed += jvmBaseMB
		}
		if hogAlive {
			runnables++
			committed += hogFill
		}
		thrash := 1.0
		if ratio := committed / ramMB; ratio > 1 {
			thrash = 1 + pagingSlope*(ratio-1)*(ratio-1)
		}
		out.ThrashFactor = math.Max(out.ThrashFactor, thrash)
		share := 1 / runnables
		rate := share / (serviceSec * thrash) // requests per second per servlet

		dt := math.Min(dtMax, remaining/rate)
		if hogAlive {
			fill := hogFillMBps * share / thrash
			if t := (heapCapMB - hogFill) / fill; t <= dt {
				// The hog's heap fills inside this step: its JVM dies.
				dt = t
				hogFill, hogUpAt = 0, now+dt+jvmRestartSec
				out.Crashes++
			} else {
				hogFill += fill * dt
			}
		} else if memHog && hogUpAt-now < dt {
			dt = hogUpAt - now
		}
		remaining -= rate * dt
		if remaining < 1e-9 {
			remaining = 0
		}
		now += dt
	}
	out.Seconds = now
	return out
}
