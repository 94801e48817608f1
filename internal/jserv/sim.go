// Package jserv reproduces the paper's servlet-engine experiment
// (Figure 4): how service time for well-behaved servlets scales with the
// number of servlets, for three deployment models, with and without a
// MemHog servlet mounting a denial-of-service attack.
//
// Two layers:
//
//   - A fluid discrete-event simulation (this file) of the paper's testbed
//     — Apache+JServ on a 500 MHz Pentium III with 256 MB of RAM — that
//     regenerates all six curves of Figure 4 across 1..80 servlets. The
//     paper's hardware/software stack (IBM JDK, Linux paging behaviour)
//     cannot be run here, so the host is modelled: fixed per-JVM memory
//     footprints, paging slowdown once committed memory exceeds RAM,
//     restart costs after a crash, and CPU shared equally among runnable
//     entities. Each model's *policy* — who dies on OOM, what must restart
//     — is exactly the paper's.
//
//   - The request-driven servlet programs (programs.go) the serving plane
//     (internal/serve) loads into its tenant processes: actual processes
//     with memlimits, an actual MemHog killed by its limit, and actual
//     unaffected neighbours. Driving the plane — `servbench -real` in
//     process, the BENCHMARK.json serve_hostile workload over a socket —
//     demonstrates on the real system the property the simulation
//     quantifies at scale.
package jserv

import (
	"fmt"
	"math"
)

// Mode is a deployment model from Figure 4.
type Mode string

const (
	// ModeKaffeOS runs every servlet in its own KaffeOS process inside
	// one VM.
	ModeKaffeOS Mode = "KaffeOS"
	// ModeIBM1 runs one JVM per servlet ("IBM/1").
	ModeIBM1 Mode = "IBM/1"
	// ModeIBMn runs all servlets in a single JVM ("IBM/n").
	ModeIBMn Mode = "IBM/n"
)

// Params model the paper's testbed. All times in seconds, memory in MB.
type Params struct {
	RAMMB float64 // physical memory (256 MB in the paper)

	// Per-request CPU service time. KaffeOS is "several times slower for
	// individual servlets" than the IBM JVM.
	IBMServiceSec     float64
	KaffeOSServiceSec float64

	// Requests each well-behaved servlet must answer (1000 in the figure).
	RequestsPerServlet int

	// Memory model.
	JVMBaseMB        float64 // per-JVM footprint at startup (~2 MB)
	IBM1ServletMB    float64 // steady-state heap use of a dedicated JVM's servlet
	IBMnServletMB    float64 // working set per servlet inside the shared JVM
	ServletWorkMB    float64 // working set per servlet (KaffeOS processes)
	HeapCapMB        float64 // per-JVM heap limit (8 MB in the paper)
	KaffeOSVMBaseMB  float64 // the single KaffeOS VM's footprint
	KaffeOSProcMB    float64 // per-process overhead in KaffeOS
	KaffeOSProcCapMB float64 // per-process memlimit

	// MemHog allocates at this rate while scheduled on a full CPU.
	HogAllocMBPerSec float64

	// Restart costs.
	JVMRestartSec     float64 // exec + JIT warmup for one JVM
	ServletReloadSec  float64 // per servlet reloaded into a restarted JVM
	KaffeOSRestartSec float64 // restart one KaffeOS process

	// Paging: once committed memory exceeds RAM, effective CPU speed
	// divides by 1 + PagingSlope * (committed/RAM - 1)^2 — a standard
	// thrash knee. An attempt to start 100 JVMs "rendered the machine
	// inoperable".
	PagingSlope float64

	// KaffeOS's user-mode threading shows "a slight service degradation as
	// the number of processes increases"; modelled as a per-process
	// scheduling overhead fraction.
	KaffeOSSchedOverhead float64
}

// DefaultParams returns the calibration used for EXPERIMENTS.md.
func DefaultParams() Params {
	return Params{
		RAMMB:                256,
		IBMServiceSec:        0.004, // 4 ms/request on the IBM JVM
		KaffeOSServiceSec:    0.016, // 4x slower, per §4.2
		RequestsPerServlet:   1000,
		JVMBaseMB:            2,
		IBM1ServletMB:        6, // a dedicated JVM's heap grows toward its 8 MB cap
		IBMnServletMB:        0.05,
		ServletWorkMB:        0.5,
		HeapCapMB:            8,
		KaffeOSVMBaseMB:      4,
		KaffeOSProcMB:        0.5,
		KaffeOSProcCapMB:     8,
		HogAllocMBPerSec:     50, // MemHog allocates as fast as the CPU allows
		JVMRestartSec:        8,  // JVM exec + JServ redeploy + Apache reconnect
		ServletReloadSec:     0.05,
		KaffeOSRestartSec:    0.05,
		PagingSlope:          2,
		KaffeOSSchedOverhead: 0.002,
	}
}

// Config is one point of Figure 4.
type Config struct {
	Mode     Mode
	Servlets int // number of well-behaved servlets
	MemHog   bool
}

// Outcome summarizes one simulated run.
type Outcome struct {
	Config Config
	// Seconds until every well-behaved servlet answered its quota — the
	// figure's y axis.
	Seconds float64
	// Crashes counts JVM or process deaths caused by the MemHog.
	Crashes int
	// ThrashFactor is the worst paging slowdown observed.
	ThrashFactor float64
}

// state of the fluid simulation.
type simState struct {
	p   Params
	cfg Config

	now       float64
	remaining []float64 // requests left per good servlet
	idleAt    []bool

	hogFillMB    float64
	hogRestartAt float64 // hog (or its JVM) unavailable until this time
	// jvmDownUntil > now models a restarting JVM; for IBM/n it stalls
	// every servlet, for IBM/1 only the hog's own JVM matters (good
	// servlets run their own JVMs).
	jvmDownUntil float64

	crashes   int
	maxThrash float64
}

// Simulate runs the fluid model for one configuration.
func Simulate(cfg Config, p Params) Outcome {
	if cfg.Servlets < 1 {
		panic("jserv: need at least one servlet")
	}
	st := &simState{p: p, cfg: cfg, maxThrash: 1}
	st.remaining = make([]float64, cfg.Servlets)
	for i := range st.remaining {
		st.remaining[i] = float64(p.RequestsPerServlet)
	}
	const dtMax = 0.25 // max fluid step, seconds
	for st.active() > 0 {
		st.step(dtMax)
		if st.now > 1e7 {
			break // unreachable backstop
		}
	}
	return Outcome{Config: cfg, Seconds: st.now, Crashes: st.crashes, ThrashFactor: st.maxThrash}
}

// active counts good servlets with work left.
func (st *simState) active() int {
	n := 0
	for _, r := range st.remaining {
		if r > 0 {
			n++
		}
	}
	return n
}

// committedMB computes committed memory for the current mode.
func (st *simState) committedMB() float64 {
	p, cfg := st.p, st.cfg
	hog := 0.0
	if cfg.MemHog && st.now >= st.hogRestartAt {
		hog = st.hogFillMB
	}
	switch cfg.Mode {
	case ModeIBM1:
		jvms := float64(cfg.Servlets)
		mem := jvms * (p.JVMBaseMB + p.IBM1ServletMB)
		if cfg.MemHog {
			mem += p.JVMBaseMB + hog
		}
		return mem
	case ModeIBMn:
		return p.JVMBaseMB + float64(cfg.Servlets)*p.IBMnServletMB + hog
	default: // KaffeOS
		return p.KaffeOSVMBaseMB + float64(cfg.Servlets)*(p.KaffeOSProcMB+p.ServletWorkMB) + hog
	}
}

// thrash returns the current paging slowdown factor (>= 1).
func (st *simState) thrash() float64 {
	ratio := st.committedMB() / st.p.RAMMB
	if ratio <= 1 {
		return 1
	}
	f := 1 + st.p.PagingSlope*(ratio-1)*(ratio-1)
	if f > st.maxThrash {
		st.maxThrash = f
	}
	return f
}

// step advances the fluid model by at most dtMax seconds, stopping early
// at the next discrete event (a servlet finishing, a hog OOM, a restart
// completing).
func (st *simState) step(dtMax float64) {
	p, cfg := st.p, st.cfg

	// Service availability.
	jvmDown := st.now < st.jvmDownUntil
	hogAlive := cfg.MemHog && st.now >= st.hogRestartAt && !jvmDown

	good := st.active()
	runnables := 0.0
	if !((cfg.Mode == ModeIBMn) && jvmDown) {
		runnables += float64(good)
	}
	if hogAlive {
		runnables++
	}
	if runnables == 0 {
		// Everything is stalled on a restart; jump to it.
		wake := st.jvmDownUntil
		if cfg.MemHog && st.hogRestartAt > st.now && (wake <= st.now || st.hogRestartAt < wake) {
			wake = st.hogRestartAt
		}
		if wake <= st.now {
			wake = st.now + dtMax
		}
		st.now = wake
		return
	}

	thrash := st.thrash()
	share := 1.0 / runnables

	// Per-servlet request completion rate.
	service := p.IBMServiceSec
	if cfg.Mode == ModeKaffeOS {
		service = p.KaffeOSServiceSec
		service *= 1 + p.KaffeOSSchedOverhead*float64(cfg.Servlets)
	}
	rate := 0.0
	if !(cfg.Mode == ModeIBMn && jvmDown) {
		rate = share / (service * thrash)
	}

	// Candidate event horizons.
	dt := dtMax
	if rate > 0 {
		minRem := math.Inf(1)
		for _, r := range st.remaining {
			if r > 0 && r < minRem {
				minRem = r
			}
		}
		if t := minRem / rate; t < dt {
			dt = t
		}
	}
	var hogOOM float64 = math.Inf(1)
	if hogAlive {
		cap := p.HeapCapMB
		if cfg.Mode == ModeKaffeOS {
			cap = p.KaffeOSProcCapMB
		}
		if cfg.Mode == ModeIBMn {
			// The hog shares the heap with the servlets' working sets.
			cap = math.Max(0.5, p.HeapCapMB-float64(cfg.Servlets)*p.IBMnServletMB)
		}
		fillRate := p.HogAllocMBPerSec * share / thrash
		hogOOM = (cap - st.hogFillMB) / fillRate
		if hogOOM < dt {
			dt = hogOOM
		}
	}
	if jvmDown {
		if t := st.jvmDownUntil - st.now; t > 0 && t < dt {
			dt = t
		}
	}
	if cfg.MemHog && st.hogRestartAt > st.now {
		if t := st.hogRestartAt - st.now; t < dt {
			dt = t
		}
	}
	if dt <= 0 {
		dt = 1e-6
	}

	// Advance.
	if rate > 0 {
		for i := range st.remaining {
			if st.remaining[i] > 0 {
				st.remaining[i] -= rate * dt
				if st.remaining[i] < 1e-9 {
					st.remaining[i] = 0
				}
			}
		}
	}
	if hogAlive {
		fillRate := p.HogAllocMBPerSec * share / thrash
		st.hogFillMB += fillRate * dt
		cap := p.HeapCapMB
		if cfg.Mode == ModeKaffeOS {
			cap = p.KaffeOSProcCapMB
		}
		if cfg.Mode == ModeIBMn {
			cap = math.Max(0.5, p.HeapCapMB-float64(cfg.Servlets)*p.IBMnServletMB)
		}
		if st.hogFillMB >= cap-1e-9 {
			st.oom()
		}
	}
	st.now += dt
}

// oom handles the MemHog exhausting its heap — the policy difference that
// *is* Figure 4.
func (st *simState) oom() {
	p, cfg := st.p, st.cfg
	st.crashes++
	st.hogFillMB = 0
	switch cfg.Mode {
	case ModeKaffeOS:
		// The kernel kills only the hog process; its heap merges into the
		// kernel heap and is reclaimed. Other processes never notice.
		st.hogRestartAt = st.now + p.KaffeOSRestartSec
	case ModeIBM1:
		// The hog's own JVM dies and is restarted by the administrator;
		// other JVMs are isolated by the OS.
		st.hogRestartAt = st.now + p.JVMRestartSec
	case ModeIBMn:
		// The shared JVM "runs out of memory in seemingly random places";
		// the whole JVM crashes and every servlet must be reloaded.
		down := p.JVMRestartSec + float64(cfg.Servlets)*p.ServletReloadSec
		st.jvmDownUntil = st.now + down
		st.hogRestartAt = st.jvmDownUntil
	}
}

// Figure4Points is the servlet-count sweep reported in EXPERIMENTS.md.
func Figure4Points() []int { return []int{1, 2, 5, 10, 20, 40, 60, 80} }

// Figure4 computes all six curves.
func Figure4(p Params) map[string][]Outcome {
	curves := map[string][]Outcome{}
	for _, mode := range []Mode{ModeIBM1, ModeIBMn, ModeKaffeOS} {
		for _, hog := range []bool{false, true} {
			key := string(mode)
			if hog {
				key += ",MemHog"
			}
			for _, n := range Figure4Points() {
				out := Simulate(Config{Mode: mode, Servlets: n, MemHog: hog}, p)
				curves[key] = append(curves[key], out)
			}
		}
	}
	return curves
}

// CurveOrder lists the curves in the paper's legend order.
func CurveOrder() []string {
	return []string{"IBM/1", "IBM/n", "KaffeOS", "IBM/1,MemHog", "IBM/n,MemHog", "KaffeOS,MemHog"}
}

func (o Outcome) String() string {
	return fmt.Sprintf("%s n=%d hog=%v: %.1fs (%d crashes, thrash %.1fx)",
		o.Config.Mode, o.Config.Servlets, o.Config.MemHog, o.Seconds, o.Crashes, o.ThrashFactor)
}
