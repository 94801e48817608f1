package jserv

import (
	"math"
	"testing"
)

// service is the per-request time the tests model with: 4 ms.
const service = 0.004

func TestSimulateBaselines(t *testing.T) {
	one := IBM1(1, false, service)
	// One servlet, 1000 requests at 4 ms: 4 seconds, no paging.
	if math.Abs(one.Seconds-4) > 0.01 || one.ThrashFactor != 1 {
		t.Errorf("IBM/1 n=1 = %v, want 4s unthrashed", one)
	}
	// The service time is the input the curve scales with.
	if two := IBM1(1, false, 2*service); math.Abs(two.Seconds-2*one.Seconds) > 0.01 {
		t.Errorf("doubling the service time gave %.2fs, want %.2fs", two.Seconds, 2*one.Seconds)
	}
}

func TestScalingWithoutHog(t *testing.T) {
	prev := 0.0
	for _, n := range Figure4Points() {
		out := IBM1(n, false, service)
		if out.Seconds < prev {
			t.Errorf("time decreased from %.1f to %.1f at n=%d", prev, out.Seconds, n)
		}
		prev = out.Seconds
	}
}

func TestIBM1ThrashesAtScale(t *testing.T) {
	// "Starting multiple JVMs eventually causes the machine to thrash":
	// past the RAM knee IBM/1 grows faster than the linear n it grows by
	// below it.
	ibm10 := IBM1(10, false, service)
	ibm80 := IBM1(80, false, service)
	if ibm10.ThrashFactor != 1 {
		t.Errorf("10 JVMs (80 MB) thrash (factor %.2f) on 256 MB", ibm10.ThrashFactor)
	}
	if ibm80.ThrashFactor <= 1 {
		t.Errorf("80 JVMs did not thrash (factor %.2f)", ibm80.ThrashFactor)
	}
	if growth := ibm80.Seconds / ibm10.Seconds; growth < 1.5*8 {
		t.Errorf("IBM/1 grew %.1fx from 10 to 80 JVMs, want super-linear (>= 12x)", growth)
	}
}

func TestMemHogPolicies(t *testing.T) {
	// IBM/1's policy: the hog's JVM dies and restarts alone; the other
	// JVMs only lose its CPU share while it runs.
	for _, n := range []int{1, 10, 40} {
		no := IBM1(n, false, service)
		hog := IBM1(n, true, service)
		if hog.Crashes == 0 {
			t.Errorf("n=%d: the hog never hit its heap cap", n)
		}
		if hog.Seconds < no.Seconds || hog.Seconds > 2*no.Seconds {
			t.Errorf("n=%d: IBM/1,MemHog %.1fs against %.1fs without it, want within 2x", n, hog.Seconds, no.Seconds)
		}
	}
}

func TestFigure4AllCurves(t *testing.T) {
	for _, hog := range []bool{false, true} {
		for _, n := range Figure4Points() {
			o := IBM1(n, hog, service)
			if o.Seconds <= 0 || math.IsNaN(o.Seconds) || math.IsInf(o.Seconds, 0) || o.Servlets != n || o.MemHog != hog {
				t.Errorf("bad outcome %v", o)
			}
		}
	}
}
