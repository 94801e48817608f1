package main

import (
	"testing"
)

// TestFigure4MeasuredPoint runs the n=10 point of the four measured
// Figure 4 curves with a short quota, and holds each to its policy as the
// plane observed it (checkPoint): the KaffeOS MemHog is killed and
// restarted while no servlet request shares its deaths, the IBM/n MemHog
// takes the shared process (and its servlets' requests) down with it, and
// every plane audits green after close.
func TestFigure4MeasuredPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("drives four serving planes over a socket")
	}
	const n, perServlet = 10, 500
	for _, c := range measuredCurves {
		pt, err := measurePoint(c, n, perServlet)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%-16s %.2fs retries=%d crashes=%d caught=%d servlets_caught=%d",
			c.name, pt.Seconds, pt.Retries, pt.Crashes, pt.Caught, pt.ServletsCaught)
		if err := checkPoint(c, pt); err != nil {
			t.Error(err)
		}
	}
}
