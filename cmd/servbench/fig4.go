package main

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jserv"
	"repro/internal/serve"
	"repro/internal/spec"
	"repro/internal/telemetry"
)

// Figure 4 on the serving plane. Four curves are measured on one shard of
// internal/serve: n closed-loop clients, one per well-behaved servlet,
// each posting until it has its quota of 200s (502 and 503 are retried),
// plus one client hammering the MemHog when the curve has one. A point is
// the time until the last servlet has its quota. IBM/1 cannot be measured
// here (see internal/jserv) and is modelled from the measured IBM/n time
// at one servlet.

// fig4Curve is one measured curve: the spec platform its VM is built
// from, whether all servlets (and the hog) share one NetDispatch process
// — the IBM/n deployment — and whether a MemHog runs.
type fig4Curve struct {
	name     string
	platform string
	shared   bool
	hog      bool
}

var measuredCurves = []fig4Curve{
	{"KaffeOS", "KaffeOS-NoHeapPointer", false, false},
	{"KaffeOS,MemHog", "KaffeOS-NoHeapPointer", false, true},
	{"IBM/n", "IBM", true, false},
	{"IBM/n,MemHog", "IBM", true, true},
}

// curveOrder is the paper's legend order.
var curveOrder = []string{"IBM/1", "IBM/n", "KaffeOS", "IBM/1,MemHog", "IBM/n,MemHog", "KaffeOS,MemHog"}

const (
	// hogKB is the memlimit of the KaffeOS MemHog process and of the
	// IBM/n process the hog shares. The hog keeps 16 KiB per request, so
	// it dies about every 60 of its requests.
	hogKB = 1024
	// servletWork is a servlet request's compute, in NetServlet work
	// units: ten times the plane's default, so the servlet's own work —
	// where the deployments' engines differ — is as large as the HTTP
	// round trip around it on IBM, and larger on KaffeOS.
	servletWork = 1000
	// hogBody is a MemHog request; any other body is servlet work.
	hogBody = string(jserv.HogRequest) + "og"
)

// fig4Point is one point of one curve.
type fig4Point struct {
	Curve    string  `json:"curve"`
	Servlets int     `json:"servlets"`
	Seconds  float64 `json:"seconds"`
	Modelled bool    `json:"modelled,omitempty"`
	// Retries counts the 502s and 503s the servlets' clients got.
	Retries uint64 `json:"retries"`
	// Caught counts the plane's requests that shared a death of the
	// process they were sent to: queued or in flight when it died, or
	// queued behind its restart (serve.TenantRow.Caught, all tenants).
	// ServletsCaught is the servlets' part of it, read off each
	// response's serve.CaughtHeader.
	Caught         uint64 `json:"caught"`
	ServletsCaught uint64 `json:"servlets_caught"`
	// Crashes counts restarts of the process the MemHog ran in (for a
	// modelled point, the hog JVM's deaths); NeighbourRestarts those of
	// the processes it did not run in.
	Crashes           uint64 `json:"crashes"`
	NeighbourRestarts uint64 `json:"neighbour_restarts"`
}

// measurePoint runs one measured point: n servlets answering perServlet
// 200s each. The plane is audited after it closes (onPlane).
func measurePoint(c fig4Curve, n, perServlet int) (fig4Point, error) {
	pt := fig4Point{Curve: c.name, Servlets: n}
	plat, ok := spec.PlatformByName(c.platform)
	if !ok {
		return pt, fmt.Errorf("no platform %q", c.platform)
	}
	routes := make([]string, n)
	var tenants []serve.TenantConfig
	hogAt := "/memhog"
	if c.shared {
		// Room for every client at once and no high-water shed, so the
		// process's 503s come from its crashes, not from admission.
		hogAt = "/ibm"
		tenants = []serve.TenantConfig{{Route: hogAt, Program: serve.Dispatch, MemKB: hogKB,
			WorkUnits: servletWork, QueueMax: n + 1, MaxInflight: n + 1, ShedFraction: -1}}
		for i := range routes {
			routes[i] = hogAt
		}
	} else {
		for i := range routes {
			routes[i] = fmt.Sprintf("/s%d", i)
			tenants = append(tenants, serve.TenantConfig{Route: routes[i], WorkUnits: servletWork})
		}
		if c.hog {
			// No high-water shed: the memlimit kill is the isolation
			// boundary under test.
			tenants = append(tenants, serve.TenantConfig{Route: hogAt, Hog: true, MemKB: hogKB, ShedFraction: -1})
		}
	}
	err := onPlane(plat.Config(), serve.Config{Shards: 1}, tenants, func(srv *serve.Server, base string) error {
		transport := &http.Transport{MaxIdleConnsPerHost: n + 1}
		defer transport.CloseIdleConnections()
		client := &http.Client{Transport: transport, Timeout: 60 * time.Second}

		start := time.Now()
		var stop atomic.Bool
		var retries, caught atomic.Uint64
		errs := make(chan error, n+1) // one per servlet client, and the nil sent below
		var hog, servlets sync.WaitGroup
		if c.hog {
			hog.Add(1)
			go func() {
				defer hog.Done()
				for !stop.Load() {
					post(client, base+hogAt, hogBody)
				}
			}()
		}
		for _, route := range routes {
			servlets.Add(1)
			go func() {
				defer servlets.Done()
				for ok := 0; ok < perServlet; {
					status, _, header, err := post(client, base+route, "servlet")
					if header.Get(serve.CaughtHeader) != "" {
						caught.Add(1)
					}
					switch {
					case err != nil:
						errs <- err
						return
					case status == http.StatusOK:
						ok++
					case status == http.StatusBadGateway || status == http.StatusServiceUnavailable:
						retries.Add(1)
					default:
						errs <- fmt.Errorf("%s: status %d", route, status)
						return
					}
				}
			}()
		}
		servlets.Wait()
		pt.Seconds = time.Since(start).Seconds()
		stop.Store(true)
		hog.Wait()
		pt.Retries, pt.ServletsCaught = retries.Load(), caught.Load()
		for _, row := range srv.Rows() {
			pt.Caught += row.Caught
			if c.hog && row.Route == hogAt {
				pt.Crashes = row.Restarts
			} else {
				pt.NeighbourRestarts += row.Restarts
			}
		}
		errs <- nil // the first error sent, if any, is read first
		return <-errs
	})
	if err != nil {
		return pt, fmt.Errorf("%s n=%d: %w", c.name, n, err)
	}
	return pt, nil
}

// checkPoint holds a measured point to the isolation policy it stands
// for, as the plane observed it: a KaffeOS hog is killed and restarted
// while no servlet request shares its deaths, no neighbour answers
// non-200 and none restarts; an IBM/n hog takes the shared process down,
// and the servlets' requests are among those its deaths catch — at least
// half their share of the clients.
func checkPoint(c fig4Curve, pt fig4Point) error {
	switch {
	case !c.shared && pt.Retries+pt.NeighbourRestarts+pt.ServletsCaught > 0:
		return fmt.Errorf("%s n=%d: KaffeOS servlets saw %d non-200s, %d restarts and %d requests caught by a death — isolation violated",
			c.name, pt.Servlets, pt.Retries, pt.NeighbourRestarts, pt.ServletsCaught)
	case c.hog && pt.Crashes == 0:
		return fmt.Errorf("%s n=%d: the MemHog's process never died", c.name, pt.Servlets)
	case c.shared && c.hog && 2*uint64(pt.Servlets+1)*pt.ServletsCaught < uint64(pt.Servlets)*pt.Caught:
		return fmt.Errorf("%s n=%d: the shared process died %d times, catching %d requests, but only %d of them were the servlets'",
			c.name, pt.Servlets, pt.Crashes, pt.Caught, pt.ServletsCaught)
	}
	return nil
}

// fig4Report is the -json artifact of the default mode.
type fig4Report struct {
	Host               telemetry.HostInfo `json:"host"`
	WallSeconds        float64            `json:"wall_s"`
	RequestsPerServlet int                `json:"requests_per_servlet"`
	Points             []fig4Point        `json:"points"`
	Features           []fig4Feature      `json:"features"`
}

// fig4Feature is one of the paper's claims about Figure 4, with the
// numbers it was read off.
type fig4Feature struct {
	Claim   string `json:"claim"`
	Numbers string `json:"numbers"`
	Holds   bool   `json:"holds"`
}

// figure4 measures the four curves at every point, models the IBM/1 pair
// from the measured IBM/n time at one servlet, and prints the figure and
// the paper's features; jsonPath, when set, gets the report.
func figure4(out io.Writer, jsonPath string) error {
	t0 := time.Now()
	points := jserv.Figure4Points()
	curves := map[string][]fig4Point{}
	// Point-major, so the curves compared at one n run next to each
	// other in time and share the host's weather.
	for _, n := range points {
		for _, c := range measuredCurves {
			pt, err := measurePoint(c, n, jserv.RequestsPerServlet)
			if err == nil {
				err = checkPoint(c, pt)
			}
			if err != nil {
				return err
			}
			curves[c.name] = append(curves[c.name], pt)
		}
	}
	service := curves["IBM/n"][0].Seconds / jserv.RequestsPerServlet
	for _, name := range []string{"IBM/1", "IBM/1,MemHog"} {
		for _, n := range points {
			o := jserv.IBM1(n, name != "IBM/1", service)
			curves[name] = append(curves[name], fig4Point{Curve: name, Servlets: n, Seconds: o.Seconds,
				Modelled: true, Crashes: uint64(o.Crashes)})
		}
	}
	rep := fig4Report{Host: telemetry.Host(), RequestsPerServlet: jserv.RequestsPerServlet,
		Features: fig4Features(curves), WallSeconds: time.Since(t0).Seconds()}

	fmt.Fprintf(out, "Figure 4: time (s) for well-behaved servlets to answer %d requests each\n", jserv.RequestsPerServlet)
	fmt.Fprintf(out, "(measured on one serving-plane shard; IBM/1 modelled at IBM/n's %.3f ms/request)\n", service*1e3)
	fmt.Fprintf(out, "%-26s", "servlets")
	for _, n := range points {
		fmt.Fprintf(out, "%9d", n)
	}
	for _, name := range curveOrder {
		rep.Points = append(rep.Points, curves[name]...)
		label := name
		if curves[name][0].Modelled {
			label += " (modelled)"
		}
		fmt.Fprintf(out, "\n%-26s", label)
		for _, p := range curves[name] {
			fmt.Fprintf(out, "%9.2f", p.Seconds)
		}
	}
	fmt.Fprintln(out, "\n\nThe paper's features (§4.2):")
	for _, f := range rep.Features {
		verdict := "fails"
		if f.Holds {
			verdict = "holds"
		}
		fmt.Fprintf(out, "  [%s] %s: %s\n", verdict, f.Claim, f.Numbers)
	}
	fmt.Fprintf(out, "sweep wall time: %.1fs\n", rep.WallSeconds)
	if jsonPath != "" {
		return writeJSON(jsonPath, rep)
	}
	return nil
}

// fig4Features reads the paper's four claims off the curves.
func fig4Features(curves map[string][]fig4Point) []fig4Feature {
	points := jserv.Figure4Points()
	at := func(name string, n int) float64 {
		for _, p := range curves[name] {
			if p.Servlets == n {
				return p.Seconds
			}
		}
		panic(fmt.Sprintf("no %s point at n=%d", name, n))
	}
	first, last := points[0], points[len(points)-1]

	// The hog is one more runnable beside n servlets: up to 2x (at n=1)
	// is fair CPU sharing, not interference.
	worst, worstN := 0.0, 0
	for _, n := range points {
		if r := at("KaffeOS,MemHog", n) / at("KaffeOS", n); r > worst {
			worst, worstN = r, n
		}
	}
	crossover := fig4Feature{Claim: "IBM/n beats KaffeOS clean but loses to it under a MemHog (n <= 10)", Holds: true}
	var cells []string
	for _, n := range []int{1, 5, 10} {
		crossover.Holds = crossover.Holds && at("IBM/n", n) < at("KaffeOS", n) && at("IBM/n,MemHog", n) > at("KaffeOS,MemHog", n)
		cells = append(cells, fmt.Sprintf("n=%d: clean %.2f vs %.2f, MemHog %.2f vs %.2f", n,
			at("IBM/n", n), at("KaffeOS", n), at("IBM/n,MemHog", n), at("KaffeOS,MemHog", n)))
	}
	crossover.Numbers = strings.Join(cells, "; ")
	slow1 := at("IBM/n,MemHog", first) / at("IBM/n", first)
	slowN := at("IBM/n,MemHog", last) / at("IBM/n", last)
	growth, linear := at("IBM/1", last)/at("IBM/1", 10), float64(last)/10
	return []fig4Feature{{
		Claim:   "KaffeOS is consistent under a MemHog (KaffeOS,MemHog <= 2x KaffeOS at every n)",
		Numbers: fmt.Sprintf("worst %.2fx at n=%d; n=10: %.2fs -> %.2fs", worst, worstN, at("KaffeOS", 10), at("KaffeOS,MemHog", 10)),
		Holds:   worst <= 2,
	}, crossover, {
		Claim:   "IBM/n,MemHog improves with more servlets (its slowdown over IBM/n shrinks)",
		Numbers: fmt.Sprintf("%.2fx at n=%d -> %.2fx at n=%d", slow1, first, slowN, last),
		Holds:   slowN < slow1,
	}, {
		Claim: "IBM/1 thrashes at scale, overtaking KaffeOS (modelled)",
		Numbers: fmt.Sprintf("IBM/1 grows %.1fx from n=10 to n=%d (linear %.0fx); n=%d: IBM/1 %.1fs vs KaffeOS %.2fs",
			growth, last, linear, last, at("IBM/1", last), at("KaffeOS", last)),
		Holds: growth > linear && at("IBM/1", last) > at("KaffeOS", last),
	}}
}
