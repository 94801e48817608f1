package main

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one request as a caller saw it.
type sample struct {
	end   time.Time // reply fully read
	latNs int64
	route uint8 // index into the caller's routes
	ok    bool  // status 200 and the exact expected body
}

// poster sends one request and returns the whole reply. The end-to-end
// runs post over a socket; the traced run also posts through Server.Do.
type poster interface {
	post(route string, body []byte) (status int, reply string, err error)
	close()
}

// hogSample is one request to the misbehaving route.
type hogSample struct {
	end    time.Time
	status int // 0 on a transport error
}

// conn is one keep-alive HTTP/1.1 connection driven in a closed loop: the
// next request is written only when the previous reply has been read.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

func (c *conn) close() {
	if c.c != nil {
		_ = c.c.Close()
		c.c = nil
	}
}

// post sends one request and reads the whole reply. On a transport error
// the connection is dropped and redialled by the next call.
func (c *conn) post(route string, body []byte) (status int, reply string, err error) {
	if c.c == nil {
		nc, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
		if err != nil {
			return 0, "", err
		}
		c.c, c.br, c.bw = nc, bufio.NewReader(nc), bufio.NewWriterSize(nc, 32<<10)
	}
	_ = c.c.SetDeadline(time.Now().Add(30 * time.Second))
	fmt.Fprintf(c.bw, "POST %s HTTP/1.1\r\nHost: bench\r\nContent-Length: %d\r\n\r\n", route, len(body))
	_, _ = c.bw.Write(body)
	if err := c.bw.Flush(); err != nil {
		c.close()
		return 0, "", err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return 0, "", err
	}
	b, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		c.close()
		return 0, "", err
	}
	return resp.StatusCode, string(b), nil
}

// caller is one closed-loop connection's share of the load: the routes it
// owns (no two callers share a route, so a route's requests never overlap)
// and the samples it took.
type caller struct {
	routes  []string
	samples []sample
}

// load is a running closed-loop load against one serving plane.
type load struct {
	callers []*caller
	hog     []hogSample
	stop    atomic.Bool
	wg      sync.WaitGroup
}

// splitRoutes deals the well-behaved routes round-robin to n callers; a
// caller left without a route is dropped.
func splitRoutes(routes []string, n int) [][]string {
	out := make([][]string, n)
	for i, r := range routes {
		out[i%n] = append(out[i%n], r)
	}
	for len(out) > 0 && len(out[len(out)-1]) == 0 {
		out = out[:len(out)-1]
	}
	return out
}

// startLoad opens the closed loop: k callers in all, one of them hammering
// the hog route when the workload has one. Each caller draws its route
// visiting order and bodies from its own stream of the seed, and sends
// through its own poster.
func startLoad(dial func() poster, w *workload, in *inputs, seed int64, k int) *load {
	good := k
	if w.hogRoute != "" && good > 1 {
		good--
	}
	var routes []string
	for _, tc := range w.wellBehaved() {
		routes = append(routes, tc.Route)
	}
	l := &load{}
	for i, rs := range splitRoutes(routes, good) {
		cl := &caller{routes: rs}
		l.callers = append(l.callers, cl)
		rng := rand.New(rand.NewSource(seed*1000003 + int64(i) + 1))
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			c := dial()
			defer c.close()
			for !l.stop.Load() {
				ri := rng.Intn(len(cl.routes))
				route := cl.routes[ri]
				bi := rng.Intn(len(in.bodies))
				t0 := time.Now()
				status, reply, err := c.post(route, in.bodies[bi])
				end := time.Now()
				ok := err == nil && status == http.StatusOK && reply == in.want[route][bi]
				cl.samples = append(cl.samples, sample{end: end, latNs: end.Sub(t0).Nanoseconds(), route: uint8(ri), ok: ok})
				if err != nil {
					time.Sleep(time.Millisecond) // do not spin on a dead socket
				}
			}
		}()
	}
	if w.hogRoute != "" {
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			c := dial()
			defer c.close()
			for !l.stop.Load() {
				status, _, err := c.post(w.hogRoute, in.bodies[0])
				if err != nil {
					status = 0
					time.Sleep(time.Millisecond)
				}
				l.hog = append(l.hog, hogSample{end: time.Now(), status: status})
			}
		}()
	}
	return l
}

// finish stops the callers and waits for their last replies.
func (l *load) finish() {
	l.stop.Store(true)
	l.wg.Wait()
}

// window returns the samples whose reply arrived in [from, to), in order
// of arrival per caller.
func (l *load) window(from, to time.Time) []sample {
	var out []sample
	for _, cl := range l.callers {
		for _, s := range cl.samples {
			if !s.end.Before(from) && s.end.Before(to) {
				out = append(out, s)
			}
		}
	}
	return out
}
