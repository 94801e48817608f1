package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/telemetry"
)

// A job is what the parent hands a child on the first line of its standard
// input: generated inputs only, never the seed.
type job struct {
	// Serve: build this plane and serve until standard input closes or
	// SIGTERM arrives.
	Tenants []serve.TenantConfig `json:"tenants,omitempty"`
	Shards  int                  `json:"shards,omitempty"`
	// Ledger turns the plane's request span ledger on (traced run only).
	Ledger bool `json:"ledger,omitempty"`

	// Batch: run these programs round-robin for Seconds, MinRounds at least.
	Programs  []string `json:"programs,omitempty"`
	Seconds   float64  `json:"seconds,omitempty"`
	SetupReps int      `json:"setup_reps,omitempty"`
	MinRounds int      `json:"min_rounds,omitempty"`
}

// serveReady is the serve child's first output line.
type serveReady struct {
	Addr string `json:"addr"`
}

// serveDone is the serve child's last output line, after Close and the
// post-shutdown audit of every shard.
type serveDone struct {
	AuditOK  bool              `json:"audit_ok"`
	Audit    string            `json:"audit,omitempty"`
	Rows     []serve.TenantRow `json:"rows"`
	CloseErr string            `json:"close_err,omitempty"`
	// Ledger is what the span recorders retained, when the job asked.
	Ledger []telemetry.Span `json:"ledger,omitempty"`
}

// childMain runs one workload's system under test in this process and
// returns the process exit code.
func childMain() int {
	in := bufio.NewReader(os.Stdin)
	line, err := in.ReadBytes('\n')
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench child: reading job:", err)
		return 2
	}
	var j job
	if err := json.Unmarshal(line, &j); err != nil {
		fmt.Fprintln(os.Stderr, "bench child: decoding job:", err)
		return 2
	}
	out := json.NewEncoder(os.Stdout)
	if len(j.Tenants) > 0 {
		return serveChild(j, in, out)
	}
	res, err := runBatch(j.Programs, time.Duration(j.Seconds*float64(time.Second)), j.SetupReps, j.MinRounds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	if err := out.Encode(res); err != nil {
		return 2
	}
	return 0
}

func serveChild(j job, stdin io.Reader, out *json.Encoder) int {
	srv, err := serve.NewSharded(vmConfig, planeConfig(j.Shards), j.Tenants)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	for _, vm := range srv.VMs() {
		vm.Tel.Spans.SetEnabled(j.Ledger)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	if err := out.Encode(serveReady{Addr: addr}); err != nil {
		return 2
	}

	// Shut down on SIGTERM or when the parent closes (or dies and so drops)
	// our standard input.
	term := make(chan os.Signal, 1)
	signal.Notify(term, syscall.SIGTERM)
	eof := make(chan struct{})
	go func() {
		_, _ = io.Copy(io.Discard, stdin)
		close(eof)
	}()
	select {
	case <-term:
	case <-eof:
	}

	done := serveDone{AuditOK: true, Rows: srv.Rows()}
	if j.Ledger {
		for _, vm := range srv.VMs() {
			done.Ledger = append(done.Ledger, vm.Tel.Spans.Snapshot()...)
		}
	}
	if err := srv.Close(); err != nil {
		done.CloseErr = err.Error()
	}
	for i, vm := range srv.VMs() {
		if rep := vm.Audit(true); !rep.OK() {
			done.AuditOK = false
			done.Audit += fmt.Sprintf("shard %d:\n%s\n", i, rep)
		}
	}
	if err := out.Encode(done); err != nil {
		return 2
	}
	if !done.AuditOK || done.CloseErr != "" {
		return 1
	}
	return 0
}

// child is a running child process of the bench binary.
type child struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
}

// startChild re-executes this binary as `bench -child` and sends it j.
func startChild(j job) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-child")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting child: %w", err)
	}
	c := &child{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout)}
	b, err := json.Marshal(j)
	if err == nil {
		_, err = stdin.Write(append(b, '\n'))
	}
	if err != nil {
		c.kill()
		return nil, fmt.Errorf("sending job to child: %w", err)
	}
	return c, nil
}

// readLine decodes the child's next output line into v.
func (c *child) readLine(v any) error {
	line, err := c.out.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("reading child output: %w", err)
	}
	return json.Unmarshal(line, v)
}

// finish closes the child's input, decodes its last line into v (if not
// nil) and waits for it; a non-zero exit status is an error.
func (c *child) finish(v any) error {
	_ = c.stdin.Close()
	var rerr error
	if v != nil {
		rerr = c.readLine(v)
	}
	_, _ = io.Copy(io.Discard, c.out)
	if err := c.cmd.Wait(); err != nil {
		return fmt.Errorf("child: %w", err)
	}
	return rerr
}

// kill stops a child on an error path and reaps it.
func (c *child) kill() {
	_ = c.stdin.Close()
	_ = c.cmd.Process.Kill()
	_, _ = io.Copy(io.Discard, c.out)
	_ = c.cmd.Wait()
}
