package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/bytecode"
)

// Seed 11 of `kaffeos check` fires heap.mark inside a clinit-time
// collection of a process that has no threads yet. The kill used to
// reclaim inline, relocking the gcMu the collection still held, and the
// sweep hung. It must finish, with the fault fired and the audit clean.
func TestCheckSeed11KillInsideClinitCollect(t *testing.T) {
	mod := bytecode.MustAssemble(checkWorkload)
	progs := []checkProg{{"churn-1", mod}, {"churn-2", mod}}
	type result struct {
		faults string
		ok     bool
		report string
		err    error
	}
	done := make(chan result, 1)
	go func() {
		faults, rep, err := checkSeed(11, "all=0.01", progs)
		if err != nil {
			done <- result{err: err}
			return
		}
		done <- result{faults: faults, ok: rep.OK(), report: rep.String()}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if !strings.Contains(r.faults, "heap.mark=1/") {
			t.Errorf("seed 11 no longer fires heap.mark once: %s", r.faults)
		}
		if !r.ok {
			t.Errorf("seed 11 audit: %s", r.report)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("seed 11 hung: a kill inside a collection deadlocked its reclaim")
	}
}
