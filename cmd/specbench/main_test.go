package main

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/spec"
)

// rows runs specbench with args and returns the fields of each table row
// (every line after the title and the header).
func rows(t *testing.T, args ...string) [][]string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rs [][]string
	for _, l := range lines[min(2, len(lines)):] {
		rs = append(rs, strings.Fields(l))
	}
	return rs
}

// table1's row carries the barrier count spec.Run reports and prices it
// at 41 cycles each. mtrt is the fastest workload that executes barriers.
func TestTable1MatchesTheBarrierCount(t *testing.T) {
	w, _ := spec.ByName("mtrt")
	p, _ := spec.PlatformByName("KaffeOS-NoHeapPointer")
	res, err := spec.Run(w, p)
	if err != nil || res.Barriers == 0 {
		t.Fatalf("mtrt: %v, %d barriers", err, res.Barriers)
	}
	want := fmt.Sprint([]uint64{res.Barriers, res.Barriers * 41})
	got := rows(t, "-experiment", "table1", "-workload", "mtrt")
	if len(got) != 1 || len(got[0]) != 4 || got[0][0] != "mtrt" || fmt.Sprint(got[0][1:3]) != want {
		t.Errorf("table1 rows = %q, want mtrt %s and a percentage", got, want)
	}
}

func TestMicroListsTheFourBarriers(t *testing.T) {
	want := "[[NoWriteBarrier 0] [HeapPointer 25] [NoHeapPointer 41] [FakeHeapPointer 41]]"
	var got [][]string
	for _, r := range rows(t, "-experiment", "micro") {
		got = append(got, r[:2])
	}
	if fmt.Sprint(got) != want {
		t.Errorf("micro (barrier, cycles) = %v, want %s", got, want)
	}
}

func TestOverheadPrintsEveryConfiguration(t *testing.T) {
	want := "[KaffeOS-HeapPointer KaffeOS-NoHeapPointer KaffeOS-FakeHeapPointer]"
	var got []string
	for _, r := range rows(t, "-experiment", "overhead", "-workload", "mtrt") {
		if len(r) != 2 || !strings.HasSuffix(r[1], "%") {
			t.Errorf("overhead row %q is not a configuration and a percentage", r)
		}
		got = append(got, r[0])
	}
	if fmt.Sprint(got) != want {
		t.Errorf("overhead configurations = %v, want %s", got, want)
	}
}

func TestUnknownNamesAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-experiment", "fig9"}, {"-experiment", "table1", "-workload", "nope"}} {
		var out bytes.Buffer
		var usage usageError
		if err := run(args, &out); !errors.As(err, &usage) || out.Len() != 0 {
			t.Errorf("run %v = %v after printing %q, want a usage error and nothing printed", args, err, out.String())
		}
	}
}
