package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixture is a two-arm experiment with canned measurements: the baseline
// is 10x slower at the median than the candidate.
func fixture(minRatio float64, verdict func(base, cand abArm) error) abExperiment {
	canned := func(samples []int64, c map[string]float64) armFunc {
		return func() ([]int64, map[string]float64, error) { return samples, c, nil }
	}
	return abExperiment{
		name: "fixture",
		what: "canned samples",
		arms: [2]abArmSpec{
			{"slow", canned([]int64{3000, 1000, 2000}, map[string]float64{"shed": 4})},
			{"fast", canned([]int64{200, 100, 300}, map[string]float64{"shed": 1})},
		},
		minRatio: minRatio,
		verdict:  verdict,
	}
}

// TestRunABReportSchema pins the one report every A/B selector writes:
// host, experiment, arms[]{name, samples (ascending), p50, p90,
// counters}, ratio, min_ratio.
func TestRunABReportSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ab.json")
	var out bytes.Buffer
	if _, err := runAB(fixture(5, nil), &out, path); err != nil {
		t.Fatalf("runAB: %v", err)
	}
	for _, frag := range []string{"fixture: canned samples", "slow", "fast", "ratio: 10.0x", "shed=4"} {
		if !strings.Contains(out.String(), frag) {
			t.Errorf("table missing %q:\n%s", frag, out.String())
		}
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Host       map[string]any `json:"host"`
		Experiment string         `json:"experiment"`
		Arms       []struct {
			Name     string             `json:"name"`
			Samples  []int64            `json:"samples"`
			P50      int64              `json:"p50"`
			P90      int64              `json:"p90"`
			Counters map[string]float64 `json:"counters"`
		} `json:"arms"`
		Ratio    float64 `json:"ratio"`
		MinRatio float64 `json:"min_ratio"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("report does not match the schema: %v\n%s", err, data)
	}
	if rep.Host["cores"] == nil || rep.Host["gomaxprocs"] == nil {
		t.Errorf("host block incomplete: %v", rep.Host)
	}
	if rep.Experiment != "fixture" || rep.Ratio != 10 || rep.MinRatio != 5 {
		t.Errorf("experiment %q ratio %v min_ratio %v, want fixture 10 5", rep.Experiment, rep.Ratio, rep.MinRatio)
	}
	if len(rep.Arms) != 2 {
		t.Fatalf("%d arms, want 2", len(rep.Arms))
	}
	slow, fast := rep.Arms[0], rep.Arms[1]
	if slow.Name != "slow" || slow.P50 != 2000 || slow.P90 != 2000 || slow.Counters["shed"] != 4 {
		t.Errorf("baseline arm = %+v", slow)
	}
	if fast.Name != "fast" || fast.P50 != 200 || len(fast.Samples) != 3 || fast.Samples[0] != 100 || fast.Samples[2] != 300 {
		t.Errorf("candidate arm = %+v (samples must be ascending)", fast)
	}
}

// TestRunABGates: a ratio under min_ratio fails, a verdict's refusal
// fails, and either way the report is still written for the post-mortem.
func TestRunABGates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ab.json")
	rep, err := runAB(fixture(20, nil), &bytes.Buffer{}, path)
	if err == nil || !strings.Contains(err.Error(), "want >=20x") {
		t.Errorf("ratio 10 under min_ratio 20: err = %v, want a gate failure", err)
	}
	if rep.Ratio != 10 {
		t.Errorf("failed gate lost the report: ratio %v", rep.Ratio)
	}
	if _, statErr := os.Stat(path); statErr != nil {
		t.Errorf("failed gate wrote no report: %v", statErr)
	}

	refuse := errors.New("candidate shed more")
	_, err = runAB(fixture(0, func(base, cand abArm) error {
		if base.Counters["shed"] != 4 || cand.Counters["shed"] != 1 {
			t.Errorf("verdict saw counters %v / %v", base.Counters, cand.Counters)
		}
		return refuse
	}), &bytes.Buffer{}, "")
	if !errors.Is(err, refuse) {
		t.Errorf("verdict refusal: err = %v, want it wrapped", err)
	}

	broken := fixture(0, nil)
	broken.arms[1].run = func() ([]int64, map[string]float64, error) { return nil, nil, nil }
	if _, err := runAB(broken, &bytes.Buffer{}, ""); err == nil {
		t.Error("an arm with no samples must fail the run")
	}
}
