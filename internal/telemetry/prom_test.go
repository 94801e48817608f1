package telemetry

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestPrometheusExpositionWellFormed is a format validator: it renders a
// populated hub and checks the text against the exposition rules a real
// Prometheus scraper enforces — TYPE before samples, one TYPE per family,
// legal names and label syntax, and cumulative histogram buckets whose
// +Inf count equals the series count.
func TestPrometheusExpositionWellFormed(t *testing.T) {
	hub := NewHub(64)
	hub.SetTracing(true)
	hub.Emit(Event{Kind: EvProcCreate, Pid: 3, Detail: "tenant-a"})
	hub.Emit(Event{Kind: EvProcCreate, Pid: 7, Detail: "tenant-b"})
	// Populate several metric kinds across scopes, including histograms
	// with spread-out observations so multiple buckets are non-empty.
	k := hub.Reg.Kernel()
	k.Counter(MProcsCreated).Add(2)
	k.Gauge(MMemLimit).Set(123456)
	// The serving plane's Go heap pacing: the setting and its inputs.
	k.Gauge(MGoGCPercent).Set(240)
	k.Gauge(MGoHeapGoal).Set(24 << 20)
	k.Gauge(MGoHeapLive).Set(7 << 20)
	k.Gauge(MGoAllocRate).Set(90 << 20)
	for _, v := range []uint64{1, 3, 9, 100, 5000, 5001, 1 << 20} {
		k.Histogram(MGCPause).Observe(v)
	}
	a := hub.Reg.Proc(3)
	a.Counter(MCPUCycles).Add(999)
	a.Histogram(MQuantum).Observe(250)
	hub.Reg.Proc(7).Counter(MGCCycles).Add(500)

	var sb strings.Builder
	if err := WritePrometheus(&sb, []*Hub{hub}); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	typeOf := validateExposition(t, sb.String())

	// Spot-check families that must be present, with the dotted metric
	// names mapped to legal Prometheus names.
	for _, want := range []string{"kaffeos_proc_created", "kaffeos_cpu_cycles",
		"kaffeos_gc_pause_cycles", "kaffeos_trace_dropped", "kaffeos_span_dropped",
		"kaffeos_go_gc_percent", "kaffeos_go_heap_goal_bytes", "kaffeos_go_heap_live_bytes",
		"kaffeos_go_alloc_bytes_per_s"} {
		if _, ok := typeOf[want]; !ok {
			t.Errorf("family %q missing from exposition", want)
		}
	}
}

// validateExposition checks text against the exposition rules listed on
// TestPrometheusExpositionWellFormed and returns each family's declared
// type. The HTTP surface test runs it on what /metrics actually serves.
func validateExposition(t *testing.T, text string) (typeOf map[string]string) {
	t.Helper()
	if !strings.HasSuffix(text, "\n") {
		t.Error("exposition must end with a newline")
	}

	var (
		nameRe   = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
		sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{([^}]*)\})? (-?[0-9]+(?:\.[0-9]+)?(?:e[+-][0-9]+)?|\+Inf|NaN)$`)
		labelRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$`)
	)
	typeOf = map[string]string{} // family -> counter|gauge|histogram
	sampleSeen := map[string]bool{}
	// bucket series key -> cumulative counts in order of appearance
	type bucketSeries struct {
		counts []uint64
		infSet bool
		inf    uint64
	}
	buckets := map[string]*bucketSeries{}
	counts := map[string]uint64{} // _count series -> value

	baseFamily := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			fam := strings.TrimSuffix(name, suf)
			if fam != name && typeOf[fam] == "histogram" {
				return fam
			}
		}
		return name
	}

	for i, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			t.Errorf("line %d: empty line in exposition", i+1)
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Errorf("line %d: malformed TYPE line %q", i+1, line)
				continue
			}
			fam, kind := parts[2], parts[3]
			if !nameRe.MatchString(fam) {
				t.Errorf("line %d: illegal family name %q", i+1, fam)
			}
			if kind != "counter" && kind != "gauge" && kind != "histogram" {
				t.Errorf("line %d: unknown metric type %q", i+1, kind)
			}
			if _, dup := typeOf[fam]; dup {
				t.Errorf("line %d: duplicate TYPE for family %q", i+1, fam)
			}
			if sampleSeen[fam] {
				t.Errorf("line %d: TYPE for %q after its samples", i+1, fam)
			}
			typeOf[fam] = kind
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("line %d: unknown comment %q", i+1, line)
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("line %d: malformed sample %q", i+1, line)
			continue
		}
		name, labels, value := m[1], m[2], m[3]
		fam := baseFamily(name)
		kind, declared := typeOf[fam]
		if !declared {
			t.Errorf("line %d: sample %q has no preceding TYPE", i+1, name)
			continue
		}
		sampleSeen[fam] = true
		var le string
		if labels != "" {
			for _, pair := range splitLabels(labels) {
				if !labelRe.MatchString(pair) {
					t.Errorf("line %d: bad label pair %q", i+1, pair)
				}
				if strings.HasPrefix(pair, "le=") {
					le = strings.Trim(strings.TrimPrefix(pair, "le="), `"`)
				}
			}
		}
		if kind == "histogram" && strings.HasSuffix(name, "_bucket") {
			key := name + "|" + stripLabel(labels, "le")
			bs := buckets[key]
			if bs == nil {
				bs = &bucketSeries{}
				buckets[key] = bs
			}
			v, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				t.Errorf("line %d: bucket value %q not a count", i+1, value)
				continue
			}
			if le == "+Inf" {
				bs.infSet, bs.inf = true, v
			}
			bs.counts = append(bs.counts, v)
		}
		if kind == "histogram" && strings.HasSuffix(name, "_count") {
			v, _ := strconv.ParseUint(value, 10, 64)
			counts[fam+"|"+labels] = v
		}
	}

	// Histogram invariants: buckets cumulative and +Inf == _count.
	if len(buckets) == 0 {
		t.Fatal("no histogram bucket series found")
	}
	for key, bs := range buckets {
		for i := 1; i < len(bs.counts); i++ {
			if bs.counts[i] < bs.counts[i-1] {
				t.Errorf("series %s: buckets not cumulative: %v", key, bs.counts)
				break
			}
		}
		if !bs.infSet {
			t.Errorf("series %s: no le=\"+Inf\" bucket", key)
		}
	}
	for key, bs := range buckets {
		parts := strings.SplitN(key, "|", 2)
		fam := strings.TrimSuffix(parts[0], "_bucket")
		cnt, ok := counts[fam+"|"+parts[1]]
		if !ok {
			t.Errorf("series %s: histogram has buckets but no _count", key)
			continue
		}
		if bs.infSet && bs.inf != cnt {
			t.Errorf("series %s: +Inf bucket %d != _count %d", key, bs.inf, cnt)
		}
	}
	return typeOf
}

// splitLabels splits a label body on commas that terminate a pair
// (label values in this exposition never contain commas, but keep the
// parse honest about quotes anyway).
func splitLabels(s string) []string {
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// stripLabel removes one label pair from a label body, normalizing a
// bucket series key so all le= variants collapse together.
func stripLabel(labels, name string) string {
	var keep []string
	for _, pair := range splitLabels(labels) {
		if !strings.HasPrefix(pair, name+"=") {
			keep = append(keep, pair)
		}
	}
	return strings.Join(keep, ",")
}
