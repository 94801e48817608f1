package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) over the whole
// registry. Internal dotted metric names become one family each
// (`cpu.cycles` → `kaffeos_cpu_cycles`), with per-scope samples labelled
// {pid, proc}; the kernel scope is pid 0. The power-of-two histograms map
// directly onto Prometheus histograms: internal bucket i counts values
// with bit-length i, so its upper edge 2^i−1 becomes the cumulative `le`
// edge.

// promName maps a dotted internal metric name to a Prometheus family name.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("kaffeos_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promEscape escapes a label value per the exposition format.
func promEscape(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// scoped pairs a metric pointer with the labels of the scope it came from.
type scoped[T any] struct {
	labels string
	m      T
}

// metricRefs snapshots the scope's metric pointers (not values) so
// exposition reads each atomic exactly once outside the scope lock.
func (s *Scope) metricRefs() (labels string, counters map[string]*Counter, gauges map[string]*Gauge, hists map[string]*Histogram) {
	s.mu.Lock()
	defer s.mu.Unlock()
	labels = fmt.Sprintf(`pid="%d",proc="%s"`, s.Pid, promEscape(s.Name))
	counters = make(map[string]*Counter, len(s.counters))
	for k, v := range s.counters {
		counters[k] = v
	}
	gauges = make(map[string]*Gauge, len(s.gauges))
	for k, v := range s.gauges {
		gauges[k] = v
	}
	hists = make(map[string]*Histogram, len(s.hists))
	for k, v := range s.hists {
		hists[k] = v
	}
	return labels, counters, gauges, hists
}

// syncDerived publishes ring-drop counts as kernel gauges right before a
// dump, so scrapes and `top` see trace/span truncation without polling
// the rings themselves.
func (h *Hub) syncDerived() {
	k := h.Reg.Kernel()
	if h.Trace != nil {
		k.Gauge(MTraceDropped).Set(h.Trace.Dropped())
	}
	if h.Spans != nil {
		k.Gauge(MSpanDropped).Set(h.Spans.Dropped())
	}
}

// WritePrometheus renders the hubs' metrics as one Prometheus text
// exposition: one family per metric name — merged across hubs, so
// HELP/TYPE appear exactly once — with samples in hub, then scope order
// (kernel first, then pids ascending). Several hubs are told apart by a
// shard="N" label, N being the hub's index; a lone hub needs none.
func WritePrometheus(w io.Writer, hubs []*Hub) error {
	counterFams := make(map[string][]scoped[*Counter])
	gaugeFams := make(map[string][]scoped[*Gauge])
	histFams := make(map[string][]scoped[*Histogram])
	for i, h := range hubs {
		h.syncDerived()
		scopes := append([]*Scope{h.Reg.Kernel()}, h.Reg.Procs()...)
		for _, s := range scopes {
			labels, counters, gauges, hists := s.metricRefs()
			if len(hubs) > 1 {
				labels = fmt.Sprintf(`shard="%d",%s`, i, labels)
			}
			for name, c := range counters {
				counterFams[name] = append(counterFams[name], scoped[*Counter]{labels, c})
			}
			for name, g := range gauges {
				gaugeFams[name] = append(gaugeFams[name], scoped[*Gauge]{labels, g})
			}
			for name, hg := range hists {
				histFams[name] = append(histFams[name], scoped[*Histogram]{labels, hg})
			}
		}
	}

	bw := bufio.NewWriter(w)
	emitHeader := func(name, typ string) string {
		fam := promName(name)
		fmt.Fprintf(bw, "# HELP %s KaffeOS metric %s\n", fam, name)
		fmt.Fprintf(bw, "# TYPE %s %s\n", fam, typ)
		return fam
	}

	for _, name := range sortedKeys(counterFams) {
		fam := emitHeader(name, "counter")
		for _, sc := range counterFams[name] {
			fmt.Fprintf(bw, "%s{%s} %d\n", fam, sc.labels, sc.m.Value())
		}
	}
	for _, name := range sortedKeys(gaugeFams) {
		fam := emitHeader(name, "gauge")
		for _, sc := range gaugeFams[name] {
			fmt.Fprintf(bw, "%s{%s} %d\n", fam, sc.labels, sc.m.Value())
		}
	}
	for _, name := range sortedKeys(histFams) {
		fam := emitHeader(name, "histogram")
		for _, sc := range histFams[name] {
			buckets := sc.m.Buckets()
			var cum uint64
			for i, n := range buckets {
				if n == 0 {
					continue
				}
				cum += n
				// Upper edge of internal bucket i: values of bit-length i,
				// so 2^i − 1 (bucket 0 holds zeros). The top bucket absorbs
				// overflow and is covered by +Inf below.
				if i == HistBuckets-1 {
					continue
				}
				fmt.Fprintf(bw, "%s_bucket{%s,le=\"%d\"} %d\n", fam, sc.labels, uint64(1)<<uint(i)-1, cum)
			}
			fmt.Fprintf(bw, "%s_bucket{%s,le=\"+Inf\"} %d\n", fam, sc.labels, sc.m.Count())
			fmt.Fprintf(bw, "%s_sum{%s} %d\n", fam, sc.labels, sc.m.Sum())
			fmt.Fprintf(bw, "%s_count{%s} %d\n", fam, sc.labels, sc.m.Count())
		}
	}
	return bw.Flush()
}

func sortedKeys[T any](m map[string]T) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
