package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// Source is one hub on the introspection surface, with where its process
// table and its invariant report come from. A lone VM is one Source; the
// serving plane lists one per shard.
type Source struct {
	Hub *Hub
	// Snapshot supplies the live process table; nil serves registry data
	// only.
	Snapshot SnapshotFunc
	// Audit produces a JSON-encodable invariant report and whether it is
	// clean (this package stays decoupled from the auditor's types). The
	// report is advisory while the VM runs — authoritative audits need a
	// quiescent VM. Nil makes /audit answer 501.
	Audit func() (report any, ok bool)
}

func (s Source) snapshot() Snapshot {
	if s.Snapshot != nil {
		return s.Snapshot()
	}
	return Snapshot{Procs: s.Hub.Reg.Rows(nil), Events: s.Hub.Trace.Total()}
}

// Handler builds the HTTP introspection surface over sources (stdlib
// net/http only). Every endpoint has one response shape however many
// sources there are; a source's index is its shard number:
//
//	/metrics       Prometheus text exposition of every scope's metrics,
//	               merged across sources (samples carry shard="N" when
//	               there is more than one)
//	/procs         JSON array of {shard, snapshot}: the live process tables
//	/ps            the process tables as plain text (headed "== shard N =="
//	               when there is more than one)
//	/trace         every trace ring as JSON lines
//	/spans         every completed-request span ring as JSON lines
//	               (Span.Shard disambiguates; kaffeos trace merges)
//	/audit         JSON array of {shard, ok, report}: invariant reports
//	/debug/pprof/  Go runtime profiling (heap, goroutine, cpu, ...)
func Handler(sources []Source) http.Handler {
	hubs := make([]*Hub, len(sources))
	for i, s := range sources {
		hubs[i] = s.Hub
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, hubs)
	})
	mux.HandleFunc("/procs", func(w http.ResponseWriter, r *http.Request) {
		type shardSnap struct {
			Shard int      `json:"shard"`
			Snap  Snapshot `json:"snapshot"`
		}
		out := make([]shardSnap, len(sources))
		for i, s := range sources {
			out[i] = shardSnap{Shard: i, Snap: s.snapshot()}
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(out)
	})
	mux.HandleFunc("/ps", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for i, s := range sources {
			if len(sources) > 1 {
				fmt.Fprintf(w, "== shard %d ==\n", i)
			}
			RenderTable(w, s.snapshot())
			if len(sources) > 1 {
				fmt.Fprintln(w)
			}
		}
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		for _, h := range hubs {
			_ = h.Trace.WriteJSONL(w)
		}
	})
	mux.HandleFunc("/spans", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		for _, h := range hubs {
			_ = h.Spans.WriteJSONL(w)
		}
	})
	mux.HandleFunc("/audit", func(w http.ResponseWriter, r *http.Request) {
		type shardAudit struct {
			Shard  int  `json:"shard"`
			OK     bool `json:"ok"`
			Report any  `json:"report"`
		}
		out := make([]shardAudit, len(sources))
		for i, s := range sources {
			if s.Audit == nil {
				http.Error(w, "no auditor installed", http.StatusNotImplemented)
				return
			}
			rep, ok := s.Audit()
			out[i] = shardAudit{Shard: i, OK: ok, Report: rep}
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(out)
	})
	// Runtime profiling. http.DefaultServeMux registration from importing
	// net/http/pprof does not reach this private mux, so wire the handlers
	// explicitly.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve starts the introspection endpoint on addr in a background
// goroutine and returns the bound address (useful with ":0"). The
// listener lives until the process exits; this is an opt-in debug
// surface, not a production server.
func Serve(addr string, sources []Source) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: Handler(sources)}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), nil
}
