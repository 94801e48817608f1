package telemetry

import "runtime"

// HostInfo describes the machine a benchmark artifact was produced on.
// Bench harnesses embed it in their JSON output so numbers are
// self-describing: a 1-core host cannot show parallel-GC overlap, a
// GOMAXPROCS-limited run cannot show allocation contention, and so on.
type HostInfo struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
}

// Host captures the current machine's benchmark-relevant shape.
func Host() HostInfo {
	return HostInfo{
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
	}
}
