// Package repro is a from-scratch Go reproduction of "Processes in
// KaffeOS: Isolation, Resource Management, and Sharing in Java" (Back,
// Hsieh, Lepreau — Univ. of Utah; OSDI 2000 / TR UUCS-00-010).
//
// The paper's subsystems live under repro/internal (see DESIGN.md for the
// full inventory); a VM and its processes are driven through
// repro/internal/core, as cmd/kaffeos and the examples do. The tables and
// figures of the paper's evaluation are regenerated by cmd/specbench
// (Figure 3, Table 1, §4.1, §3.2) and cmd/servbench (Figure 4); bench/
// times the end-to-end workloads and every layer under them (see
// EXPERIMENTS.md for results).
package repro
