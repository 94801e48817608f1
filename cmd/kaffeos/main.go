// Command kaffeos runs programs written in kvm assembly on the KaffeOS
// virtual machine, one isolated process per program file.
//
// Usage:
//
//	kaffeos run prog.kasm [prog2.kasm ...]   run programs, one process each
//	kaffeos run -main app/Main prog.kasm     explicit entry class
//	kaffeos run -mem 4096 prog.kasm          per-process memlimit (KiB)
//	kaffeos run -stats prog.kasm             resource accounting at exit
//	kaffeos run -trace out.jsonl prog.kasm   dump the kernel event trace
//	kaffeos run -http :8080 prog.kasm        HTTP introspection endpoint
//	kaffeos run -faults spec prog.kasm       run under fault injection + audit
//	kaffeos serve -addr :8080 -routes spec   HTTP serving plane, one process per route
//	kaffeos trace -spans spans.jsonl         per-phase quantiles + slowest requests
//	kaffeos trace -url http://host:9090      same, scraped from a live /spans endpoint
//	kaffeos ps [flags] prog.kasm ...         run, then print the process table
//	kaffeos top -interval 50 prog.kasm ...   re-render the table as the VM runs
//	kaffeos check prog.kasm                  assemble + verify only
//	kaffeos check -seeds 32 [prog.kasm ...]  fault-injection sweep + invariant audit
//	kaffeos dis prog.kasm                    disassemble round-trip
//
// Each program must contain a class with a static main()V or main()I.
// Without -main, the first class defining one is used.
//
// ps and top accept the run flags too; ps additionally takes -for N to
// bound the run to N virtual milliseconds (0 = run to completion). The
// table includes reclaimed processes: per-process accounting survives
// reclamation in the telemetry registry.
//
// With -faults, run arms the deterministic fault-injection plane with the
// given plan (e.g. "seed=7,all=0.01" or "heap.alloc=0.02,sched.kill=@100";
// see repro/internal/faults) and audits every kernel invariant after the
// run; processes dying of injected faults is expected, broken bookkeeping
// is not. check -seeds=N runs its workload once per seed 1..N under
// "all=0.01" (override with -faults) and fails if any seed leaves a single
// invariant violated.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/audit"
	"repro/internal/bytecode"
	"repro/internal/telemetry"
	"repro/kaffeos"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = runCmd(os.Args[2:])
	case "ps":
		err = psCmd(os.Args[2:])
	case "top":
		err = topCmd(os.Args[2:])
	case "serve":
		err = serveCmd(os.Args[2:])
	case "trace":
		err = traceCmd(os.Args[2:])
	case "check":
		err = checkCmd(os.Args[2:])
	case "dis":
		err = disCmd(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "kaffeos: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: kaffeos run|ps|top|serve|trace|check|dis [flags] [file.kasm ...]")
	os.Exit(2)
}

// runFlags are the flags shared by run, ps and top.
type runFlags struct {
	mainClass *string
	memKB     *int
	engine    *string
	barrier   *string
	cpuMS     *int
	gcWorkers *int
	trace     *string
	httpAddr  *string
	faults    *string
}

func addRunFlags(fs *flag.FlagSet) *runFlags {
	return &runFlags{
		mainClass: fs.String("main", "", "entry class (default: first class with main)"),
		memKB:     fs.Int("mem", 16384, "per-process memory limit in KiB"),
		engine:    fs.String("engine", "jit-opt", "execution engine: interp | jit-opt"),
		barrier:   fs.String("barrier", "NoHeapPointer", "write barrier: NoWriteBarrier | HeapPointer | NoHeapPointer | FakeHeapPointer"),
		cpuMS:     fs.Int("cpu", 0, "per-process CPU limit in virtual milliseconds (0 = unlimited)"),
		gcWorkers: fs.Int("gcworkers", 0, "GC worker pool for collecting process heaps concurrently (0 = GOMAXPROCS)"),
		trace:     fs.String("trace", "", "dump the kernel event trace to this file as JSON lines at exit"),
		httpAddr:  fs.String("http", "", "serve the telemetry HTTP endpoint on this address (e.g. :8080)"),
		faults:    fs.String("faults", "", `arm deterministic fault injection with this plan (e.g. "seed=7,all=0.01")`),
	}
}

type job struct {
	proc *kaffeos.Process
	th   *kaffeos.Thread
	file string
}

// setup builds the VM and one process per program file, applying the
// shared run/ps/top flags (tracing on when -trace is set, HTTP endpoint
// when -http is set).
func setup(rf *runFlags, files []string) (*kaffeos.VM, []job, error) {
	if len(files) == 0 {
		return nil, nil, fmt.Errorf("no program files")
	}
	vm, err := kaffeos.New(kaffeos.Config{
		Engine:    kaffeos.Engine(*rf.engine),
		Barrier:   kaffeos.WriteBarrier(*rf.barrier),
		GCWorkers: *rf.gcWorkers,
		Stdout:    os.Stdout,
		Faults:    *rf.faults,
	})
	if err != nil {
		return nil, nil, err
	}
	if *rf.trace != "" {
		vm.SetTracing(true)
	}
	if *rf.httpAddr != "" {
		addr, err := vm.ServeTelemetry(*rf.httpAddr)
		if err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(os.Stderr, "kaffeos: telemetry on http://%s (/metrics /procs /ps /spans /trace /audit /debug/pprof)\n", addr)
	}

	var jobs []job
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, nil, err
		}
		mod, err := bytecode.Assemble(string(src))
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", file, err)
		}
		entry := *rf.mainClass
		if entry == "" {
			entry = findMain(mod)
			if entry == "" {
				return nil, nil, fmt.Errorf("%s: no class with a static main method", file)
			}
		}
		p, err := vm.NewProcess(file, kaffeos.ProcessConfig{
			MemLimit: uint64(*rf.memKB) << 10,
			CPULimit: uint64(*rf.cpuMS) * 500_000,
		})
		if err != nil {
			return nil, nil, err
		}
		if err := p.LoadModule(mod); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", file, err)
		}
		th, err := p.Start(entry)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", file, err)
		}
		jobs = append(jobs, job{proc: p, th: th, file: file})
	}
	return vm, jobs, nil
}

// finish writes the -trace dump, if requested.
func finish(vm *kaffeos.VM, rf *runFlags) error {
	if *rf.trace == "" {
		return nil
	}
	f, err := os.Create(*rf.trace)
	if err != nil {
		return err
	}
	defer f.Close()
	tr := vm.Telemetry().Trace
	if err := tr.WriteJSONL(f); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "kaffeos: wrote %d events to %s (%d dropped from ring)\n",
		tr.Total()-tr.Dropped(), *rf.trace, tr.Dropped())
	return nil
}

// printStats writes the stable, greppable -stats report: one "proc" line
// and one "gc-pause" line per process, then kernel-wide lines.
func printStats(vm *kaffeos.VM) {
	hub := vm.Telemetry()
	snap := vm.Snapshot()
	for _, r := range snap.Procs {
		fmt.Fprintf(os.Stderr,
			"proc pid=%d name=%q state=%s cpu-cycles=%d cpu-ms=%d io-bytes=%d heap-bytes=%d mem-use=%d mem-limit=%d gcs=%d gc-cycles=%d\n",
			r.Pid, r.Name, r.State, r.CPUCycles, r.CPUCycles/telemetry.CyclesPerMs,
			r.IOBytes, r.HeapBytes, r.MemUse, r.MemLimit, r.GCs, r.GCCycles)
		pause := hub.Reg.Proc(r.Pid).Histogram(telemetry.MGCPause)
		fmt.Fprintf(os.Stderr, "gc-pause pid=%d %s\n", r.Pid, pause.Summary())
	}
	kernel := hub.Reg.Kernel()
	fmt.Fprintf(os.Stderr, "gc-pause pid=0 %s\n", kernel.Histogram(telemetry.MGCPause).Summary())
	fmt.Fprintf(os.Stderr, "barrier checks=%d violations=%d\n",
		vm.BarriersExecuted(), kernel.Counter(telemetry.MViolations).Value())
	fmt.Fprintf(os.Stderr, "memlimit failures=%d\n", kernel.Counter(telemetry.MMemFailures).Value())
	fmt.Fprintf(os.Stderr, "gc-fastpath hits=%d misses=%d overlap=%d\n",
		snap.GCFastHits, snap.GCFastMisses, snap.GCOverlap)
	fmt.Fprintf(os.Stderr, "kernel gcs=%d virtual-ms=%d events=%d\n",
		snap.KernelGCs, snap.NowMillis, snap.Events)
}

func runCmd(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	rf := addRunFlags(fs)
	stats := fs.Bool("stats", false, "print per-process resource accounting at exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	vm, jobs, err := setup(rf, fs.Args())
	if err != nil {
		return err
	}
	if err := vm.Run(); err != nil {
		return err
	}
	if *stats {
		printStats(vm)
	}
	if err := finish(vm, rf); err != nil {
		return err
	}
	exitCode := 0
	for _, j := range jobs {
		switch {
		case j.proc.Exited():
			fmt.Fprintf(os.Stderr, "kaffeos: %s: exited", j.file)
			if j.th.Done() && j.th.Err() == nil {
				fmt.Fprintf(os.Stderr, " (result %d)", j.th.Result())
			}
			fmt.Fprintln(os.Stderr)
		default:
			fmt.Fprintf(os.Stderr, "kaffeos: %s: died: %s\n", j.file, j.proc.FailureClass())
			if *rf.faults == "" {
				// Under fault injection, dying processes are the point;
				// only broken invariants (below) fail the run.
				exitCode = 1
			}
		}
	}
	if *rf.faults != "" {
		vm.GCAll()
		rep := vm.Audit(true)
		fmt.Fprintf(os.Stderr, "kaffeos: %s\n", vm.FaultSummary())
		fmt.Fprintf(os.Stderr, "kaffeos: %s\n", rep)
		if !rep.OK() {
			exitCode = 1
		}
	}
	if exitCode != 0 {
		os.Exit(exitCode)
	}
	return nil
}

// psCmd runs the programs (optionally for a bounded stretch of virtual
// time) and prints the /proc-style process table.
func psCmd(args []string) error {
	fs := flag.NewFlagSet("ps", flag.ExitOnError)
	rf := addRunFlags(fs)
	forMS := fs.Int("for", 0, "run for this many virtual milliseconds before printing (0 = to completion)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	vm, _, err := setup(rf, fs.Args())
	if err != nil {
		return err
	}
	if err := vm.RunFor(uint64(*forMS) * 500_000); err != nil {
		return err
	}
	telemetry.RenderTable(os.Stdout, vm.Snapshot())
	return finish(vm, rf)
}

// topCmd re-renders the process table every -interval virtual
// milliseconds while the programs run.
func topCmd(args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	rf := addRunFlags(fs)
	intervalMS := fs.Int("interval", 50, "virtual milliseconds between refreshes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *intervalMS <= 0 {
		return fmt.Errorf("top: -interval must be positive")
	}
	vm, _, err := setup(rf, fs.Args())
	if err != nil {
		return err
	}
	for {
		before := vm.Snapshot().NowCycles
		if err := vm.RunFor(uint64(*intervalMS) * 500_000); err != nil {
			return err
		}
		snap := vm.Snapshot()
		fmt.Printf("--- t=%dms (%d cycles) kernel-gcs=%d ---\n",
			snap.NowMillis, snap.NowCycles, snap.KernelGCs)
		telemetry.RenderTable(os.Stdout, snap)
		if d := vm.Telemetry().Trace.Dropped(); d > 0 {
			// A wrapped ring means the retained trace is a window, not the
			// whole run — never let a truncated trace read as complete.
			fmt.Printf("warning: trace ring overflowed, %d events dropped (trace is truncated)\n", d)
		}
		if snap.NowCycles == before {
			break // no progress: every thread exited
		}
	}
	return finish(vm, rf)
}

func findMain(mod *bytecode.Module) string {
	for _, c := range mod.Classes {
		for _, m := range c.Methods {
			if m.Name == "main" && m.Static && (m.Sig == "()V" || m.Sig == "()I") {
				return c.Name
			}
		}
	}
	return ""
}

func checkCmd(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	seeds := fs.Int("seeds", 0, "sweep this many fault-injection seeds through a full run + audit (0 = assemble/verify only)")
	spec := fs.String("faults", "all=0.01", "fault plan template applied to every seed in the sweep")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seeds <= 0 {
		return checkStatic(fs.Args())
	}
	return checkSweep(*seeds, *spec, fs.Args())
}

// checkStatic is the classic mode: assemble + verify each file.
func checkStatic(files []string) error {
	if len(files) == 0 {
		return fmt.Errorf("no files")
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		mod, err := bytecode.Assemble(string(src))
		if err != nil {
			return fmt.Errorf("%s: %w", file, err)
		}
		if err := bytecode.VerifyModule(mod); err != nil {
			return fmt.Errorf("%s: %w", file, err)
		}
		total := 0
		for _, c := range mod.Classes {
			for _, m := range c.Methods {
				if m.Code != nil {
					total += len(m.Code.Instrs)
				}
			}
		}
		fmt.Printf("%s: ok (%d classes, %d instructions)\n", file, len(mod.Classes), total)
	}
	return nil
}

// checkWorkload is the built-in sweep program when no files are given:
// two threads churning linked lists, so a run exercises allocation, GC,
// write barriers, thread spawn/join, and process reclamation.
const checkWorkload = `
.class app/Node
.field next Lapp/Node;
.field v I
.method <init> ()V
.locals 1
.stack 1
	aload 0
	invokespecial java/lang/Object.<init> ()V
	return
.end
.end
.class app/Churn extends java/lang/Thread
.method <init> ()V
.locals 1
.stack 1
	aload 0
	invokespecial java/lang/Thread.<init> ()V
	return
.end
.method run ()V
.locals 4
.stack 3
	iconst 0
	istore 1
ROUND:	iload 1
	ldc 40
	if_icmpge DONE
	aconst_null
	astore 2
	iconst 0
	istore 3
LIST:	iload 3
	ldc 64
	if_icmpge NEXTR
	new app/Node
	dup
	invokespecial app/Node.<init> ()V
	dup
	aload 2
	putfield app/Node.next Lapp/Node;
	dup
	iload 3
	putfield app/Node.v I
	astore 2
	iinc 3 1
	goto LIST
NEXTR:	aconst_null
	astore 2
	iinc 1 1
	goto ROUND
DONE:	return
.end
.end
.class app/Main
.method main ()I static
.locals 2
.stack 2
	new app/Churn
	dup
	invokespecial app/Churn.<init> ()V
	astore 0
	new app/Churn
	dup
	invokespecial app/Churn.<init> ()V
	astore 1
	aload 0
	invokevirtual java/lang/Thread.start ()V
	aload 1
	invokevirtual java/lang/Thread.start ()V
	aload 0
	invokevirtual java/lang/Thread.join ()V
	aload 1
	invokevirtual java/lang/Thread.join ()V
	iconst 1
	ireturn
.end
.end`

// sweepWarmSource is the zygote program for the sweep's checkpoint/fork
// churn: a <clinit>-built lookup table, checkpointable right after load.
const sweepWarmSource = `
.class app/SweepWarm
.static table Ljava/util/Vector;
.method <clinit> ()V static
.locals 1
.stack 5
	new java/util/Vector
	dup
	invokespecial java/util/Vector.<init> ()V
	putstatic app/SweepWarm.table Ljava/util/Vector;
	iconst 0
	istore 0
L0:	iload 0
	ldc 32
	if_icmpge DONE
	getstatic app/SweepWarm.table Ljava/util/Vector;
	new java/lang/Integer
	dup
	iload 0
	iload 0
	imul
	invokespecial java/lang/Integer.<init> (I)V
	invokevirtual java/util/Vector.add (Ljava/lang/Object;)V
	iinc 0 1
	goto L0
DONE:	return
.end
.end`

// checkProg is one workload program of the check sweep.
type checkProg struct {
	name string
	mod  *bytecode.Module
}

// checkSweep runs the workload once per seed 1..n with the fault plane
// armed, then audits every kernel invariant. Processes dying of injected
// faults is the expected outcome; any bookkeeping violation fails the
// sweep.
func checkSweep(n int, spec string, files []string) error {
	var progs []checkProg
	if len(files) == 0 {
		mod, err := bytecode.Assemble(checkWorkload)
		if err != nil {
			return fmt.Errorf("built-in workload: %w", err)
		}
		progs = []checkProg{{"churn-1", mod}, {"churn-2", mod}}
	} else {
		for _, file := range files {
			src, err := os.ReadFile(file)
			if err != nil {
				return err
			}
			mod, err := bytecode.Assemble(string(src))
			if err != nil {
				return fmt.Errorf("%s: %w", file, err)
			}
			progs = append(progs, checkProg{file, mod})
		}
	}
	badSeeds := 0
	for seed := 1; seed <= n; seed++ {
		faults, rep, err := checkSeed(seed, spec, progs)
		if err != nil {
			return err
		}
		fmt.Printf("seed %3d: %s; %s\n", seed, faults, rep)
		if !rep.OK() {
			badSeeds++
			for _, v := range rep.Violations {
				fmt.Printf("    %s: %s\n", v.Rule, v.Detail)
			}
		}
	}
	if badSeeds > 0 {
		fmt.Printf("check: %d/%d seeds left invariants violated\n", badSeeds, n)
		os.Exit(1)
	}
	fmt.Printf("check: %d seeds, all invariants held\n", n)
	return nil
}

// checkSeed runs the sweep's workload under one seed of the fault plan and
// returns the plane's fault summary and the post-run audit. Each seed also
// churns the template path — warm a zygote, checkpoint it, fork clones
// onto the workload, kill the origin — so fork.copy and friends get
// injected into alongside the classic sites.
func checkSeed(seed int, spec string, progs []checkProg) (string, *audit.Report, error) {
	plan := fmt.Sprintf("seed=%d,%s", seed, spec)
	// MemBudget arms the memory-balancer controller so the sweep
	// exercises the membal.rebalance fault site alongside the rest;
	// the tight interval (one quantum) gets rebalance rounds even into
	// runs that injected faults cut short.
	// CodeCache (with the default jit-opt engine) puts the
	// codecache.attach site on every process creation and module load,
	// so the sweep injects into attach unwinds too.
	vm, err := kaffeos.New(kaffeos.Config{
		Faults: plan, MemBudget: 48 << 20, MemBalInterval: 100_000,
		Engine: kaffeos.JITOpt, CodeCache: true,
	})
	if err != nil {
		return "", nil, err
	}
	for _, pr := range progs {
		entry := findMain(pr.mod)
		if entry == "" {
			return "", nil, fmt.Errorf("%s: no class with a static main method", pr.name)
		}
		p, err := vm.NewProcess(pr.name, kaffeos.ProcessConfig{MemLimit: 16 << 20})
		if err != nil {
			continue // injected allocation failure at creation: fine
		}
		if err := p.LoadModule(pr.mod); err != nil {
			continue // process killed by a fault mid-load: fine
		}
		if _, err := p.Start(entry); err != nil {
			continue // ditto at main-thread spawn
		}
	}
	// Template churn: every step may die of an injected fault (that is
	// the point), but whatever survives must keep the books exact. An
	// attempt killed mid-warmup or mid-copy still exercised the unwind
	// paths; retry a few times so most seeds also fork successfully.
	for attempt := 0; attempt < 3; attempt++ {
		zygote, err := vm.NewProcess("zygote", kaffeos.ProcessConfig{MemLimit: 16 << 20})
		if err != nil {
			continue // injected allocation failure at creation: fine
		}
		if err := zygote.LoadSource(sweepWarmSource); err != nil {
			zygote.Kill() // warmup died of an injected fault: fine
			continue
		}
		tpl, err := vm.Checkpoint(zygote, "sweep")
		zygote.Kill()
		if err != nil {
			continue // checkpoint copy faulted and unwound: fine
		}
		for i := 0; i < 2; i++ {
			clone, err := tpl.Fork(fmt.Sprintf("clone-%d", i), kaffeos.ProcessConfig{MemLimit: 16 << 20})
			if err != nil {
				continue // fork.copy fault unwound the clone: fine
			}
			if err := clone.LoadModule(progs[0].mod); err != nil {
				continue
			}
			_, _ = clone.Start(findMain(progs[0].mod))
		}
		if seed%2 == 0 {
			_ = tpl.Release() // odd seeds audit with the template live
		}
		break
	}
	if err := vm.Run(); err != nil {
		return "", nil, fmt.Errorf("seed %d: %w", seed, err)
	}
	vm.GCAll()
	return vm.FaultSummary(), vm.Audit(true), nil
}

func disCmd(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("no files")
	}
	for _, file := range args {
		src, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		mod, err := bytecode.Assemble(string(src))
		if err != nil {
			return fmt.Errorf("%s: %w", file, err)
		}
		for _, c := range mod.Classes {
			if c.Super != "" {
				fmt.Printf(".class %s extends %s\n", c.Name, c.Super)
			} else {
				fmt.Printf(".class %s\n", c.Name)
			}
			for _, f := range c.Fields {
				kw := ".field"
				if f.Static {
					kw = ".static"
				}
				fmt.Printf("%s %s %s\n", kw, f.Name, f.Desc)
			}
			for _, m := range c.Methods {
				mod := ""
				if m.Static {
					mod = " static"
				}
				if m.Code == nil {
					fmt.Printf(".method %s %s%s native\n.end\n", m.Name, m.Sig, mod)
					continue
				}
				fmt.Printf(".method %s %s%s\n.locals %d\n.stack %d\n", m.Name, m.Sig, mod, m.MaxLocals, m.MaxStack)
				fmt.Print(bytecode.Disassemble(m.Code))
				fmt.Println(".end")
			}
			fmt.Println(".end")
		}
	}
	return nil
}
