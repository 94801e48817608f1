// Quickstart: create a VM, run two isolated processes, observe per-process
// accounting, and kill one without harming the other.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/bytecode"
	"repro/internal/core"
)

const program = `
.class app/Main
.method main ()V static
.locals 2
.stack 3
	getstatic java/lang/System.out Ljava/io/PrintStream;
	ldc "hello from an isolated process"
	invokevirtual java/io/PrintStream.println (Ljava/lang/String;)V
# compute 10 factorial iteratively and print it
	iconst 1
	istore 0
	iconst 1
	istore 1
L0:	iload 1
	iconst 10
	if_icmpgt L1
	iload 0
	iload 1
	imul
	istore 0
	iinc 1 1
	goto L0
L1:	getstatic java/lang/System.out Ljava/io/PrintStream;
	iload 0
	invokevirtual java/io/PrintStream.printlnInt (I)V
	return
.end
.end`

const spinner = `
.class app/Spin
.method main ()V static
.locals 0
.stack 1
L0:	goto L0
.end
.end`

// start runs src's class cls from its static main()V in a new process
// limited to 1 MiB.
func start(vm *core.VM, name, src, cls string) *core.Process {
	p, err := vm.NewProcess(name, core.ProcessOptions{MemLimit: 1 << 20})
	if err != nil {
		log.Fatal(err)
	}
	if err := p.Load(bytecode.MustAssemble(src)); err != nil {
		log.Fatal(err)
	}
	if _, err := p.Spawn(cls, "main()V"); err != nil {
		log.Fatal(err)
	}
	return p
}

func main() {
	vm, err := core.NewVM(core.Config{Stdout: os.Stdout})
	if err != nil {
		log.Fatal(err)
	}

	// An ordinary process: runs to completion, memory fully reclaimed.
	worker := start(vm, "worker", program, "app/Main")
	// A runaway process: spins forever until we kill it.
	runaway := start(vm, "runaway", spinner, "app/Spin")

	// Give both some CPU (simulated cycles), then inspect.
	if err := vm.Run(5_000_000); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("worker:  alive=%v cpu=%d cycles, mem=%d bytes\n",
		worker.State() == core.ProcRunning, worker.CPUCycles(), worker.MemUse())
	fmt.Printf("runaway: alive=%v cpu=%d cycles, mem=%d bytes\n",
		runaway.State() == core.ProcRunning, runaway.CPUCycles(), runaway.MemUse())

	// The runaway is uncooperative; kill it. Its heap merges into the
	// kernel heap and the next kernel GC reclaims everything.
	runaway.Kill(nil)
	if err := vm.Run(0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after kill: runaway alive=%v, kernel heap=%d bytes\n",
		runaway.State() == core.ProcRunning, vm.KernelHeap.Bytes())
}
