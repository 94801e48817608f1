// MemHog: the paper's denial-of-service experiment in miniature (§4.2).
//
// Two deployments of the same workload — three well-behaved servlets plus
// a MemHog that allocates without bound:
//
//  1. KaffeOS-style: each servlet in its own process with its own
//     memlimit, on the one-shard serving plane driven through Server.Do.
//     The MemHog dies with OutOfMemoryError over and over; the supervisor
//     restarts it; the other servlets never notice.
//  2. Single-process (an "IBM/n"-style shared JVM): every servlet as a
//     thread in ONE process with one heap. The MemHog's allocations kill
//     the whole process — all servlets die with it.
package main

import (
	"fmt"
	"log"
	"sync"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/serve"
)

func main() {
	isolated()
	sharedFate()
}

func isolated() {
	fmt.Println("=== KaffeOS: one process per servlet ===")
	routes := []string{"/servlet-0", "/servlet-1", "/servlet-2", "/memhog"}
	srv, err := serve.NewSharded(core.Config{Engine: core.EngineJITOpt}, serve.Config{Shards: 1},
		[]serve.TenantConfig{
			{Route: routes[0], MemKB: 2048}, {Route: routes[1], MemKB: 2048}, {Route: routes[2], MemKB: 2048},
			// ShedFraction -1: no graceful shed, the memlimit kill is the
			// only backstop — the paper's MemHog scenario.
			{Route: routes[3], Hog: true, MemKB: 384, ShedFraction: -1},
		})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := srv.Start("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	vm := srv.VMs()[0]
	var wg sync.WaitGroup
	for _, route := range routes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				srv.Do(route, []byte("payload"))
			}
		}()
	}
	wg.Wait()
	ms := vm.Sched.NowMillis()
	rows := srv.Rows()
	if err := srv.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("every route was sent 100 requests in %d virtual ms\n", ms)
	for _, r := range rows {
		fmt.Printf("  %-10s handled=%-5d restarts=%d\n", r.Name, r.OK, r.Restarts)
	}
	fmt.Printf("  kernel heap after the storm: %d bytes\n\n", vm.KernelHeap.Bytes())
}

const sharedFateSrc = `
.class app/Worker extends java/lang/Thread
.static done I
.method <init> ()V
.locals 1
.stack 1
	aload 0
	invokespecial java/lang/Thread.<init> ()V
	return
.end
.method run ()V
.locals 2
.stack 3
	iconst 0
	istore 1
L0:	iload 1
	ldc 100000
	if_icmpge L1
	iinc 1 1
	goto L0
L1:	getstatic app/Worker.done I
	iconst 1
	iadd
	putstatic app/Worker.done I
	return
.end
.end
.class app/Main
.method main ()V static
.locals 2
.stack 3
# start three workers
	iconst 0
	istore 0
L0:	iload 0
	iconst 3
	if_icmpge HOG
	new app/Worker
	dup
	invokespecial app/Worker.<init> ()V
	invokevirtual java/lang/Thread.start ()V
	iinc 0 1
	goto L0
# ... and then hog memory in the main thread
HOG:	new java/util/Vector
	dup
	invokespecial java/util/Vector.<init> ()V
	astore 1
L1:	aload 1
	ldc 2048
	newarray [I
	invokevirtual java/util/Vector.add (Ljava/lang/Object;)V
	goto L1
.end
.end`

func sharedFate() {
	fmt.Println("=== Shared fate: all servlets as threads in one process ===")
	vm, err := core.NewVM(core.Config{Engine: core.EngineJITOpt})
	if err != nil {
		log.Fatal(err)
	}
	p, err := vm.NewProcess("shared-jvm", core.ProcessOptions{MemLimit: 2 << 20})
	if err != nil {
		log.Fatal(err)
	}
	if err := p.Load(bytecode.MustAssemble(sharedFateSrc)); err != nil {
		log.Fatal(err)
	}
	if _, err := p.Spawn("app/Main", "main()V"); err != nil {
		log.Fatal(err)
	}
	if err := vm.Run(0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("process state: %v\n", p.State())
	if u := p.Uncaught(); u != nil {
		fmt.Printf("killed by: %s\n", u.Class.Name)
	}
	fmt.Println("the MemHog thread took the whole \"JVM\" down with it —")
	fmt.Println("exactly the failure mode KaffeOS processes prevent.")
}
