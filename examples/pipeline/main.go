// Pipeline: a parent process fans work out to worker processes through a
// shared heap, synchronizing on the shared object "in the usual way" (§2)
// — monitors work on shared objects; only their reference fields are
// frozen. Workers claim slots from a shared int array under its monitor,
// compute, and write results back into the primitive elements; the parent
// waits for every child with the waitpid-style Kernel.waitFor syscall and
// then reduces the results.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/bytecode"
	"repro/internal/core"
)

// Shared array layout: [0] next unclaimed slot, [1] unused, [2..17] data.
const workerSrc = `
.class app/Worker
.method main ()V static
.locals 3
.stack 4
	ldc "work"
	invokestatic kaffeos/Shared.lookup (Ljava/lang/String;)Ljava/lang/Object;
	checkcast [I
	astore 0
CLAIM:	aload 0
	monitorenter
	aload 0
	iconst 0
	iaload
	istore 1
	aload 0
	iconst 0
	iload 1
	iconst 1
	iadd
	iastore
	aload 0
	monitorexit
	iload 1
	aload 0
	arraylength
	if_icmpge DONE
# compute: cube the slot's value in place
	aload 0
	iload 1
	iaload
	istore 2
	aload 0
	iload 1
	iload 2
	iload 2
	imul
	iload 2
	imul
	iastore
	goto CLAIM
DONE:	return
.end
.end`

const parentSrc = `
.class app/Parent
.method main ()V static
.locals 4
.stack 6
# build and freeze the shared work array
	ldc "work"
	ldc 64
	invokestatic kaffeos/Shared.create (Ljava/lang/String;I)V
	ldc 18
	newarray [I
	astore 0
	aload 0
	iconst 0
	iconst 2
	iastore
	iconst 2
	istore 1
FILL:	iload 1
	ldc 18
	if_icmpge SEAL
	aload 0
	iload 1
	iload 1
	iastore
	iinc 1 1
	goto FILL
SEAL:	aload 0
	invokestatic kaffeos/Shared.setRoot (Ljava/lang/Object;)V
	ldc "work"
	invokestatic kaffeos/Shared.freeze (Ljava/lang/String;)V
# fan out three workers
	iconst 0
	istore 1
	iconst 3
	newarray [I
	astore 2
SPAWN:	iload 1
	iconst 3
	if_icmpge WAIT
	aload 2
	iload 1
	ldc "worker"
	ldc "app/Worker"
	ldc 2048
	invokestatic kaffeos/Kernel.spawn (Ljava/lang/String;Ljava/lang/String;I)I
	iastore
	iinc 1 1
	goto SPAWN
# wait for each worker
WAIT:	iconst 0
	istore 1
JOIN:	iload 1
	iconst 3
	if_icmpge REDUCE
	aload 2
	iload 1
	iaload
	invokestatic kaffeos/Kernel.waitFor (I)V
	iinc 1 1
	goto JOIN
# reduce: sum the cubes
REDUCE:	iconst 0
	istore 1
	iconst 2
	istore 3
SUM:	iload 3
	ldc 18
	if_icmpge OUT
	iload 1
	aload 0
	iload 3
	iaload
	iadd
	istore 1
	iinc 3 1
	goto SUM
OUT:	getstatic java/lang/System.out Ljava/io/PrintStream;
	ldc "sum of cubes 2..17 ="
	invokevirtual java/io/PrintStream.println (Ljava/lang/String;)V
	getstatic java/lang/System.out Ljava/io/PrintStream;
	iload 1
	invokevirtual java/io/PrintStream.printlnInt (I)V
	return
.end
.end`

func main() {
	vm, err := core.NewVM(core.Config{Stdout: os.Stdout})
	if err != nil {
		log.Fatal(err)
	}
	vm.RegisterProgram("worker", bytecode.MustAssemble(workerSrc))
	parent, err := vm.NewProcess("parent", core.ProcessOptions{MemLimit: 1 << 20})
	if err != nil {
		log.Fatal(err)
	}
	if err := parent.Load(bytecode.MustAssemble(parentSrc)); err != nil {
		log.Fatal(err)
	}
	if _, err := parent.Spawn("app/Parent", "main()V"); err != nil {
		log.Fatal(err)
	}
	if err := vm.Run(0); err != nil {
		log.Fatal(err)
	}
	// Expected: sum of n^3 for n in 2..17 = (17*18/2)^2 - 1 = 23408.
	fmt.Printf("(expected 23408; all worker processes reclaimed, kernel heap %d bytes)\n",
		vm.KernelHeap.Bytes())
}
