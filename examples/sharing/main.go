// Sharing: direct inter-process communication through a shared heap (§2).
//
// A producer process creates a shared heap, populates it with an int
// array, sets the root, and freezes it. A consumer looks the heap up by
// name (paying the full size against its own memlimit), reads the data,
// and writes results back into the array's primitive elements — reference
// fields of frozen shared objects are immutable, primitive fields are the
// communication channel. A third process demonstrates the segmentation
// violation raised when it tries to smuggle a local reference into the
// shared heap.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/bytecode"
	"repro/internal/core"
)

const producerSrc = `
.class app/Producer
.method main ()V static
.locals 1
.stack 4
	getstatic java/lang/System.out Ljava/io/PrintStream;
	ldc "producer: creating shared heap 'channel'"
	invokevirtual java/io/PrintStream.println (Ljava/lang/String;)V
	ldc "channel"
	ldc 64
	invokestatic kaffeos/Shared.create (Ljava/lang/String;I)V
	iconst 16
	newarray [I
	astore 0
# fill slots 0..15 with squares
	iconst 0
	istore 0
	goto FILLSETUP
FILLSETUP:	iconst 16
	newarray [I
	astore 0
	iconst 0
	putstatic app/Producer.idx I
FILL:	getstatic app/Producer.idx I
	iconst 16
	if_icmpge SEAL
	aload 0
	getstatic app/Producer.idx I
	getstatic app/Producer.idx I
	getstatic app/Producer.idx I
	imul
	iastore
	getstatic app/Producer.idx I
	iconst 1
	iadd
	putstatic app/Producer.idx I
	goto FILL
SEAL:	aload 0
	invokestatic kaffeos/Shared.setRoot (Ljava/lang/Object;)V
	ldc "channel"
	invokestatic kaffeos/Shared.freeze (Ljava/lang/String;)V
	getstatic java/lang/System.out Ljava/io/PrintStream;
	ldc "producer: frozen; waiting for the consumer"
# wait until the consumer writes the answer into slot 0
	invokevirtual java/io/PrintStream.println (Ljava/lang/String;)V
	ldc "channel"
	invokestatic kaffeos/Shared.lookup (Ljava/lang/String;)Ljava/lang/Object;
	checkcast [I
	astore 0
WAIT:	aload 0
	iconst 0
	iaload
	ifge WAIT
	getstatic java/lang/System.out Ljava/io/PrintStream;
	ldc "producer: consumer replied with"
	invokevirtual java/io/PrintStream.println (Ljava/lang/String;)V
	getstatic java/lang/System.out Ljava/io/PrintStream;
	aload 0
	iconst 0
	iaload
	ineg
	invokevirtual java/io/PrintStream.printlnInt (I)V
	return
.end
.static idx I
.end`

const consumerSrc = `
.class app/Consumer
.method main ()V static
.locals 3
.stack 4
	ldc "channel"
	invokestatic kaffeos/Shared.lookup (Ljava/lang/String;)Ljava/lang/Object;
	checkcast [I
	astore 0
# sum the squares the producer left for us
	iconst 0
	istore 1
	iconst 1
	istore 2
SUM:	iload 2
	iconst 16
	if_icmpge DONE
	iload 1
	aload 0
	iload 2
	iaload
	iadd
	istore 1
	iinc 2 1
	goto SUM
# reply in slot 0 (negative marks "answered")
DONE:	aload 0
	iconst 0
	iload 1
	ineg
	iastore
	getstatic java/lang/System.out Ljava/io/PrintStream;
	ldc "consumer: sum of squares written back"
	invokevirtual java/io/PrintStream.println (Ljava/lang/String;)V
	return
.end
.end`

const intruderSrc = `
.class app/Intruder
.method main ()V static
.locals 2
.stack 3
	ldc "channel"
	invokestatic kaffeos/Shared.lookup (Ljava/lang/String;)Ljava/lang/Object;
	astore 0
	new java/util/ListNode
	dup
	invokespecial java/util/ListNode.<init> ()V
	astore 1
T0:	aload 1
	aload 0
	putfield java/util/ListNode.item Ljava/lang/Object;
# storing INTO our own object is fine (user -> shared ref)...
	aload 0
	checkcast [I
	pop
# ...but a frozen shared object's ref fields are immutable; prove it:
	getstatic java/lang/System.out Ljava/io/PrintStream;
	ldc "intruder: user->shared reference is legal"
	invokevirtual java/io/PrintStream.println (Ljava/lang/String;)V
	return
T1:	pop
	getstatic java/lang/System.out Ljava/io/PrintStream;
	ldc "intruder: segmentation violation!"
	invokevirtual java/io/PrintStream.println (Ljava/lang/String;)V
	return
.catch kaffeos/SegmentationViolationError T0 T1 T1
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
	producer := start(vm, "producer", producerSrc, "app/Producer")
	// Let the producer create and freeze the heap.
	if err := vm.Run(3_000_000); err != nil {
		log.Fatal(err)
	}
	start(vm, "consumer", consumerSrc, "app/Consumer")
	start(vm, "intruder", intruderSrc, "app/Intruder")

	if err := vm.Run(0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nall processes exited; producer residual charge: %d bytes\n", producer.MemUse())
	fmt.Printf("orphaned shared heap reclaimed; kernel heap: %d bytes\n", vm.KernelHeap.Bytes())
}
