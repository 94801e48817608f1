package jserv

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/bytecode"
)

// This file holds the request-driven servlet programs used by the network
// serving plane (internal/serve). Each exports a static handle method the
// serving plane invokes once per request, on a fresh green thread of the
// tenant's process. The request body is marshalled into
// the tenant's heap as an int array (charged to its memlimit) and passed as
// the first argument; the second argument is the tenant's configured
// per-request work, in abstract units.

// NetHandleKey is the method key every request-driven servlet exports.
const NetHandleKey = "handle([II)I"

// NetServletClass / NetHogClass / NetWarmClass / NetWideClass /
// NetDispatchClass / KeeperClass name the entry classes.
const (
	NetServletClass  = "jserv/NetServlet"
	NetHogClass      = "jserv/NetHog"
	NetWarmClass     = "jserv/NetWarm"
	NetWideClass     = "jserv/NetWide"
	NetDispatchClass = "jserv/NetDispatch"
	KeeperClass      = "jserv/Keeper"
)

// HogRequest is the first body byte that sends a NetDispatch request to
// the MemHog body; any other body is servlet work.
const HogRequest = 'h'

// netServletSource is the well-behaved request handler: fold the request
// array into a checksum, burn the configured work units, allocate a
// response buffer on this process' heap (charged to the tenant), and
// return the checksum.
const netServletSource = `
.class jserv/NetServlet
.method handle ([II)I static
.locals 5
.stack 4
# locals: 0=request array, 1=work units, 2=i, 3=acc, 4=response
	iconst 0
	istore 3
	iconst 0
	istore 2
# fold the marshalled request into the checksum
RLOOP:	iload 2
	aload 0
	arraylength
	if_icmpge WORK
	iload 3
	aload 0
	iload 2
	iaload
	iadd
	ldc 16777215
	iand
	istore 3
	iinc 2 1
	goto RLOOP
# burn the configured compute units
WORK:	iconst 0
	istore 2
WLOOP:	iload 2
	iload 1
	if_icmpge RESP
	iload 3
	ldc 31
	imul
	iload 2
	iadd
	ldc 16777215
	iand
	istore 3
	iinc 2 1
	goto WLOOP
# build a response buffer on this heap and retire it with the reply
RESP:	ldc 64
	newarray [I
	astore 4
	aload 4
	iconst 0
	iload 3
	iastore
	iload 3
	ireturn
.end
.end`

// netHogSource is the request-driven MemHog: every request appends a
// 16 KiB array to a static vector, so sustained traffic walks the tenant
// straight into its memlimit — the allocation that crosses the line throws
// OutOfMemoryError, the uncaught throwable kills the process, and the
// serving plane's degradation path takes over.
const netHogSource = `
.class jserv/NetHog
.static keep Ljava/util/Vector;
.method handle ([II)I static
.locals 2
.stack 4
	getstatic jserv/NetHog.keep Ljava/util/Vector;
	ifnonnull HAVE
	new java/util/Vector
	dup
	invokespecial java/util/Vector.<init> ()V
	putstatic jserv/NetHog.keep Ljava/util/Vector;
HAVE:	getstatic jserv/NetHog.keep Ljava/util/Vector;
	ldc 4096
	newarray [I
	invokevirtual java/util/Vector.add (Ljava/lang/Object;)V
	aload 0
	arraylength
	ireturn
.end
.end`

// netDispatchSource is the IBM/n deployment of Figure 4 as one program:
// every servlet and the MemHog share one process, and the request body
// picks which body runs. The marshalled array's element 1 holds the first
// body bytes, so a body starting with HogRequest is hog work. The hog's
// OutOfMemoryError is then uncaught in the one process all servlets live
// in, and the kernel kills them together.
const netDispatchSource = `
.class jserv/NetDispatch
.method handle ([II)I static
.locals 2
.stack 3
	aload 0
	arraylength
	iconst 2
	if_icmplt SERVLET
	aload 0
	iconst 1
	iaload
	ldc 255
	iand
# 104 is HogRequest, 'h'
	ldc 104
	if_icmpne SERVLET
	aload 0
	iload 1
	invokestatic jserv/NetHog.handle ([II)I
	ireturn
SERVLET:	aload 0
	iload 1
	invokestatic jserv/NetServlet.handle ([II)I
	ireturn
.end
.end`

// netWarmSource is the expensive-startup servlet: its <clinit> builds a
// 4096-entry lookup table by iterated mixing — hundreds of thousands of
// interpreted bytecodes before the first request can be served. It exists
// to make cold starts hurt, which is exactly what the template/fork path
// (TenantConfig.Template) is for: the warmup runs once in a zygote, is
// checkpointed, and every incarnation after that is stamped out by a heap
// copy instead of re-running the clinit. handle folds the request through
// the table, so a clone with a wrong or missing table answers wrongly —
// correctness of the fork is observable from the response.
const netWarmSource = `
.class jserv/NetWarm
.static table [I
.method <clinit> ()V static
.locals 3
.stack 4
# locals: 0=i, 1=j, 2=v
	ldc 4096
	newarray [I
	putstatic jserv/NetWarm.table [I
	iconst 0
	istore 0
ILOOP:	iload 0
	ldc 4096
	if_icmpge DONE
	iload 0
	istore 2
	iconst 0
	istore 1
JLOOP:	iload 1
	ldc 64
	if_icmpge STORE
	iload 2
	ldc 31
	imul
	iload 1
	iadd
	ldc 16777215
	iand
	istore 2
	iinc 1 1
	goto JLOOP
STORE:	getstatic jserv/NetWarm.table [I
	iload 0
	iload 2
	iastore
	iinc 0 1
	goto ILOOP
DONE:	return
.end
.method handle ([II)I static
.locals 4
.stack 5
# locals: 0=request array, 1=work units, 2=i, 3=acc
	iconst 0
	istore 3
	iconst 0
	istore 2
# fold the request through the warm table
RLOOP:	iload 2
	aload 0
	arraylength
	if_icmpge WORK
	iload 3
	getstatic jserv/NetWarm.table [I
	aload 0
	iload 2
	iaload
	ldc 4095
	iand
	iaload
	iadd
	ldc 16777215
	iand
	istore 3
	iinc 2 1
	goto RLOOP
# burn the configured compute units, still via the table
WORK:	iconst 0
	istore 2
WLOOP:	iload 2
	iload 1
	if_icmpge OUT
	iload 3
	getstatic jserv/NetWarm.table [I
	iload 2
	ldc 4095
	iand
	iaload
	iadd
	ldc 16777215
	iand
	istore 3
	iinc 2 1
	goto WLOOP
OUT:	iload 3
	ireturn
.end
.end`

// The compile-heavy servlet: NetWarm's dual. Where NetWarm makes cold
// starts expensive by running bytecode (a long <clinit> the template/fork
// path amortizes), NetWide makes them expensive by *compiling* bytecode —
// many straight-line stage methods the JIT must translate before the
// first request answers, with no clinit at all. That is the cost the
// shared code cache (internal/codecache) eliminates: the first loader
// compiles the module once into an immutable artifact, every later tenant
// attaches and serves its first request without compiling anything.
const (
	// wideStages is how many stage methods handle() chains through.
	wideStages = 96
	// wideRounds is the mix rounds per stage, 6 instructions each.
	wideRounds = 20
)

// netWideSource generates the NetWide assembly. handle([II)I folds the
// request length and work units through every stage; selftest()I drives
// the same surface without a marshalled request, for benchmarks.
func netWideSource() string {
	var b strings.Builder
	b.WriteString(".class jserv/NetWide\n")

	b.WriteString(".method handle ([II)I static\n.locals 3\n.stack 2\n")
	b.WriteString("# locals: 0=request array, 1=work units, 2=acc\n")
	b.WriteString("\taload 0\n\tarraylength\n\tiload 1\n\tiadd\n\tistore 2\n")
	for i := 0; i < wideStages; i++ {
		fmt.Fprintf(&b, "\tiload 2\n\tinvokestatic jserv/NetWide.stage%d (I)I\n\tistore 2\n", i)
	}
	b.WriteString("\tiload 2\n\tireturn\n.end\n")

	b.WriteString(".method selftest ()I static\n.locals 1\n.stack 2\n")
	b.WriteString("\ticonst 1\n\tistore 0\n")
	for i := 0; i < wideStages; i++ {
		fmt.Fprintf(&b, "\tiload 0\n\tinvokestatic jserv/NetWide.stage%d (I)I\n\tistore 0\n", i)
	}
	b.WriteString("\tiload 0\n\tireturn\n.end\n")

	for i := 0; i < wideStages; i++ {
		fmt.Fprintf(&b, ".method stage%d (I)I static\n.locals 1\n.stack 2\n\tiload 0\n", i)
		for r := 0; r < wideRounds; r++ {
			fmt.Fprintf(&b, "\tldc %d\n\timul\n\tldc %d\n\tiadd\n\tldc 16777215\n\tiand\n",
				31+2*(i%7), 1+(i+r)%13)
		}
		b.WriteString("\tireturn\n.end\n")
	}
	b.WriteString(".end\n")
	return b.String()
}

// Every program module is assembled once per host process and then
// shared: the sources never vary and modules are read-only to loaders, so
// every tenant — and every process in the go benchmarks — can define from
// the same one. NetWide's is the large one (~12k instructions); assembling
// it per incarnation would also bill module parsing to both arms of the
// codecache A/B, diluting the compile-cost signal the workload exists to
// expose.
var (
	netServletModule  = assembleOnce(func() string { return netServletSource })
	netHogModule      = assembleOnce(func() string { return netHogSource })
	netDispatchModule = assembleOnce(func() string { return netDispatchSource + netServletSource + netHogSource })
	netWarmModule     = assembleOnce(func() string { return netWarmSource })
	netWideModule     = assembleOnce(netWideSource)
	keeperModule      = assembleOnce(func() string { return keeperSource })
)

func assembleOnce(src func() string) func() *bytecode.Module {
	return sync.OnceValue(func() *bytecode.Module { return bytecode.MustAssemble(src()) })
}

// keeperSource is the per-tenant resident thread: it only sleeps, keeping
// the process alive between requests (a process whose last thread exits is
// reclaimed by the kernel). The serving plane spawns it as a daemon thread
// so an idle server leaves the scheduler with no runnable work.
const keeperSource = `
.class jserv/Keeper
.method main ()V static
.locals 0
.stack 1
LOOP:	ldc 1000
	invokestatic java/lang/Thread.sleep (I)V
	goto LOOP
.end
.end`

// NetServletModule returns the request-driven servlet program.
func NetServletModule() *bytecode.Module { return netServletModule() }

// NetHogModule returns the request-driven MemHog program.
func NetHogModule() *bytecode.Module { return netHogModule() }

// NetDispatchModule returns the shared-process program: NetDispatch with
// the NetServlet and NetHog bodies it calls, in one module.
func NetDispatchModule() *bytecode.Module { return netDispatchModule() }

// NetWarmModule returns the expensive-startup servlet: a <clinit> warm
// table whose construction dominates cold start, built for the
// template/fork serving path.
func NetWarmModule() *bytecode.Module { return netWarmModule() }

// NetWideModule returns the compile-heavy servlet: a wide, clinit-free
// method surface whose per-process JIT cost dominates cold start — the
// workload the shared code cache is for.
func NetWideModule() *bytecode.Module { return netWideModule() }

// KeeperModule returns the keep-alive program the serving plane loads into
// every tenant process alongside its handler.
func KeeperModule() *bytecode.Module { return keeperModule() }
