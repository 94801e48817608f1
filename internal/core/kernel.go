package core

import (
	"fmt"
	"sync"

	"repro/internal/bytecode"
	"repro/internal/interp"
	"repro/internal/object"
	"repro/internal/sched"
	"repro/internal/shared"
	"repro/internal/telemetry"
)

// kernelModule declares the KaffeOS system-call surface: static native
// methods on kaffeos/Kernel (process control, resource introspection) and
// kaffeos/Shared (shared-heap lifecycle). All of them run in kernel mode:
// a thread inside one cannot be terminated until the call completes, which
// is what keeps kernel state consistent under Process.Kill. Like the class
// library it is assembled and verified once per host process; only its
// natives (kernelNatives) are bound to one VM.
var kernelModule = sync.OnceValue(func() *bytecode.Module {
	m := bytecode.MustAssemble(`
.class kaffeos/Kernel
.method currentPid ()I static native
.end
.method spawn (Ljava/lang/String;Ljava/lang/String;I)I static native
.end
.method kill (I)Z static native
.end
.method exit ()V static native
.end
.method alive (I)Z static native
.end
.method waitFor (I)V static native
.end
.method procCount ()I static native
.end
.method memUsed ()I static native
.end
.method memLimit ()I static native
.end
.method cpuMillis ()I static native
.end
.method gc ()V static native
.end
.method kernelGC ()V static native
.end
.end

.class kaffeos/Shared
.method create (Ljava/lang/String;I)V static native
.end
.method setRoot (Ljava/lang/Object;)V static native
.end
.method freeze (Ljava/lang/String;)V static native
.end
.method lookup (Ljava/lang/String;)Ljava/lang/Object; static native
.end
.method drop (Ljava/lang/String;)V static native
.end
.method sharerCount (Ljava/lang/String;)I static native
.end
.end
`)
	if err := bytecode.VerifyModule(m); err != nil {
		panic(fmt.Sprintf("core: kernel module: %v", err))
	}
	return m
})

// procOf extracts the calling process or raises an internal error.
func procOf(t *interp.Thread) (*Process, error) {
	p, ok := t.Owner.(*Process)
	if !ok {
		return nil, fmt.Errorf("core: syscall from ownerless thread")
	}
	return p, nil
}

func goStr(o *object.Object) string {
	if o == nil {
		return ""
	}
	s, _ := o.Data.(string)
	return s
}

// kernelNatives builds the native table for the kernel module. Every entry
// is marked kernel-mode.
func (vm *VM) kernelNatives() (map[string]any, map[string]bool) {
	n := map[string]any{}
	k := map[string]bool{}
	add := func(key string, fn interp.NativeFunc) {
		n[key] = fn
		k[key] = true
	}

	add("kaffeos/Kernel.currentPid()I", func(t *interp.Thread, args []interp.Slot) (interp.Slot, error) {
		p, err := procOf(t)
		if err != nil {
			return interp.Slot{}, err
		}
		return interp.IntSlot(int64(p.ID)), nil
	})

	add("kaffeos/Kernel.spawn(Ljava/lang/String;Ljava/lang/String;I)I", func(t *interp.Thread, args []interp.Slot) (interp.Slot, error) {
		program := goStr(args[0].R)
		mainCls := goStr(args[1].R)
		memKB := args[2].I
		child, err := vm.NewProcess(program, ProcessOptions{MemLimit: uint64(memKB) << 10})
		if err != nil {
			return interp.Slot{}, t.Env.Throw(t, interp.ClsOutOfMemory, err.Error())
		}
		if err := child.LoadProgram(program); err != nil {
			child.Kill(err)
			child.reclaim()
			return interp.Slot{}, t.Env.Throw(t, "java/lang/IllegalArgumentException", err.Error())
		}
		if _, err := child.Spawn(mainCls, "main()V"); err != nil {
			child.Kill(err)
			child.reclaim()
			return interp.Slot{}, t.Env.Throw(t, "java/lang/IllegalArgumentException", err.Error())
		}
		return interp.IntSlot(int64(child.ID)), nil
	})

	add("kaffeos/Kernel.kill(I)Z", func(t *interp.Thread, args []interp.Slot) (interp.Slot, error) {
		p, ok := vm.Process(Pid(args[0].I))
		if !ok {
			return interp.IntSlot(0), nil
		}
		p.Kill(fmt.Errorf("killed by syscall"))
		return interp.IntSlot(1), nil
	})

	add("kaffeos/Kernel.exit()V", func(t *interp.Thread, args []interp.Slot) (interp.Slot, error) {
		p, err := procOf(t)
		if err != nil {
			return interp.Slot{}, err
		}
		// Mark a clean exit, then terminate every thread (including the
		// caller, at its next user-mode safepoint).
		if p.transition(ProcRunning, ProcExited, nil, nil) {
			p.emit(telemetry.EvProcExit, 0, 0, "exit syscall")
		}
		for th := range p.threads {
			th.Kill()
		}
		return interp.Slot{}, nil
	})

	add("kaffeos/Kernel.alive(I)Z", func(t *interp.Thread, args []interp.Slot) (interp.Slot, error) {
		if _, ok := vm.Process(Pid(args[0].I)); ok {
			return interp.IntSlot(1), nil
		}
		return interp.IntSlot(0), nil
	})

	add("kaffeos/Kernel.waitFor(I)V", func(t *interp.Thread, args []interp.Slot) (interp.Slot, error) {
		pid := Pid(args[0].I)
		if _, ok := vm.Process(pid); !ok {
			return interp.Slot{}, nil // already gone: waitpid semantics
		}
		interp.ParkUntil(t, func() bool {
			_, alive := vm.Process(pid)
			return !alive
		})
		return interp.Slot{}, nil
	})

	add("kaffeos/Kernel.procCount()I", func(t *interp.Thread, args []interp.Slot) (interp.Slot, error) {
		return interp.IntSlot(int64(len(vm.Processes()))), nil
	})

	add("kaffeos/Kernel.memUsed()I", func(t *interp.Thread, args []interp.Slot) (interp.Slot, error) {
		p, err := procOf(t)
		if err != nil {
			return interp.Slot{}, err
		}
		return interp.IntSlot(int64(p.Limit.Use())), nil
	})

	add("kaffeos/Kernel.memLimit()I", func(t *interp.Thread, args []interp.Slot) (interp.Slot, error) {
		p, err := procOf(t)
		if err != nil {
			return interp.Slot{}, err
		}
		return interp.IntSlot(int64(p.Limit.Max())), nil
	})

	add("kaffeos/Kernel.cpuMillis()I", func(t *interp.Thread, args []interp.Slot) (interp.Slot, error) {
		p, err := procOf(t)
		if err != nil {
			return interp.Slot{}, err
		}
		return interp.IntSlot(int64(p.CPUCycles() / sched.CyclesPerMs)), nil
	})

	add("kaffeos/Kernel.gc()V", func(t *interp.Thread, args []interp.Slot) (interp.Slot, error) {
		vm.collect(t, t.AllocHeap(), 0, nil)
		return interp.Slot{}, nil
	})

	add("kaffeos/Kernel.kernelGC()V", func(t *interp.Thread, args []interp.Slot) (interp.Slot, error) {
		vm.collect(t, vm.KernelHeap, 0, nil)
		return interp.Slot{}, nil
	})

	// --- shared heaps ---

	add("kaffeos/Shared.create(Ljava/lang/String;I)V", func(t *interp.Thread, args []interp.Slot) (interp.Slot, error) {
		p, err := procOf(t)
		if err != nil {
			return interp.Slot{}, err
		}
		name := goStr(args[0].R)
		maxKB := args[1].I
		sh, err := vm.SharedMgr.Create(name, p.Limit, uint64(maxKB)<<10)
		if err != nil {
			return interp.Slot{}, t.Env.Throw(t, "java/lang/IllegalStateException", err.Error())
		}
		// Subsequent allocations by this thread populate the shared heap.
		t.AllocOverride = sh.H
		return interp.Slot{}, nil
	})

	add("kaffeos/Shared.setRoot(Ljava/lang/Object;)V", func(t *interp.Thread, args []interp.Slot) (interp.Slot, error) {
		o := args[0].R
		if o == nil {
			return interp.Slot{}, t.Env.Throw(t, interp.ClsNullPointer, "shared root")
		}
		if t.AllocOverride == nil || o.Heap != t.AllocOverride.ID {
			return interp.Slot{}, t.Env.Throw(t, "java/lang/IllegalStateException",
				"root must be allocated on the shared heap being populated")
		}
		sh, ok := t.AllocOverride.Owner.(*shared.Heap)
		if !ok {
			return interp.Slot{}, t.Env.Throw(t, "java/lang/IllegalStateException", "no shared heap under population")
		}
		sh.Root = o
		return interp.Slot{}, nil
	})

	add("kaffeos/Shared.freeze(Ljava/lang/String;)V", func(t *interp.Thread, args []interp.Slot) (interp.Slot, error) {
		p, err := procOf(t)
		if err != nil {
			return interp.Slot{}, err
		}
		name := goStr(args[0].R)
		sh, err := vm.SharedMgr.Lookup(name)
		if err != nil {
			return interp.Slot{}, t.Env.Throw(t, "java/lang/IllegalStateException", err.Error())
		}
		if err := vm.SharedMgr.Freeze(sh); err != nil {
			return interp.Slot{}, t.Env.Throw(t, "java/lang/IllegalStateException", err.Error())
		}
		t.AllocOverride = nil
		// The creator is the first sharer and is charged in full.
		if err := vm.SharedMgr.Attach(sh, p, p.Limit); err != nil {
			return interp.Slot{}, t.Env.Throw(t, interp.ClsOutOfMemory, err.Error())
		}
		return interp.Slot{}, nil
	})

	add("kaffeos/Shared.lookup(Ljava/lang/String;)Ljava/lang/Object;", func(t *interp.Thread, args []interp.Slot) (interp.Slot, error) {
		p, err := procOf(t)
		if err != nil {
			return interp.Slot{}, err
		}
		name := goStr(args[0].R)
		sh, err := vm.SharedMgr.Lookup(name)
		if err != nil {
			return interp.Slot{}, t.Env.Throw(t, "java/lang/IllegalStateException", err.Error())
		}
		if !sh.Frozen() {
			return interp.Slot{}, t.Env.Throw(t, "java/lang/IllegalStateException", "shared heap not frozen")
		}
		// Every sharer pays the full heap size while holding it (§2).
		if err := vm.SharedMgr.Attach(sh, p, p.Limit); err != nil {
			return interp.Slot{}, t.Env.Throw(t, interp.ClsOutOfMemory, err.Error())
		}
		return interp.RefSlot(sh.Root), nil
	})

	add("kaffeos/Shared.drop(Ljava/lang/String;)V", func(t *interp.Thread, args []interp.Slot) (interp.Slot, error) {
		p, err := procOf(t)
		if err != nil {
			return interp.Slot{}, err
		}
		sh, err := vm.SharedMgr.Lookup(goStr(args[0].R))
		if err != nil {
			return interp.Slot{}, nil // dropping a dead name is benign
		}
		vm.SharedMgr.Detach(sh, p)
		return interp.Slot{}, nil
	})

	add("kaffeos/Shared.sharerCount(Ljava/lang/String;)I", func(t *interp.Thread, args []interp.Slot) (interp.Slot, error) {
		sh, err := vm.SharedMgr.Lookup(goStr(args[0].R))
		if err != nil {
			return interp.IntSlot(0), nil
		}
		return interp.IntSlot(int64(sh.Sharers())), nil
	})

	return n, k
}

// reconcileShared credits shared-heap charges for processes whose heaps no
// longer reference a shared heap: "After the process garbage collects the
// last exit item to a shared heap, that shared heap's memory is credited
// to the sharer's budget" (§2). Called after each process-heap collection.
func (vm *VM) reconcileShared(p *Process) {
	for _, sh := range vm.SharedMgr.HeldBy(p) {
		if p.Heap.HasExitsTo(sh.H.ID) {
			continue
		}
		// No heap references remain; check stacks and statics too (stack
		// references carry no exit items but still pin the heap).
		live := false
		p.stackAndStaticRoots(func(o *object.Object) {
			if o != nil && o.Heap == sh.H.ID {
				live = true
			}
		})
		if !live {
			vm.SharedMgr.Detach(sh, p)
		}
	}
}
