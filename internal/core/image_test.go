package core_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/classlib"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/object"
	"repro/internal/spec"
)

// internSrc stores an interned string constant in a static and stays
// alive, so the test can see which string object a namespace's ldc
// resolved to.
const internSrc = `
.class img/Intern
.static s Ljava/lang/String;
.method main ()V static
.locals 0
.stack 1
	ldc "kaffeos"
	putstatic img/Intern.s Ljava/lang/String;
L0:	goto L0
.end
.end`

// imageVM is what one VM of TestOneImageManyVMs leaves for the
// cross-VM comparisons.
type imageVM struct {
	vector  *object.Class  // java/util/Vector, a shared class
	system  *object.Object // java/lang/System's statics, a reloaded class
	interns string         // img/Intern.s while its process lived
	intern  *object.Object
}

// unverifiable pops an empty stack. Every VM of TestOneImageManyVMs
// loads this one module: its verification runs once per host process
// and the refusal is remembered, so every VM and every process refuses
// it.
var unverifiable = bytecode.MustAssemble(".class a/B\n.method m ()V\npop\nreturn\n.end\n.end")

// runImageVM builds one VM on the class library image and runs two spec
// programs in it, each in its own process, plus a process that interns a
// string afterwards; one more process must refuse the unverifiable
// module.
func runImageVM(progs [2]*spec.Workload) (imageVM, error) {
	var out imageVM
	plat, _ := spec.PlatformByName("IBM")
	vm, err := core.NewVM(plat.Config())
	if err != nil {
		return out, err
	}
	bad, err := vm.NewProcess("bad", core.ProcessOptions{})
	if err != nil {
		return out, err
	}
	if err := bad.Load(unverifiable); err == nil || !strings.Contains(err.Error(), "pops") || bad.Loader.Defined("a/B") {
		return out, fmt.Errorf("loading an unverifiable module: %v", err)
	}
	bad.Kill(nil)
	var threads [2]*interp.Thread
	var sys *object.Class
	for i, w := range progs {
		p, err := vm.NewProcess(w.Name, core.ProcessOptions{MemLimit: 64 << 20})
		if err != nil {
			return out, err
		}
		if err := p.Load(w.Module()); err != nil {
			return out, err
		}
		if threads[i], err = p.Spawn(w.MainClass, "run()I"); err != nil {
			return out, err
		}
		if sys, err = p.Loader.Class("java/lang/System"); err != nil {
			return out, err
		}
	}
	if err := vm.Run(0); err != nil {
		return out, err
	}
	for i, th := range threads {
		if th.State != interp.StateFinished || th.Result.I != progs[i].Checksum {
			return out, fmt.Errorf("%s: state %v result %d, want checksum %d (err %v)",
				progs[i].Name, th.State, th.Result.I, progs[i].Checksum, th.Err)
		}
	}
	ip, err := vm.NewProcess("intern", core.ProcessOptions{})
	if err != nil {
		return out, err
	}
	if err := ip.Load(bytecode.MustAssemble(internSrc)); err != nil {
		return out, err
	}
	if _, err := ip.Spawn("img/Intern", "main()V"); err != nil {
		return out, err
	}
	if err := vm.Run(100_000); err != nil {
		return out, err
	}
	ic, err := ip.Loader.Class("img/Intern")
	if err != nil {
		return out, err
	}
	out.intern = ic.Statics.Refs[0]
	out.interns = classlib.GoString(out.intern)
	ip.Kill(nil)
	if err := vm.Run(0); err != nil {
		return out, err
	}
	if rep := vm.Audit(true); !rep.OK() {
		return out, fmt.Errorf("audit:\n%s", rep)
	}
	if out.vector, err = vm.Shared.Class("java/util/Vector"); err != nil {
		return out, err
	}
	out.system = sys.Statics
	return out, nil
}

// freshHash hashes m's current content, bypassing the memoized Hash, so
// a write to the module after its first hash would show.
func freshHash(m *bytecode.Module) [32]byte {
	return (&bytecode.Module{Classes: m.Classes}).Hash()
}

// TestOneImageManyVMs builds four VMs at once on the one class library
// image of the host process. Each must get its own namespaces — class
// objects, statics, interned strings — compute the same checksums as
// always, refuse the same unverifiable module, and pass the audit; no
// run may write to the image.
func TestOneImageManyVMs(t *testing.T) {
	lib := classlib.New()
	sharedBefore, reloadedBefore := freshHash(lib.SharedModule), freshHash(lib.ReloadedModule)
	ws := []*spec.Workload{spec.Compress(), spec.Mtrt(), spec.Jess(), spec.Jack()}
	const vms = 4
	res := make([]imageVM, vms)
	errs := make([]error, vms)
	var wg sync.WaitGroup
	for i := 0; i < vms; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res[i], errs[i] = runImageVM([2]*spec.Workload{ws[i%len(ws)], ws[(i+1)%len(ws)]})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("vm %d: %v", i, err)
		}
	}

	for i := 0; i < vms; i++ {
		if res[i].interns != "kaffeos" {
			t.Fatalf("vm %d: interned %q", i, res[i].interns)
		}
		for j := 0; j < i; j++ {
			if res[i].vector == res[j].vector {
				t.Errorf("vms %d and %d share the java/util/Vector class object", i, j)
			}
			if res[i].system == res[j].system {
				t.Errorf("vms %d and %d share java/lang/System's statics", i, j)
			}
			if res[i].intern == res[j].intern {
				t.Errorf("vms %d and %d share an interned string", i, j)
			}
		}
	}

	if lib != classlib.New() {
		t.Error("classlib.New built a second library")
	}
	if freshHash(lib.SharedModule) != sharedBefore || lib.SharedModule.Hash() != sharedBefore {
		t.Error("the shared library module changed during the runs")
	}
	if freshHash(lib.ReloadedModule) != reloadedBefore {
		t.Error("the reloaded library module changed during the runs")
	}
}
