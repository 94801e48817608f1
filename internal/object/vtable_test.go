package object_test

import (
	"testing"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/jserv"
	"repro/internal/object"
	"repro/internal/spec"
)

// scanVTable is the reference vtable construction: a virtual method
// overrides the first inherited vtable entry with the same key, found by
// scanning every entry. BuildVTable must agree with it slot for slot.
func scanVTable(c *object.Class, ref map[*object.Class][]*object.Method, index map[*object.Method]int) []*object.Method {
	if vt, ok := ref[c]; ok {
		return vt
	}
	var vt []*object.Method
	if c.Super != nil {
		vt = append(vt, scanVTable(c.Super, ref, index)...)
	}
	for _, m := range c.Methods {
		if m.Static || m.IsSpecial() {
			continue
		}
		overrode := false
		for i, sm := range vt {
			if sm.Key() == m.Key() {
				vt[i] = m
				index[m] = i
				overrode = true
				break
			}
		}
		if !overrode {
			index[m] = len(vt)
			vt = append(vt, m)
		}
	}
	ref[c] = vt
	return vt
}

// Every class of the class library, the kernel module, the SPEC programs
// and the serving programs gets the vtable and vtable indices the
// reference scan computes.
func TestBuildVTableMatchesScan(t *testing.T) {
	vm, err := core.NewVM(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	classes := vm.Shared.Classes()
	mods := []*bytecode.Module{
		jserv.NetServletModule(), jserv.NetHogModule(), jserv.NetDispatchModule(),
		jserv.NetWarmModule(), jserv.NetWideModule(), jserv.KeeperModule(),
	}
	for _, w := range spec.All() {
		mods = append(mods, w.Module())
	}
	for _, m := range mods {
		p, err := vm.NewProcess("vtable", core.ProcessOptions{MemLimit: 64 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Load(m); err != nil {
			t.Fatal(err)
		}
		classes = append(classes, p.Loader.Classes()...)
	}

	ref := make(map[*object.Class][]*object.Method)
	index := make(map[*object.Method]int)
	checked := 0
	for _, c := range classes {
		if c.IsArray {
			continue // arrays share java/lang/Object's vtable
		}
		want := scanVTable(c, ref, index)
		if len(c.VTable) != len(want) {
			t.Errorf("%s: vtable has %d entries, reference %d", c.Name, len(c.VTable), len(want))
			continue
		}
		for i := range want {
			if c.VTable[i] != want[i] {
				t.Errorf("%s: vtable[%d] = %s, reference %s", c.Name, i, c.VTable[i], want[i])
			}
		}
		for _, m := range c.Methods {
			wantIndex, virtual := index[m]
			if !virtual {
				wantIndex = -1
			}
			if m.VIndex != wantIndex {
				t.Errorf("%s: VIndex %d, reference %d", m, m.VIndex, wantIndex)
			}
		}
		checked++
	}
	if checked < 100 {
		t.Errorf("checked only %d classes", checked)
	}
	t.Logf("%d classes checked", checked)
}
