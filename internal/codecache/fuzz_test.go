package codecache

import (
	"reflect"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/interp"
	"repro/internal/memlimit"
	"repro/internal/shared"
)

// FuzzCodeCacheKey attacks the cache key's canonicalization: two
// modules decoded from independent halves of the fuzz input must hash
// equal iff they are structurally equal. A canonicalization bug —
// missing length prefix, section aliasing, ignored field — shows up as
// structurally different modules sharing a hash (a false sharing
// collision: one tenant would execute another's code), or as equal
// modules hashing apart (a false miss: sharing silently stops). The
// manager's exact accounting acts as the auditor for the keyed
// attach/detach churn at the end.
func FuzzCodeCacheKey(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte("abcabcabc\x00\x01\x02deadbeef"))
	f.Add([]byte{0xff, 0, 0xff, 0, 0xff, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})

	f.Fuzz(func(t *testing.T, data []byte) {
		half := len(data) / 2
		m1 := decodeModule(data[:half])
		m2 := decodeModule(data[half:])

		h1, h2 := m1.Hash(), m2.Hash()
		// Compare the class lists, not the Modules: Hash memoizes its
		// digest in unexported fields, which are not content.
		if structEq := reflect.DeepEqual(m1.Classes, m2.Classes); structEq != (h1 == h2) {
			t.Fatalf("canonicalization broken: structurally equal=%v but hash equal=%v\nm1=%+v\nm2=%+v",
				structEq, h1 == h2, m1, m2)
		}

		// A re-decode of the same bytes must round-trip to the same hash
		// (hashing is a pure function of module content).
		if again := decodeModule(data[:half]).Hash(); again != h1 {
			t.Fatalf("hash not deterministic: %x vs %x", h1, again)
		}

		// Tier keys: the same module under different engine variants
		// must never share an artifact.
		k1 := Key{ModuleHash: h1, Variant: "jit"}
		k2 := Key{ModuleHash: h1, Variant: "jit+fuse+ic"}
		if k1 == k2 {
			t.Fatal("distinct variants collapsed to one key")
		}

		// Attach/detach churn with the decoded keys; the manager's books
		// must reconcile exactly (the same invariant VM.Audit checks).
		root := memlimit.NewRoot("vm", 1<<40)
		base, err := root.NewChild("codecache", memlimit.Unlimited, false)
		if err != nil {
			t.Fatal(err)
		}
		mgr := NewManager(new(shared.Ledger), base)
		lim, err := root.NewChild("proc:f", memlimit.Unlimited, false)
		if err != nil {
			t.Fatal(err)
		}
		who := new(int)
		var want uint64
		seen := make(map[*Artifact]bool)
		for i, k := range []Key{k1, k2, {ModuleHash: h2, Variant: "jit"}} {
			// Equal halves make duplicate keys: Insert dedups to the
			// existing artifact and Attach is idempotent, so the expected
			// charge counts each unique artifact once.
			a, err := mgr.Insert(k, "fuzz", interp.SyntheticProgram(i+1, 10))
			if err != nil {
				t.Fatal(err)
			}
			if !seen[a] {
				seen[a] = true
				want += a.Size
			}
			if err := mgr.book.Attach(&a.Entry, who, lim); err != nil {
				t.Fatal(err)
			}
		}
		if got := lim.Use(); got != want {
			t.Fatalf("sharer charged %d, artifacts total %d", got, want)
		}
		mgr.book.DetachAll(who)
		if got := lim.Use(); got != 0 {
			t.Fatalf("churn leaked %d bytes", got)
		}
		if got := mgr.EvictOrphans(); got != want {
			t.Fatalf("eviction freed %d, want %d", got, want)
		}
		if got := base.Use(); got != 0 {
			t.Fatalf("base retains %d bytes after eviction", got)
		}
	})
}

// decodeModule deterministically builds a module from raw bytes. The
// alphabet is tiny and string boundaries are driven by the input, so
// the fuzzer can reach aliasing shapes ("ab"+"c" vs "a"+"bc") that
// would expose missing length prefixes in the canonical serialization.
func decodeModule(data []byte) *bytecode.Module {
	d := &decoder{data: data}
	m := &bytecode.Module{}
	nclasses := d.n(3)
	for i := 0; i < nclasses; i++ {
		c := &bytecode.ClassDef{Name: d.str(), Super: d.str()}
		nfields := d.n(3)
		for j := 0; j < nfields; j++ {
			c.Fields = append(c.Fields, bytecode.FieldDef{
				Name: d.str(), Desc: d.str(), Static: d.n(2) == 1,
			})
		}
		nmethods := d.n(3)
		for j := 0; j < nmethods; j++ {
			md := &bytecode.MethodDef{
				Name: d.str(), Sig: d.str(), Static: d.n(2) == 1,
				MaxStack: d.n(8), MaxLocals: d.n(8),
			}
			if d.n(4) != 0 { // 1-in-4 native (no body)
				md.Code = &bytecode.Code{}
				ninstr := d.n(4)
				for k := 0; k < ninstr; k++ {
					md.Code.Instrs = append(md.Code.Instrs, bytecode.Instr{
						Op: bytecode.Op(d.n(64)), A: int32(d.n(16)) - 8, B: int32(d.n(16)) - 8,
					})
				}
				nconst := d.n(3)
				for k := 0; k < nconst; k++ {
					md.Code.Consts = append(md.Code.Consts, bytecode.Const{
						Kind: bytecode.ConstKind(d.n(4)), I: int64(d.n(256)) - 128,
						D: float64(d.n(16)), S: d.str(), Class: d.str(), Name: d.str(), Sig: d.str(),
					})
				}
				nhand := d.n(2)
				for k := 0; k < nhand; k++ {
					md.Code.Handlers = append(md.Code.Handlers, bytecode.Handler{
						Start: d.n(8), End: d.n(8), PC: d.n(8), Type: d.str(),
					})
				}
			}
			c.Methods = append(c.Methods, md)
		}
		m.Classes = append(m.Classes, c)
	}
	return m
}

type decoder struct {
	data []byte
	pos  int
}

func (d *decoder) byte() byte {
	if d.pos >= len(d.data) {
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

// n draws a value in [0, mod).
func (d *decoder) n(mod int) int { return int(d.byte()) % mod }

// str draws a short string over {a, b} with input-driven length, so
// adjacent strings can alias across boundaries if prefixes were absent.
func (d *decoder) str() string {
	n := d.n(4)
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = 'a' + d.byte()%2
	}
	return string(buf)
}
