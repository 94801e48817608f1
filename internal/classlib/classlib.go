// Package classlib provides the kvm runtime class library — the stand-in
// for the core Java libraries the paper's §3.2 examines.
//
// Every class is classified as shared or reloaded, following the paper's
// criteria: share as many classes as possible, but classes whose statics
// are per-process state (java/lang/System's streams,
// java/io/FileDescriptor's in/out/err, java/util/Random's default source)
// must be reloaded so each process gets its own copy. The census (Shared /
// Reloaded) backs the paper's "430 of 600 classes (72%) shared" statistic
// for our library.
package classlib

import (
	"fmt"
	"sort"

	"repro/internal/bytecode"
	"repro/internal/interp"
	"repro/internal/object"
)

// Library is the assembled class library.
type Library struct {
	// SharedModule is defined once into the shared system loader.
	SharedModule *bytecode.Module
	// ReloadedModule is defined into every process loader.
	ReloadedModule *bytecode.Module
	// Natives maps native keys to interp.NativeFunc implementations.
	Natives map[string]any
	// Kernel marks natives that must run in kernel mode.
	Kernel map[string]bool
}

// New builds the library.
func New() *Library {
	sb := object.NewModuleBuilder()
	rb := object.NewModuleBuilder()
	buildLang(sb)
	buildThrowables(sb)
	buildCollections(sb)
	buildThread(sb)
	buildReloaded(rb)

	natives := make(map[string]any)
	kernel := make(map[string]bool)
	for k, v := range sb.Natives {
		natives[k] = v
	}
	for k, v := range rb.Natives {
		natives[k] = v
	}
	for k := range sb.Kernel {
		kernel[k] = true
	}
	for k := range rb.Kernel {
		kernel[k] = true
	}
	return &Library{
		SharedModule:   sb.Module,
		ReloadedModule: rb.Module,
		Natives:        natives,
		Kernel:         kernel,
	}
}

// ReloadedClassNames lists the per-process classes, sorted.
func (l *Library) ReloadedClassNames() []string { return classNames(l.ReloadedModule) }

func classNames(m *bytecode.Module) []string {
	out := make([]string, 0, len(m.Classes))
	for _, c := range m.Classes {
		out = append(out, c.Name)
	}
	sort.Strings(out)
	return out
}

// Census reports (shared, reloaded, percent shared), the paper's §3.2
// statistic for this library.
func (l *Library) Census() (shared, reloaded int, pct float64) {
	shared = len(l.SharedModule.Classes)
	reloaded = len(l.ReloadedModule.Classes)
	pct = 100 * float64(shared) / float64(shared+reloaded)
	return
}

// GoString extracts the native string payload of a java/lang/String (or
// Throwable message). It tolerates nil.
func GoString(o *object.Object) string {
	if o == nil {
		return ""
	}
	if s, ok := o.Data.(string); ok {
		return s
	}
	return ""
}

// javaStringHash is the JDK String.hashCode algorithm.
func javaStringHash(s string) int32 {
	var h int32
	for _, c := range s {
		h = 31*h + int32(c)
	}
	return h
}

// nat adapts a Go function to the interp native calling convention.
func nat(f func(t *interp.Thread, args []interp.Slot) (interp.Slot, error)) interp.NativeFunc {
	return f
}

// mustStr fetches a string argument, raising NullPointerException when nil.
func mustStr(t *interp.Thread, o *object.Object, what string) (string, error) {
	if o == nil {
		return "", t.Env.Throw(t, interp.ClsNullPointer, what+" is null")
	}
	return GoString(o), nil
}

// newString allocates a string through the env.
func newString(t *interp.Thread, s string) (interp.Slot, error) {
	o, err := t.Env.NewString(t, s)
	if err != nil {
		return interp.Slot{}, err
	}
	return interp.RefSlot(o), nil
}

// buildLang defines java/lang core classes (shared).
func buildLang(b *object.ModuleBuilder) {
	// java/lang/Object: root of everything.
	b.Class("java/lang/Object", "").
		Method("<init>", "()V", false, "\t.locals 1\n\t.stack 1\n\treturn").
		Native("hashCode", "()I", false, nat(func(t *interp.Thread, args []interp.Slot) (interp.Slot, error) {
			return interp.IntSlot(int64(args[0].R.Hash)), nil
		})).
		Native("equals", "(Ljava/lang/Object;)Z", false, nat(func(t *interp.Thread, args []interp.Slot) (interp.Slot, error) {
			if args[0].R == args[1].R {
				return interp.IntSlot(1), nil
			}
			return interp.IntSlot(0), nil
		})).
		Native("toString", "()Ljava/lang/String;", false, nat(func(t *interp.Thread, args []interp.Slot) (interp.Slot, error) {
			o := args[0].R
			return newString(t, fmt.Sprintf("%s@%x", o.Class.Name, uint32(o.Hash)))
		})).
		Native("getClassName", "()Ljava/lang/String;", false, nat(func(t *interp.Thread, args []interp.Slot) (interp.Slot, error) {
			return newString(t, args[0].R.Class.Name)
		})).
		Native("wait", "()V", false, nat(func(t *interp.Thread, args []interp.Slot) (interp.Slot, error) {
			return interp.Slot{}, interp.Wait(t, args[0].R)
		})).
		Native("wait", "(I)V", false, nat(func(t *interp.Thread, args []interp.Slot) (interp.Slot, error) {
			ms := args[1].I
			if ms < 0 {
				return interp.Slot{}, t.Env.Throw(t, "java/lang/IllegalArgumentException", "negative timeout")
			}
			if t.Env.NowCycles == nil {
				return interp.Slot{}, interp.Wait(t, args[0].R)
			}
			deadline := t.Env.NowCycles() + uint64(ms)*500_000
			return interp.Slot{}, interp.WaitTimed(t, args[0].R, deadline)
		})).
		Native("notify", "()V", false, nat(func(t *interp.Thread, args []interp.Slot) (interp.Slot, error) {
			return interp.Slot{}, interp.Notify(t, args[0].R, false)
		})).
		Native("notifyAll", "()V", false, nat(func(t *interp.Thread, args []interp.Slot) (interp.Slot, error) {
			return interp.Slot{}, interp.Notify(t, args[0].R, true)
		}))

	// java/lang/String: immutable, payload in Data.
	b.Class("java/lang/String", "java/lang/Object").
		Native("length", "()I", false, nat(func(t *interp.Thread, args []interp.Slot) (interp.Slot, error) {
			return interp.IntSlot(int64(len(GoString(args[0].R)))), nil
		})).
		Native("charAt", "(I)I", false, nat(func(t *interp.Thread, args []interp.Slot) (interp.Slot, error) {
			s := GoString(args[0].R)
			i := args[1].I
			if i < 0 || i >= int64(len(s)) {
				return interp.Slot{}, t.Env.Throw(t, interp.ClsArrayIndex, fmt.Sprintf("charAt(%d) on length %d", i, len(s)))
			}
			return interp.IntSlot(int64(s[i])), nil
		})).
		Native("hashCode", "()I", false, nat(func(t *interp.Thread, args []interp.Slot) (interp.Slot, error) {
			return interp.IntSlot(int64(javaStringHash(GoString(args[0].R)))), nil
		})).
		Native("equals", "(Ljava/lang/Object;)Z", false, nat(func(t *interp.Thread, args []interp.Slot) (interp.Slot, error) {
			a := args[0].R
			bo := args[1].R
			if bo == nil || bo.Class != a.Class && bo.Class.Name != "java/lang/String" {
				return interp.IntSlot(0), nil
			}
			if GoString(a) == GoString(bo) {
				return interp.IntSlot(1), nil
			}
			return interp.IntSlot(0), nil
		})).
		Native("concat", "(Ljava/lang/String;)Ljava/lang/String;", false, nat(func(t *interp.Thread, args []interp.Slot) (interp.Slot, error) {
			other, err := mustStr(t, args[1].R, "concat argument")
			if err != nil {
				return interp.Slot{}, err
			}
			return newString(t, GoString(args[0].R)+other)
		})).
		Native("substring", "(II)Ljava/lang/String;", false, nat(func(t *interp.Thread, args []interp.Slot) (interp.Slot, error) {
			s := GoString(args[0].R)
			lo, hi := args[1].I, args[2].I
			if lo < 0 || hi > int64(len(s)) || lo > hi {
				return interp.Slot{}, t.Env.Throw(t, interp.ClsArrayIndex, fmt.Sprintf("substring(%d,%d) on length %d", lo, hi, len(s)))
			}
			return newString(t, s[lo:hi])
		})).
		Native("indexOf", "(I)I", false, nat(func(t *interp.Thread, args []interp.Slot) (interp.Slot, error) {
			s := GoString(args[0].R)
			c := byte(args[1].I)
			for i := 0; i < len(s); i++ {
				if s[i] == c {
					return interp.IntSlot(int64(i)), nil
				}
			}
			return interp.IntSlot(-1), nil
		})).
		Native("startsWith", "(Ljava/lang/String;)Z", false, nat(func(t *interp.Thread, args []interp.Slot) (interp.Slot, error) {
			p, err := mustStr(t, args[1].R, "startsWith argument")
			if err != nil {
				return interp.Slot{}, err
			}
			s := GoString(args[0].R)
			if len(s) >= len(p) && s[:len(p)] == p {
				return interp.IntSlot(1), nil
			}
			return interp.IntSlot(0), nil
		})).
		Native("toString", "()Ljava/lang/String;", false, nat(func(t *interp.Thread, args []interp.Slot) (interp.Slot, error) {
			return interp.RefSlot(args[0].R), nil
		})).
		Native("compareTo", "(Ljava/lang/String;)I", false, nat(func(t *interp.Thread, args []interp.Slot) (interp.Slot, error) {
			other, err := mustStr(t, args[1].R, "compareTo argument")
			if err != nil {
				return interp.Slot{}, err
			}
			a := GoString(args[0].R)
			switch {
			case a < other:
				return interp.IntSlot(-1), nil
			case a > other:
				return interp.IntSlot(1), nil
			}
			return interp.IntSlot(0), nil
		}))

	// java/lang/StringBuilder: mutable buffer in Data.
	b.Class("java/lang/StringBuilder", "java/lang/Object").
		Native("<init>", "()V", false, nat(func(t *interp.Thread, args []interp.Slot) (interp.Slot, error) {
			buf := make([]byte, 0, 16)
			args[0].R.Data = &buf
			return interp.Slot{}, nil
		})).
		Native("append", "(Ljava/lang/String;)Ljava/lang/StringBuilder;", false, nat(func(t *interp.Thread, args []interp.Slot) (interp.Slot, error) {
			sb := args[0].R
			s, err := mustStr(t, args[1].R, "append argument")
			if err != nil {
				return interp.Slot{}, err
			}
			buf := sb.Data.(*[]byte)
			*buf = append(*buf, s...)
			return interp.RefSlot(sb), nil
		})).
		Native("appendInt", "(I)Ljava/lang/StringBuilder;", false, nat(func(t *interp.Thread, args []interp.Slot) (interp.Slot, error) {
			sb := args[0].R
			buf := sb.Data.(*[]byte)
			*buf = append(*buf, fmt.Sprintf("%d", args[1].I)...)
			return interp.RefSlot(sb), nil
		})).
		Native("appendChar", "(I)Ljava/lang/StringBuilder;", false, nat(func(t *interp.Thread, args []interp.Slot) (interp.Slot, error) {
			sb := args[0].R
			buf := sb.Data.(*[]byte)
			*buf = append(*buf, byte(args[1].I))
			return interp.RefSlot(sb), nil
		})).
		Native("len", "()I", false, nat(func(t *interp.Thread, args []interp.Slot) (interp.Slot, error) {
			return interp.IntSlot(int64(len(*args[0].R.Data.(*[]byte)))), nil
		})).
		Native("toString", "()Ljava/lang/String;", false, nat(func(t *interp.Thread, args []interp.Slot) (interp.Slot, error) {
			return newString(t, string(*args[0].R.Data.(*[]byte)))
		}))

	// java/lang/Math.
	b.Class("java/lang/Math", "java/lang/Object").
		Native("sqrt", "(D)D", true, dmath(func(x float64) float64 {
			return sqrtGo(x)
		})).
		Native("sin", "(D)D", true, dmath(sinGo)).
		Native("cos", "(D)D", true, dmath(cosGo)).
		Native("floor", "(D)D", true, dmath(floorGo)).
		Method("min", "(II)I", true, `
	.locals 2
	.stack 2
	iload 0
	iload 1
	if_icmple L0
	iload 1
	ireturn
L0:	iload 0
	ireturn`).
		Method("max", "(II)I", true, `
	.locals 2
	.stack 2
	iload 0
	iload 1
	if_icmpge L0
	iload 1
	ireturn
L0:	iload 0
	ireturn`).
		Method("abs", "(I)I", true, `
	.locals 1
	.stack 1
	iload 0
	ifge L0
	iload 0
	ineg
	ireturn
L0:	iload 0
	ireturn`)

	// Boxing classes: Number root plus Integer/Long/Boolean/Character etc.
	b.Class("java/lang/Number", "java/lang/Object").DefaultInit()
	intBox := b.Class("java/lang/Integer", "java/lang/Number").
		Field("value", "I").
		Method("<init>", "(I)V", false, `
	.locals 2
	.stack 2
	aload 0
	invokespecial java/lang/Number.<init> ()V
	aload 0
	iload 1
	putfield java/lang/Integer.value I
	return`).
		Method("intValue", "()I", false, `
	.locals 1
	.stack 2
	aload 0
	getfield java/lang/Integer.value I
	ireturn`)
	intBox.Native("parseInt", "(Ljava/lang/String;)I", true, nat(func(t *interp.Thread, args []interp.Slot) (interp.Slot, error) {
		s, err := mustStr(t, args[0].R, "parseInt argument")
		if err != nil {
			return interp.Slot{}, err
		}
		var v int64
		var neg bool
		i := 0
		if len(s) > 0 && (s[0] == '-' || s[0] == '+') {
			neg = s[0] == '-'
			i = 1
		}
		if i == len(s) {
			return interp.Slot{}, t.Env.Throw(t, "java/lang/NumberFormatException", s)
		}
		for ; i < len(s); i++ {
			if s[i] < '0' || s[i] > '9' {
				return interp.Slot{}, t.Env.Throw(t, "java/lang/NumberFormatException", s)
			}
			v = v*10 + int64(s[i]-'0')
		}
		if neg {
			v = -v
		}
		return interp.IntSlot(v), nil
	}))
	intBox.Native("toString", "(I)Ljava/lang/String;", true, nat(func(t *interp.Thread, args []interp.Slot) (interp.Slot, error) {
		return newString(t, fmt.Sprintf("%d", args[0].I))
	}))

	b.Class("java/lang/Long", "java/lang/Number").
		Field("value", "J").
		Method("<init>", "(J)V", false, `
	.locals 2
	.stack 2
	aload 0
	invokespecial java/lang/Number.<init> ()V
	aload 0
	iload 1
	putfield java/lang/Long.value J
	return`).
		Method("longValue", "()J", false, `
	.locals 1
	.stack 2
	aload 0
	getfield java/lang/Long.value J
	ireturn`)

	b.Class("java/lang/Boolean", "java/lang/Object").
		Field("value", "Z").
		Method("<init>", "(Z)V", false, `
	.locals 2
	.stack 2
	aload 0
	invokespecial java/lang/Object.<init> ()V
	aload 0
	iload 1
	putfield java/lang/Boolean.value Z
	return`).
		Method("booleanValue", "()Z", false, `
	.locals 1
	.stack 2
	aload 0
	getfield java/lang/Boolean.value Z
	ireturn`)

	b.Class("java/lang/Character", "java/lang/Object").
		Field("value", "C").
		Method("<init>", "(C)V", false, `
	.locals 2
	.stack 2
	aload 0
	invokespecial java/lang/Object.<init> ()V
	aload 0
	iload 1
	putfield java/lang/Character.value C
	return`).
		Method("charValue", "()C", false, `
	.locals 1
	.stack 2
	aload 0
	getfield java/lang/Character.value C
	ireturn`).
		Method("isDigit", "(I)Z", true, `
	.locals 1
	.stack 2
	iload 0
	iconst 48
	if_icmplt L0
	iload 0
	iconst 57
	if_icmpgt L0
	iconst 1
	ireturn
L0:	iconst 0
	ireturn`)

	b.Class("java/lang/Double", "java/lang/Number").
		Field("value", "D").
		Method("<init>", "(D)V", false, `
	.locals 2
	.stack 2
	aload 0
	invokespecial java/lang/Number.<init> ()V
	aload 0
	dload 1
	putfield java/lang/Double.value D
	return`).
		Method("doubleValue", "()D", false, `
	.locals 1
	.stack 2
	aload 0
	getfield java/lang/Double.value D
	dreturn`)

	b.Class("java/lang/Byte", "java/lang/Number").DefaultInit()
	b.Class("java/lang/Short", "java/lang/Number").DefaultInit()
	b.Class("java/lang/Float", "java/lang/Number").DefaultInit()
}

func dmath(f func(float64) float64) interp.NativeFunc {
	return func(t *interp.Thread, args []interp.Slot) (interp.Slot, error) {
		x := slotToF(args[0])
		return fToSlot(f(x)), nil
	}
}
