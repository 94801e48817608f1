package interp

import "repro/internal/object"

// LoopsOf reports how many loop statements the optimizing engine compiles
// for m.
func LoopsOf(m *object.Method) (loops int) {
	for _, op := range compile(m).ops {
		if op.loop != nil {
			loops++
		}
	}
	return loops
}
