package serve

import (
	"math/rand"
	"slices"
	"testing"
)

// packBodyBytewise is the byte-at-a-time packing packBody replaced, kept
// as its reference.
func packBodyBytewise(dst []int64, body []byte) {
	for i, b := range body {
		dst[i/4] |= int64(b) << uint(8*(i%4))
	}
}

func TestPackBodyMatchesBytewise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16 << 10} {
		body := make([]byte, n)
		rng.Read(body)
		if n > 0 {
			body[n-1] = 0xFF // a high bit in the last word's top byte
		}
		words := (n + 3) / 4
		want, got := make([]int64, words), make([]int64, words)
		packBodyBytewise(want, body)
		packBody(got, body)
		if !slices.Equal(got, want) {
			t.Errorf("len %d: packBody %v, want %v", n, got, want)
		}
	}
}
