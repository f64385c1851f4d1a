package solver

import (
	"unsafe"

	"github.com/pastix-go/pastix/internal/blas"
)

// mpsim messages carry []float64 payloads. A complex128 is laid out as two
// adjacent float64s (real, imaginary), so a buffer of either element type
// travels as a view of its own memory: the float64 path sends its buffers as
// they are, a complex buffer as its interleaved parts, and neither is copied.

// asWire views x as a message payload.
func asWire[T blas.Scalar](x []T) []float64 {
	if len(x) == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&x[0])), len(x)*wordsPer[T]())
}

// fromWire views a message payload as elements of type T; it inverts asWire.
func fromWire[T blas.Scalar](w []float64) []T {
	if len(w) == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&w[0])), len(w)/wordsPer[T]())
}

// wordsPer returns the number of float64 payload words one T occupies.
func wordsPer[T blas.Scalar]() int {
	var z T
	return int(unsafe.Sizeof(z)) / 8
}
