package blas

import (
	"math"
	"math/cmplx"
	"unsafe"
)

// Scalar is the element type of the LDLᵀ kernels. The paper factors complex
// SYMMETRIC (not Hermitian) systems with the same kernels as real ones, so a
// complex instantiation uses plain transposes without conjugation: A = L·D·Lᵀ
// with unit-lower complex L and complex diagonal D, no pivoting.
//
// The helpers below read a T through its underlying float64 or complex128:
// the type set admits exactly those two layouts, told apart by size.
type Scalar interface{ ~float64 | ~complex128 }

// Abs returns |v|: the absolute value of a real, the modulus of a complex.
// It is written to stay within the inlining budget, so the norm loops over
// real matrices cost what math.Abs costs.
func Abs[T Scalar](v T) float64 {
	if unsafe.Sizeof(v) == 8 {
		return math.Float64frombits(*(*uint64)(unsafe.Pointer(&v)) &^ (1 << 63)) // math.Abs
	}
	return cmplx.Abs(*(*complex128)(unsafe.Pointer(&v)))
}

// substitutePivot replaces the pivot *p by sign(*p)·tau and returns the
// original and substituted values. Static pivoting is defined for real
// pivots only; complex callers factor with tau = 0.
func substitutePivot[T Scalar](p *T, tau float64) (orig, used float64) {
	if unsafe.Sizeof(*p) != 8 {
		panic("blas: static pivoting needs a real matrix")
	}
	q := (*float64)(unsafe.Pointer(p))
	orig, used = *q, tau
	if math.Signbit(orig) {
		used = -tau
	}
	*q = used
	return orig, used
}
