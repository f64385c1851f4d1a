package sparse

import (
	"bytes"
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"
)

func TestMatrixMarketRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	a := randomSym(rng, 20, 0.25)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, a, "test matrix\nsecond comment line"); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != a.N || got.NNZ() != a.NNZ() {
		t.Fatalf("shape: n=%d nnz=%d", got.N, got.NNZ())
	}
	for j := 0; j < a.N; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			i := a.RowIdx[p]
			if math.Abs(got.At(i, j)-a.Val[p]) > 1e-15*(1+math.Abs(a.Val[p])) {
				t.Fatalf("(%d,%d): %g want %g", i, j, got.At(i, j), a.Val[p])
			}
		}
	}
}

func TestMatrixMarketGeneralSymmetric(t *testing.T) {
	// A general-header file that is numerically symmetric must parse.
	mm := `%%MatrixMarket matrix coordinate real general
% a symmetric matrix written as general
3 3 5
1 1 2.0
2 2 3.0
3 3 4.0
1 2 -1.0
2 1 -1.0
`
	a, err := ReadMatrixMarket(strings.NewReader(mm))
	if err != nil {
		t.Fatal(err)
	}
	if a.At(1, 0) != -1 || a.At(2, 2) != 4 {
		t.Fatalf("values wrong")
	}
}

func TestMatrixMarketGeneralAsymmetricRejected(t *testing.T) {
	mm := `%%MatrixMarket matrix coordinate real general
2 2 3
1 1 1.0
1 2 5.0
2 1 -5.0
`
	if _, err := ReadMatrixMarket(strings.NewReader(mm)); err == nil {
		t.Fatal("asymmetric general matrix must be rejected")
	}
}

func TestMatrixMarketPattern(t *testing.T) {
	mm := `%%MatrixMarket matrix coordinate pattern symmetric
4 4 6
1 1
2 2
3 3
4 4
2 1
4 3
`
	a, err := ReadMatrixMarket(strings.NewReader(mm))
	if err != nil {
		t.Fatal(err)
	}
	// Synthesized values: diagonally dominant.
	if a.At(0, 0) <= math.Abs(a.At(1, 0)) {
		t.Fatal("pattern synthesis not diagonally dominant")
	}
	if a.At(1, 0) != -1 {
		t.Fatalf("off-diagonal %g", a.At(1, 0))
	}
}

func TestMatrixMarketErrors(t *testing.T) {
	cases := []string{
		"not a header\n",
		"%%MatrixMarket matrix array real symmetric\n3 3\n",
		"%%MatrixMarket matrix coordinate complex symmetric\n1 1 1\n1 1 1 0\n",
		"%%MatrixMarket matrix coordinate real skew-symmetric\n1 1 1\n1 1 1\n",
		"%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 1 1.0\n",
		"%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1.0\n",        // truncated
		"%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n5 5 1.0\n",        // bad index
		"%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 1 notanumber\n", // bad value
	}
	for i, c := range append(cases, hostileMMSizes...) {
		if _, err := ReadMatrixMarket(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestComplexMatrixMarketRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	a := zRandomSym(rng, 12, 0.3)
	var buf bytes.Buffer
	if err := WriteMatrixMarketComplex(&buf, a, "complex test"); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMatrixMarketComplex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != a.N || got.NNZ() != a.NNZ() {
		t.Fatalf("shape n=%d nnz=%d", got.N, got.NNZ())
	}
	for j := 0; j < a.N; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			i := a.RowIdx[p]
			if cmplx.Abs(got.At(i, j)-a.Val[p]) > 1e-15*(1+cmplx.Abs(a.Val[p])) {
				t.Fatalf("(%d,%d)", i, j)
			}
		}
	}
}

func TestComplexMatrixMarketErrors(t *testing.T) {
	cases := []string{
		"%%MatrixMarket matrix coordinate real symmetric\n1 1 1\n1 1 1.0\n",    // wrong type
		"%%MatrixMarket matrix coordinate complex symmetric\n2 2 1\n1 1 1.0\n", // missing imag
		"%%MatrixMarket matrix coordinate complex symmetric\n2 2 1\n9 9 1 1\n", // bad index
		"%%MatrixMarket matrix coordinate complex symmetric\n2 2 5\n1 1 1 1\n", // truncated
	}
	for i, c := range append(cases, hostileMMSizes...) {
		if _, err := ReadMatrixMarketComplex(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}
