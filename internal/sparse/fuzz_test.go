package sparse

import (
	"bytes"
	"strings"
	"testing"
)

// Fuzz targets for the two file parsers: arbitrary input must never panic,
// and anything that parses must satisfy the matrix invariants.

func FuzzReadMatrixMarket(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n1 1 2.0\n2 2 2.0\n2 1 -1.0\n")
	f.Add("%%MatrixMarket matrix coordinate pattern symmetric\n1 1 1\n1 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1.0\n")
	f.Add("garbage")
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n-1 -1 -1\n")
	for _, s := range hostileMMSizes {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		a, err := ReadMatrixMarket(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("parsed matrix violates invariants: %v", err)
		}
	})
}

// hostileMMSizes are size lines the readers must refuse: a negative entry
// count and counts or orders too large to allocate or index (these once
// crashed the readers), and an order above twice the entry count (a few
// bytes that made the reader allocate per column of a huge matrix).
var hostileMMSizes = []string{
	"%%MatrixMarket matrix coordinate real symmetric\n2 2 -1\n",
	"%%MatrixMarket matrix coordinate real symmetric\n2 2 4000000000000000000\n",
	"%%MatrixMarket matrix coordinate complex symmetric\n4000000000000000000 4000000000000000000 1\n",
	"%%MatrixMarket matrix coordinate complex symmetric\n3000000000 3000000000 1\n1 1 1 0\n",
	"%%MatrixMarket matrix coordinate real symmetric\n65536 65536 0\n",
	"%%MatrixMarket matrix coordinate complex symmetric\n3 3 1\n1 1 1 0\n",
	"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 1\n1 1\n",
}

func FuzzReadMatrixMarketComplex(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate complex symmetric\n2 2 3\n1 1 2 1\n2 2 2 -1\n2 1 -1 0.5\n")
	f.Add("%%MatrixMarket matrix coordinate complex general\n2 2 2\n2 1 1 1\n1 2 1 1\n")
	for _, s := range hostileMMSizes {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		a, err := ReadMatrixMarketComplex(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("parsed matrix violates invariants: %v", err)
		}
	})
}

func FuzzReadHB(f *testing.F) {
	var buf bytes.Buffer
	b := NewBuilder(3)
	b.Add(0, 0, 2)
	b.Add(1, 0, -1)
	b.Add(1, 1, 2)
	b.Add(2, 2, 1)
	_ = WriteHB(&buf, b.Build(), "seed")
	f.Add(buf.String())
	f.Add("short")
	f.Add("title\n 1 1 1 1\nRSA 2 2 2 0\n(1I8) (1I8) (1E10.3)\n")
	f.Fuzz(func(t *testing.T, in string) {
		a, _, err := ReadHB(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("parsed HB matrix violates invariants: %v", err)
		}
	})
}

// FuzzCSR feeds raw bytes decoded as a CSC skeleton straight into the matrix
// invariants and the pattern-level helpers: Validate must reject (never
// panic on) arbitrary structure, and anything it accepts must survive
// fingerprinting, adjacency extraction, the norms and a mat-vec.
func FuzzCSR(f *testing.F) {
	f.Add([]byte{2, 0, 2, 3, 0, 1, 1, 10, 20, 30})
	f.Add([]byte{1, 0, 1, 0, 5})
	f.Add([]byte{3, 0, 2, 1, 9})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0] % 8)
		data = data[1:]
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			v := int(int8(data[0]))
			data = data[1:]
			return v
		}
		a := &SymMatrix{N: n, ColPtr: make([]int, n+1)}
		for i := range a.ColPtr {
			a.ColPtr[i] = next()
		}
		nnz := 0
		if n > 0 && a.ColPtr[n] >= 0 && a.ColPtr[n] <= 64 {
			nnz = a.ColPtr[n]
		}
		a.RowIdx = make([]int, nnz)
		a.Val = make([]float64, nnz)
		for i := 0; i < nnz; i++ {
			a.RowIdx[i] = next()
			a.Val[i] = float64(next())
		}
		if err := a.Validate(); err != nil {
			return
		}
		if a.PatternFingerprint() == "" {
			t.Fatal("empty fingerprint for a valid matrix")
		}
		ptr, adj := a.AdjacencyCSR()
		if len(ptr) != n+1 || len(adj) != ptr[n] {
			t.Fatalf("adjacency inconsistent: %d ptrs, %d adj", len(ptr), len(adj))
		}
		if n1, mx := a.Norm1(), a.NormMax(); n1 < mx {
			t.Fatalf("‖A‖₁ = %g < ‖A‖_max = %g", n1, mx)
		}
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = 1
		}
		a.MatVec(x, y)
	})
}
