package sparse

import (
	"bytes"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// laplacian2D builds the 5-point Laplacian on an nx×ny grid: 4 on the
// diagonal, -1 on grid-neighbour couples. It is SPD (after adding epsilon).
func laplacian2D(nx, ny int) *SymMatrix {
	n := nx * ny
	b := NewBuilder(n)
	idx := func(i, j int) int { return i + j*nx }
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			v := idx(i, j)
			b.Add(v, v, 4)
			if i+1 < nx {
				b.Add(v, idx(i+1, j), -1)
			}
			if j+1 < ny {
				b.Add(v, idx(i, j+1), -1)
			}
		}
	}
	return b.Build()
}

func randomSym(rng *rand.Rand, n int, density float64) *SymMatrix {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.Add(i, i, float64(n)) // diagonally dominant
		for j := 0; j < i; j++ {
			if rng.Float64() < density {
				b.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return b.Build()
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(3)
	b.Add(0, 0, 2)
	b.Add(1, 0, -1) // lower
	b.Add(0, 1, -1) // upper, same entry: duplicates sum
	b.Add(2, 2, 5)
	a := b.Build()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := a.At(1, 0); got != -2 {
		t.Fatalf("At(1,0)=%g want -2 (duplicate sum)", got)
	}
	if got := a.At(0, 1); got != -2 {
		t.Fatalf("At(0,1)=%g (symmetry)", got)
	}
	if a.At(1, 1) != 0 {
		t.Fatal("implicit zero diagonal should read 0")
	}
	if a.At(2, 1) != 0 {
		t.Fatal("missing entry should read 0")
	}
	if a.NNZOffDiag() != 1 {
		t.Fatalf("NNZOffDiag=%d", a.NNZOffDiag())
	}
}

func TestBuilderOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder(2).Add(0, 5, 1)
}

func TestMatVecAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomSym(rng, 12, 0.3)
	d := a.Dense()
	x := make([]float64, a.N)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make([]float64, a.N)
	a.MatVec(x, y)
	for i := 0; i < a.N; i++ {
		want := 0.0
		for j := 0; j < a.N; j++ {
			want += d[i*a.N+j] * x[j]
		}
		if math.Abs(y[i]-want) > 1e-12*(1+math.Abs(want)) {
			t.Fatalf("y[%d]=%g want %g", i, y[i], want)
		}
	}
}

func TestNorm1(t *testing.T) {
	b := NewBuilder(2)
	b.Add(0, 0, 1)
	b.Add(1, 0, -3)
	b.Add(1, 1, 2)
	a := b.Build()
	// Full matrix: [1 -3; -3 2]; col sums 4 and 5.
	if got := a.Norm1(); got != 5 {
		t.Fatalf("Norm1=%g want 5", got)
	}
}

func TestPermuteRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomSym(rng, 15, 0.3)
	perm := rng.Perm(15)
	p := a.Permute(perm)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// P A Pᵀ entries: B[new_i][new_j] = A[old_i][old_j].
	for newI := 0; newI < 15; newI++ {
		for newJ := 0; newJ <= newI; newJ++ {
			if got, want := p.At(newI, newJ), a.At(perm[newI], perm[newJ]); got != want {
				t.Fatalf("permuted (%d,%d)=%g want %g", newI, newJ, got, want)
			}
		}
	}
	// Inverse permutation restores A.
	inv := make([]int, 15)
	for newI, old := range perm {
		inv[old] = newI
	}
	back := p.Permute(inv)
	for i := 0; i < 15; i++ {
		for j := 0; j <= i; j++ {
			if back.At(i, j) != a.At(i, j) {
				t.Fatalf("round trip failed at (%d,%d)", i, j)
			}
		}
	}
}

func TestPermutePreservesMatVec(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		a := randomSym(rng, n, 0.4)
		perm := rng.Perm(n)
		p := a.Permute(perm)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		// y = A x ; py = P A Pᵀ (P x). (Px)[new] = x[perm[new]].
		px := make([]float64, n)
		for newI := range px {
			px[newI] = x[perm[newI]]
		}
		y := make([]float64, n)
		py := make([]float64, n)
		a.MatVec(x, y)
		p.MatVec(px, py)
		for newI := range py {
			if math.Abs(py[newI]-y[perm[newI]]) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAdjacencyCSR(t *testing.T) {
	a := laplacian2D(3, 3)
	ptr, adj := a.AdjacencyCSR()
	if len(ptr) != a.N+1 {
		t.Fatal("ptr length")
	}
	// Vertex 4 (center) has 4 neighbours.
	if ptr[5]-ptr[4] != 4 {
		t.Fatalf("center degree %d", ptr[5]-ptr[4])
	}
	// Symmetric: total adjacency = 2 * offdiag nnz.
	if len(adj) != 2*a.NNZOffDiag() {
		t.Fatalf("adjacency size %d want %d", len(adj), 2*a.NNZOffDiag())
	}
}

func TestHBRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomSym(rng, 17, 0.25)
	var buf bytes.Buffer
	if err := WriteHB(&buf, a, "random test matrix"); err != nil {
		t.Fatal(err)
	}
	got, title, err := ReadHB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if title != "random test matrix" {
		t.Fatalf("title %q", title)
	}
	if got.N != a.N || got.NNZ() != a.NNZ() {
		t.Fatalf("shape mismatch: n=%d nnz=%d", got.N, got.NNZ())
	}
	for j := 0; j < a.N; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			i := a.RowIdx[p]
			if math.Abs(got.At(i, j)-a.Val[p]) > 1e-14*(1+math.Abs(a.Val[p])) {
				t.Fatalf("value (%d,%d) %g want %g", i, j, got.At(i, j), a.Val[p])
			}
		}
	}
}

func TestHBFixedWidthNoBlanks(t *testing.T) {
	// A hand-written RSA file exercising tight fixed-width fields,
	// including negative values with no separating blanks.
	hb := "tiny matrix                                                             KEY     \n" +
		"             4             1             1             2             0\n" +
		"RSA                        2             2             3             0\n" +
		"(4I4)           (4I4)           (2E12.4)            \n" +
		"   1   3   4\n" +
		"   1   2   2\n" +
		"  4.0000E+00 -1.0000E+00\n" +
		"  3.0000E+00\n"
	a, _, err := ReadHB(bytes.NewBufferString(hb))
	if err != nil {
		t.Fatal(err)
	}
	if a.N != 2 {
		t.Fatalf("n=%d", a.N)
	}
	if a.At(0, 0) != 4 || a.At(1, 0) != -1 || a.At(1, 1) != 3 {
		t.Fatalf("values wrong: %v", a.Val)
	}
}

func TestParseFortranFormat(t *testing.T) {
	cases := []struct {
		in          string
		count, wdth int
	}{
		{"(13I6)", 13, 6},
		{"(3E26.18)", 3, 26},
		{"(1P,4E20.13)", 4, 20},
		{"(1P4D16.9)", 4, 16},
		{"(10F8.3)", 10, 8},
		{"(I8)", 1, 8},
	}
	for _, c := range cases {
		f, err := parseFortranFormat(c.in)
		if err != nil {
			t.Fatalf("%s: %v", c.in, err)
		}
		if f.count != c.count || f.width != c.wdth {
			t.Fatalf("%s: got %+v", c.in, f)
		}
	}
	if _, err := parseFortranFormat("(13X6)"); err == nil {
		t.Fatal("expected error for unsupported descriptor")
	}
}

func TestResidualZeroForExactSolution(t *testing.T) {
	a := laplacian2D(4, 4)
	x := make([]float64, a.N)
	for i := range x {
		x[i] = float64(i%5) - 2
	}
	b := make([]float64, a.N)
	a.MatVec(x, b)
	if r := Residual(a, x, b); r > 1e-15 {
		t.Fatalf("residual %g", r)
	}
}

func TestValidateCatchesMissingDiagonal(t *testing.T) {
	a := &SymMatrix{N: 2, ColPtr: []int{0, 1, 2}, RowIdx: []int{1, 1}, Val: []float64{1, 1}}
	if err := a.Validate(); err == nil {
		t.Fatal("expected validation failure for missing diagonal")
	}
}

func TestElementBuilderBarChain(t *testing.T) {
	// n-1 two-node bar elements k·[1 -1; -1 1] chained: the classic 1D
	// stiffness assembly; the result is tridiagonal with 2k inside.
	const n = 6
	const k = 3.0
	eb := NewElementBuilder(n)
	ke := []float64{k, -k, -k, k}
	for e := 0; e < n-1; e++ {
		eb.AddElement([]int{e, e + 1}, ke)
	}
	a := eb.Build()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := 2 * k
		if i == 0 || i == n-1 {
			want = k
		}
		if a.At(i, i) != want {
			t.Fatalf("diag %d = %g want %g", i, a.At(i, i), want)
		}
		if i+1 < n && a.At(i+1, i) != -k {
			t.Fatalf("offdiag %d = %g", i, a.At(i+1, i))
		}
	}
}

func TestElementBuilderShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong element size")
		}
	}()
	NewElementBuilder(4).AddElement([]int{0, 1}, []float64{1, 2, 3})
}

func TestElementBuilderQuadElements(t *testing.T) {
	// Two quad elements sharing an edge: shared DOFs accumulate.
	eb := NewElementBuilder(6)
	ke := make([]float64, 16)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i == j {
				ke[i*4+j] = 3
			} else {
				ke[i*4+j] = -1
			}
		}
	}
	eb.AddElement([]int{0, 1, 3, 4}, ke)
	eb.AddElement([]int{1, 2, 4, 5}, ke)
	a := eb.Build()
	if a.At(1, 1) != 6 || a.At(4, 4) != 6 { // shared corners sum
		t.Fatalf("shared dof accumulation wrong: %g %g", a.At(1, 1), a.At(4, 4))
	}
	if a.At(0, 0) != 3 {
		t.Fatalf("unshared dof %g", a.At(0, 0))
	}
	if a.At(4, 1) != -2 { // edge shared by both elements
		t.Fatalf("shared edge coupling %g", a.At(4, 1))
	}
}

// Complex symmetric instances of the same matrix type (Sym[complex128]):
// symmetry without conjugation.

func zRandomSym(rng *rand.Rand, n int, density float64) *ZSymMatrix {
	b := NewZBuilder(n)
	for i := 0; i < n; i++ {
		b.Add(i, i, complex(float64(n), float64(n)/3))
		for j := 0; j < i; j++ {
			if rng.Float64() < density {
				b.Add(i, j, complex(rng.NormFloat64(), rng.NormFloat64()))
			}
		}
	}
	return b.Build()
}

func TestZBuilderBasics(t *testing.T) {
	b := NewZBuilder(3)
	b.Add(0, 0, 2+1i)
	b.Add(1, 0, -1i)
	b.Add(0, 1, -1i) // symmetric duplicate sums
	a := b.Build()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.At(1, 0) != -2i || a.At(0, 1) != -2i {
		t.Fatalf("At: %v / %v", a.At(1, 0), a.At(0, 1))
	}
	if a.At(2, 2) != 0 {
		t.Fatal("implicit diagonal should be zero")
	}
	if a.NNZ() != 4 { // (0,0), (1,0), plus zero diagonals 1 and 2
		t.Fatalf("NNZ=%d", a.NNZ())
	}
}

func TestZBuilderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewZBuilder(2).Add(0, 7, 1)
}

func TestZMatVecAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	a := zRandomSym(rng, 14, 0.3)
	x := make([]complex128, a.N)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	y := make([]complex128, a.N)
	a.MatVec(x, y)
	for i := 0; i < a.N; i++ {
		var want complex128
		for j := 0; j < a.N; j++ {
			want += a.At(i, j) * x[j]
		}
		if cmplx.Abs(y[i]-want) > 1e-12*(1+cmplx.Abs(want)) {
			t.Fatalf("y[%d]=%v want %v", i, y[i], want)
		}
	}
}

func TestZPermuteRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		a := zRandomSym(rng, n, 0.4)
		perm := rng.Perm(n)
		p := a.Permute(perm)
		if err := p.Validate(); err != nil {
			return false
		}
		for newI := 0; newI < n; newI++ {
			for newJ := 0; newJ <= newI; newJ++ {
				if p.At(newI, newJ) != a.At(perm[newI], perm[newJ]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestZPatternIsSPDSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	a := zRandomSym(rng, 12, 0.3)
	p := a.Pattern()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.N != a.N || p.NNZ() != a.NNZ() {
		t.Fatal("pattern shape mismatch")
	}
	// Strict diagonal dominance of the pattern.
	rowAbs := make([]float64, p.N)
	for j := 0; j < p.N; j++ {
		for q := p.ColPtr[j] + 1; q < p.ColPtr[j+1]; q++ {
			rowAbs[p.RowIdx[q]]++
			rowAbs[j]++
		}
	}
	for j := 0; j < p.N; j++ {
		if p.Val[p.ColPtr[j]] <= rowAbs[j] {
			t.Fatalf("pattern diagonal %d not dominant", j)
		}
	}
}

func TestZResidualZeroForExact(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	a := zRandomSym(rng, 10, 0.4)
	x := make([]complex128, a.N)
	for i := range x {
		x[i] = complex(float64(i), 1)
	}
	b := make([]complex128, a.N)
	a.MatVec(x, b)
	if r := Residual(a, x, b); r > 1e-15 {
		t.Fatalf("residual %g", r)
	}
	// Perturbed solution has a visible residual.
	x[0] += 1
	if r := Residual(a, x, b); r <= 1e-15 {
		t.Fatalf("perturbation invisible: %g", r)
	}
}

func TestZValidateCatchesMalformed(t *testing.T) {
	bad := &ZSymMatrix{N: 2, ColPtr: []int{0, 1, 2}, RowIdx: []int{1, 1}, Val: []complex128{1, 1}}
	if err := bad.Validate(); err == nil {
		t.Fatal("missing diagonal accepted")
	}
	bad2 := &ZSymMatrix{N: 1, ColPtr: []int{0, 2}, RowIdx: []int{0}, Val: []complex128{1}}
	if err := bad2.Validate(); err == nil {
		t.Fatal("inconsistent arrays accepted")
	}
}

func TestDiagCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	a := randomSym(rng, 6, 0.5)
	d := a.Diag()
	if len(d) != 6 {
		t.Fatal("diag length")
	}
	for j := 0; j < 6; j++ {
		if d[j] != a.At(j, j) {
			t.Fatalf("diag[%d]", j)
		}
	}
	d[0] = 12345
	if a.At(0, 0) == 12345 {
		t.Fatal("Diag must return a copy")
	}
}
