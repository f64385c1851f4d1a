package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"github.com/pastix-go/pastix"
	"github.com/pastix-go/pastix/internal/gen"
)

// sizes holds every matrix size a workload uses; tinySizes shrinks them for
// the smoke test.
type sizes struct {
	mt1Scale      float64 // refactor-mt1: MT1 analogue scale
	lap2D         [2]int  // serve-cold: 2-D Laplacian grid
	shell         [3]int  // serve-cold: shell nx, ny, dof
	lap3D         [3]int  // serve-cold: small 3-D Laplacian grid
	mixPoisson    int     // serve-mix: 3-D Poisson edge
	mixMT1Scale   float64 // serve-mix: MT1 analogue scale
	panelRHS      int     // right-hand sides of a panel solve
	gemmShape     [3]int  // blas: the fixed GEMM shape (m, n, k)
	kernelBlock   int     // blas: LDLᵀ/TRSM block edge
	kernelRepeats int     // blas: timed repetitions per kernel
}

var fullSizes = sizes{
	mt1Scale:      0.25,
	lap2D:         [2]int{60, 70},
	shell:         [3]int{20, 22, 3},
	lap3D:         [3]int{12, 13, 14},
	mixPoisson:    16,
	mixMT1Scale:   0.1,
	panelRHS:      16,
	gemmShape:     [3]int{64, 64, 64},
	kernelBlock:   64,
	kernelRepeats: 20,
}

var tinySizes = sizes{
	mt1Scale:      0.01,
	lap2D:         [2]int{10, 12},
	shell:         [3]int{5, 6, 3},
	lap3D:         [3]int{4, 5, 6},
	mixPoisson:    5,
	mixMT1Scale:   0.01,
	panelRHS:      4,
	gemmShape:     [3]int{16, 16, 16},
	kernelBlock:   16,
	kernelRepeats: 2,
}

// mix64 is the splitmix64 finalizer: a per-(seed, index) stream seed, so
// operation i's inputs do not depend on which client drew it.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func rngFor(seed int64, stream string, i int64) *rand.Rand {
	h := mix64(uint64(seed))
	for _, c := range stream {
		h = mix64(h ^ uint64(c))
	}
	return rand.New(rand.NewSource(int64(mix64(h ^ uint64(i)))))
}

// revalue returns a matrix with a's pattern and new values: off-diagonals
// scaled by a factor in [0.5, 1], the diagonal by one in [1, 1.1]. Scaling
// keeps gen's strict diagonal dominance, so every revalued matrix is SPD.
func revalue(a *pastix.Matrix, r *rand.Rand) *pastix.Matrix {
	out := &pastix.Matrix{N: a.N, ColPtr: a.ColPtr, RowIdx: a.RowIdx, Val: make([]float64, len(a.Val))}
	for j := 0; j < a.N; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			if a.RowIdx[p] == j {
				out.Val[p] = a.Val[p] * (1 + 0.1*r.Float64())
			} else {
				out.Val[p] = a.Val[p] * (0.5 + 0.5*r.Float64())
			}
		}
	}
	return out
}

// withLocalEdges returns a copy of a with k extra couplings, each between a
// vertex and a vertex two hops away that it is not yet coupled to. The new
// pattern is never seen before, yet its fill and cost stay within a few
// percent of a's. Each coupling is -0.1 with 0.1 added to both diagonals, so
// strict diagonal dominance is kept.
func withLocalEdges(a *pastix.Matrix, k int, r *rand.Rand) *pastix.Matrix {
	ptr, adj := a.AdjacencyCSR()
	coupled := func(u, v int) bool {
		for _, w := range adj[ptr[u]:ptr[u+1]] {
			if w == v {
				return true
			}
		}
		return false
	}
	extra := map[[2]int]bool{}
	for tries := 0; len(extra) < k && tries < 100*k; tries++ {
		v := r.Intn(a.N)
		if ptr[v] == ptr[v+1] {
			continue
		}
		u := adj[ptr[v]+r.Intn(ptr[v+1]-ptr[v])]
		w := adj[ptr[u]+r.Intn(ptr[u+1]-ptr[u])]
		if w == v || coupled(v, w) {
			continue
		}
		if w < v {
			v, w = w, v
		}
		extra[[2]int{w, v}] = true // (row, col), lower triangle
	}
	addCol := make([][]int, a.N)
	diag := make([]float64, a.N)
	for e := range extra {
		addCol[e[1]] = append(addCol[e[1]], e[0])
		diag[e[0]] += 0.1
		diag[e[1]] += 0.1
	}
	out := &pastix.Matrix{N: a.N, ColPtr: make([]int, a.N+1)}
	out.RowIdx = make([]int, 0, len(a.RowIdx)+len(extra))
	out.Val = make([]float64, 0, len(a.RowIdx)+len(extra))
	type entry struct {
		row int
		val float64
	}
	var col []entry
	for j := 0; j < a.N; j++ {
		col = col[:0]
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			v := a.Val[p]
			if a.RowIdx[p] == j {
				v += diag[j]
			}
			col = append(col, entry{a.RowIdx[p], v})
		}
		for _, i := range addCol[j] {
			col = append(col, entry{i, -0.1})
		}
		sort.Slice(col, func(x, y int) bool { return col[x].row < col[y].row })
		for _, e := range col {
			out.RowIdx = append(out.RowIdx, e.row)
			out.Val = append(out.Val, e.val)
		}
		out.ColPtr[j+1] = len(out.RowIdx)
	}
	return out
}

// rhs draws a solution x in [1, 2)ⁿ and returns b = A·x.
func rhs(a *pastix.Matrix, r *rand.Rand) []float64 {
	x := make([]float64, a.N)
	for i := range x {
		x[i] = 1 + r.Float64()
	}
	b := make([]float64, a.N)
	a.MatVec(x, b)
	return b
}

// panelRHS returns an n×k column-major panel of independent right-hand sides.
func panelRHS(a *pastix.Matrix, k int, r *rand.Rand) []float64 {
	out := make([]float64, 0, a.N*k)
	for c := 0; c < k; c++ {
		out = append(out, rhs(a, r)...)
	}
	return out
}

func matrixMarket(a *pastix.Matrix) (string, error) {
	var sb strings.Builder
	if err := pastix.WriteMatrixMarket(&sb, a, "benchmark input"); err != nil {
		return "", err
	}
	return sb.String(), nil
}

func mt1(scale float64) (*pastix.Matrix, error) {
	p, err := gen.Generate("MT1", scale)
	if err != nil {
		return nil, err
	}
	return p.A, nil
}

// family is one base pattern of the serve-cold mix. Its info (OPC in
// particular) is nominal for the perturbed copies actually sent.
type family struct {
	base *pastix.Matrix
	info matrixInfo
}

func coldFamilies(sz sizes) ([]family, error) {
	bases := []struct {
		name string
		a    *pastix.Matrix
	}{
		{"laplacian2d", gen.Laplacian2D(sz.lap2D[0], sz.lap2D[1])},
		{"shell", gen.Shell(sz.shell[0], sz.shell[1], sz.shell[2])},
		{"laplacian3d", gen.Laplacian3D(sz.lap3D[0], sz.lap3D[1], sz.lap3D[2])},
	}
	var fams []family
	for _, b := range bases {
		an, err := pastix.Analyze(b.a, serveSolverOptions())
		if err != nil {
			return nil, fmt.Errorf("analyze %s: %w", b.name, err)
		}
		fams = append(fams, family{base: b.a, info: infoOf(b.name, b.a, an)})
	}
	return fams, nil
}
