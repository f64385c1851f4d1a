package solver

import (
	"fmt"

	"github.com/pastix-go/pastix/internal/blas"
	"github.com/pastix-go/pastix/internal/sparse"
	"github.com/pastix-go/pastix/internal/symbolic"
)

// targetOffset computes where the (s,t) contribution of cell k lands: the
// destination cell and the linear offset of the region's top-left corner in
// that cell's array.
func (f *Store[T]) targetOffset(k, s, t int) (cell, offset int, err error) {
	cb := &f.Sym.CB[k]
	bt := cb.Blocks[t]
	bs := cb.Blocks[s]
	fcell := bt.Facing
	fcb := &f.Sym.CB[fcell]
	lc := bt.FirstRow - fcb.Cols[0]
	var lr int
	if bs.Facing == fcell {
		lr = bs.FirstRow - fcb.Cols[0]
	} else {
		b := f.BlockContaining(fcell, bs.FirstRow, bs.LastRow)
		if b < 0 {
			return 0, 0, fmt.Errorf("solver: contribution rows [%d,%d) of cb %d not in cb %d",
				bs.FirstRow, bs.LastRow, k, fcell)
		}
		lr = f.BlockOff[fcell][b] + bs.FirstRow - f.Sym.CB[fcell].Blocks[b].FirstRow
	}
	return fcell, lr + lc*f.LD[fcell], nil
}

// applyUpdate subtracts the (s,t) outer-product contribution of cell k —
// whose panel currently holds W = L·D, invd being 1/D — from its target.
func (f *Store[T]) applyUpdate(k, s, t int, invd []T) error {
	cb := &f.Sym.CB[k]
	fcell, off, err := f.targetOffset(k, s, t)
	if err != nil {
		return err
	}
	f.EnsureCell(fcell)
	ld := f.LD[k]
	ws := f.Data[k][f.BlockOff[k][s]:]
	dst := f.Data[fcell][off:]
	if s == t {
		blas.SyrkLowerNDT(cb.Blocks[s].Rows(), cb.Width(), ws, ld, invd, dst, f.LD[fcell])
	} else {
		wt := f.Data[k][f.BlockOff[k][t]:]
		blas.GemmNDTAuto(cb.Blocks[s].Rows(), cb.Blocks[t].Rows(), cb.Width(), ws, ld, invd, wt, ld, dst, f.LD[fcell])
	}
	return nil
}

// eliminate runs one right-looking step on cell k: factor its diagonal block
// (pivots below tau substituted), solve the panel, subtract every
// outer-product contribution from the target cells in the canonical order
// (t ascending, then s), and scale the panel from W = L·D to L.
func (f *Store[T]) eliminate(k int, tau float64) ([]Perturbation, error) {
	perts, err := f.FactorDiagStatic(k, tau)
	if err != nil {
		return nil, err
	}
	f.SolvePanel(k)
	d := f.Diag(k)
	invd := inverse(d)
	nb := len(f.Sym.CB[k].Blocks)
	for t := 0; t < nb; t++ {
		for s := t; s < nb; s++ {
			if err := f.applyUpdate(k, s, t, invd); err != nil {
				return nil, err
			}
		}
	}
	f.ScalePanel(k, d)
	return perts, nil
}

// factorizeSeq is the right-looking sequential supernodal LDLᵀ
// factorization over element type T, returning the static-pivot
// substitutions made at threshold tau.
func factorizeSeq[T blas.Scalar](a *sparse.Sym[T], sym *symbolic.Symbol, tau float64) (*Store[T], []Perturbation, error) {
	f := newStore[T](sym)
	for k := range sym.CB {
		if err := f.AssembleCell(a, k); err != nil {
			return nil, nil, err
		}
	}
	var perts []Perturbation
	for k := range sym.CB {
		ps, err := f.eliminate(k, tau)
		if err != nil {
			return nil, nil, err
		}
		perts = append(perts, ps...)
	}
	return f, perts, nil
}

// FactorizeSeq runs the right-looking sequential supernodal LDLᵀ
// factorization — the reference the parallel solver must match bit-for-bit
// in structure and to rounding in values.
func FactorizeSeq(a *sparse.SymMatrix, sym *symbolic.Symbol) (*Factors, error) {
	return FactorizeSeqPivot(a, sym, StaticPivot{})
}

// FactorizeSeqPivot is FactorizeSeq with static pivoting: pivots below
// τ = sp.Epsilon·‖A‖_max are substituted instead of aborting, and the
// resulting report is attached to the factor (Factors.Pivots). The zero
// StaticPivot reproduces FactorizeSeq bit for bit.
func FactorizeSeqPivot(a *sparse.SymMatrix, sym *symbolic.Symbol, sp StaticPivot) (*Factors, error) {
	tau, _ := pivotThreshold(sp, a)
	s, perts, err := factorizeSeq(a, sym, tau)
	if err != nil {
		return nil, err
	}
	return withReport(s, sp, a, perts), nil
}

// Solve solves A·x = b given the factor (L, D): forward substitution with
// the unit-lower block L, diagonal scaling, then backward substitution with
// Lᵀ. b is not modified; the solution is returned.
func (f *Store[T]) Solve(b []T) []T {
	sym := f.Sym
	x := append([]T(nil), b...)
	// Forward: L y = b.
	for k := range sym.CB {
		cb := &sym.CB[k]
		w := cb.Width()
		ld := f.LD[k]
		xk := x[cb.Cols[0]:cb.Cols[1]]
		blas.TrsvLowerUnit(w, f.Data[k], ld, xk)
		for bi := range cb.Blocks {
			blk := &cb.Blocks[bi]
			blas.GemvN(blk.Rows(), w, f.Data[k][f.BlockOff[k][bi]:], ld,
				xk, x[blk.FirstRow:blk.LastRow])
		}
	}
	// Diagonal: z = D⁻¹ y.
	for k := range sym.CB {
		cb := &sym.CB[k]
		ld := f.LD[k]
		for j := 0; j < cb.Width(); j++ {
			x[cb.Cols[0]+j] /= f.Data[k][j+j*ld]
		}
	}
	// Backward: Lᵀ x = z.
	for k := len(sym.CB) - 1; k >= 0; k-- {
		cb := &sym.CB[k]
		w := cb.Width()
		ld := f.LD[k]
		xk := x[cb.Cols[0]:cb.Cols[1]]
		for bi := range cb.Blocks {
			blk := &cb.Blocks[bi]
			blas.GemvT(blk.Rows(), w, f.Data[k][f.BlockOff[k][bi]:], ld,
				x[blk.FirstRow:blk.LastRow], xk)
		}
		blas.TrsvLowerTransUnit(w, f.Data[k], ld, xk)
	}
	return x
}

// Solve solves A·x = b with the dense or the compressed factor.
func (f *Factors) Solve(b []float64) []float64 {
	if f.lrCells != nil {
		return f.solveCompressed(b)
	}
	return f.Store.Solve(b)
}

// Refine performs one step of iterative refinement of x for A·x = b and
// returns the refined solution (a is the same permuted matrix the factor was
// built from).
func (f *Factors) Refine(a *sparse.SymMatrix, b, x []float64) []float64 {
	r := make([]float64, a.N)
	a.MatVec(x, r)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	dx := f.Solve(r)
	out := make([]float64, a.N)
	for i := range out {
		out[i] = x[i] + dx[i]
	}
	return out
}
