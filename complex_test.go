package pastix

import (
	"context"
	"errors"
	"math/cmplx"
	"testing"
	"time"
)

// zGrid is a complex symmetric shifted Laplacian on an nx×nx grid.
func zGrid(nx int) *ZMatrix {
	zb := NewZBuilder(nx * nx)
	for j := 0; j < nx; j++ {
		for i := 0; i < nx; i++ {
			v := i + j*nx
			zb.Add(v, v, complex(4.5, 1+0.1*float64(v%7)))
			if i+1 < nx {
				zb.Add(v, v+1, complex(-1, 0.1))
			}
			if j+1 < nx {
				zb.Add(v, v+nx, complex(-1, -0.1))
			}
		}
	}
	return zb.Build()
}

// tridiag returns the n×n tridiagonal pattern with values from val(i, j),
// optionally with one extra entry (n-1, 0) that changes the pattern.
func tridiag[T complex128 | float64](n int, extra bool, val func(i, j int) T) ([]int, []int, []T) {
	var colPtr, rowIdx []int
	var vals []T
	for j := 0; j < n; j++ {
		colPtr = append(colPtr, len(rowIdx))
		rowIdx, vals = append(rowIdx, j), append(vals, val(j, j))
		if j+1 < n {
			rowIdx, vals = append(rowIdx, j+1), append(vals, val(j+1, j))
		}
		if extra && j == 0 {
			rowIdx, vals = append(rowIdx, n-1), append(vals, val(n-1, 0))
		}
	}
	return append(colPtr, len(rowIdx)), rowIdx, vals
}

// Every values-reuse entry point validates the matrix before permuting it: a
// malformed matrix (ColPtr truncated) and a different pattern both come back
// as errors — ErrPatternMismatch for the pattern — never as a panic.
func TestValuesReuseRejectsBadMatrices(t *testing.T) {
	const n = 50
	rval := func(i, j int) float64 {
		if i == j {
			return 4
		}
		return -1
	}
	zval := func(i, j int) complex128 { return complex(rval(i, j), 0.5) }
	cp, ri, rv := tridiag(n, false, rval)
	rm := &Matrix{N: n, ColPtr: cp, RowIdx: ri, Val: rv}
	_, _, zv := tridiag(n, false, zval)
	zm := &ZMatrix{N: n, ColPtr: cp, RowIdx: ri, Val: zv}
	ran, err := Analyze(rm, Options{Processors: 2})
	if err != nil {
		t.Fatal(err)
	}
	zan, err := AnalyzeComplex(zm, Options{Processors: 2})
	if err != nil {
		t.Fatal(err)
	}
	good, err := ran.Factorize()
	if err != nil {
		t.Fatal(err)
	}
	payload, err := good.ExportPayload()
	if err != nil {
		t.Fatal(err)
	}

	xcp, xri, xrv := tridiag(n, true, rval)
	_, _, xzv := tridiag(n, true, zval)
	inputs := []struct {
		name    string
		real    *Matrix
		cplx    *ZMatrix
		pattern bool // a well-formed matrix of another pattern
	}{
		{"malformed", &Matrix{N: n, ColPtr: cp[:10], RowIdx: ri, Val: rv},
			&ZMatrix{N: n, ColPtr: cp[:10], RowIdx: ri, Val: zv}, false},
		{"different-pattern", &Matrix{N: n, ColPtr: xcp, RowIdx: xri, Val: xrv},
			&ZMatrix{N: n, ColPtr: xcp, RowIdx: xri, Val: xzv}, true},
	}
	ctx := context.Background()
	for _, in := range inputs {
		calls := map[string]func() error{
			"real/FactorizeValues": func() error { _, err := ran.FactorizeValues(ctx, in.real); return err },
			"real/FactorizeValuesRobust": func() error {
				_, _, err := ran.FactorizeValuesRobust(ctx, in.real)
				return err
			},
			"real/FactorizeValuesTraced": func() error {
				_, _, err := ran.FactorizeValuesTraced(ctx, in.real, TraceOptions{})
				return err
			},
			"real/RestoreFactor":       func() error { _, err := ran.RestoreFactor(in.real, payload); return err },
			"complex/FactorizeComplex": func() error { _, err := zan.FactorizeComplex(in.cplx); return err },
		}
		for name, call := range calls {
			t.Run(in.name+"/"+name, func(t *testing.T) {
				err := noPanic(t, call)
				if err == nil {
					t.Fatal("accepted")
				}
				if in.pattern && !errors.Is(err, ErrPatternMismatch) {
					t.Fatalf("want ErrPatternMismatch, got %v", err)
				}
			})
		}
	}
}

func noPanic(t *testing.T, call func() error) (err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("panic: %v", r)
		}
	}()
	return call()
}

// Complex factorization honours Options.Runtime: every runtime yields the
// sequential factor (bit for bit on the shared and dynamic runtimes, to
// aggregation rounding on the message-passing one) and solves the system.
func TestComplexRuntimes(t *testing.T) {
	az := zGrid(12)
	factor := func(opts Options) (*Analysis, *ZFactor) {
		t.Helper()
		opts.Processors, opts.BlockSize, opts.Ratio2D = 4, 8, 2
		an, err := AnalyzeComplex(az, opts)
		if err != nil {
			t.Fatal(err)
		}
		zf, err := an.FactorizeComplex(az)
		if err != nil {
			t.Fatalf("%v: %v", opts.Runtime, err)
		}
		return an, zf
	}
	_, ref := factor(Options{Runtime: RuntimeSequential})
	b := make([]complex128, az.N)
	for i := range b {
		b[i] = complex(1, float64(i%4))
	}
	for _, rt := range []Runtime{RuntimeAuto, RuntimeMPSim, RuntimeShared, RuntimeDynamic} {
		an, zf := factor(Options{Runtime: rt})
		for k := range ref.inner.Data {
			for i, want := range ref.inner.Data[k] {
				got := zf.inner.Data[k][i]
				if rt == RuntimeShared || rt == RuntimeDynamic {
					if got != want {
						t.Fatalf("%v: cell %d elem %d: %x vs sequential %x (not bit-identical)", rt, k, i, got, want)
					}
				} else if cmplx.Abs(got-want) > 1e-11*(1+cmplx.Abs(want)) {
					t.Fatalf("%v: cell %d elem %d: %v vs sequential %v", rt, k, i, got, want)
				}
			}
		}
		x, err := an.SolveComplex(zf, b)
		if err != nil {
			t.Fatal(err)
		}
		if r := ZResidual(az, x, b); r > 1e-12 {
			t.Fatalf("%v: residual %g", rt, r)
		}
	}
}

// Complex factorization honours Options.Faults: a recoverable plan
// reproduces the fault-free message-passing factor bit for bit, and a
// hopeless wire surfaces ErrFaultBudget.
func TestComplexFaults(t *testing.T) {
	az := zGrid(12)
	factor := func(plan *FaultPlan) (*ZFactor, error) {
		an, err := AnalyzeComplex(az, Options{Processors: 4, BlockSize: 8, Ratio2D: 2, Runtime: RuntimeMPSim, Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		return an.FactorizeComplex(az)
	}
	ref, err := factor(nil)
	if err != nil {
		t.Fatal(err)
	}
	chaos := &FaultPlan{Seed: 11, Drop: 0.1, Dup: 0.1, Delay: 0.15, MaxDelay: 200 * time.Microsecond, CrashAtStep: map[int]int{1: 1}}
	got, err := factor(chaos)
	if err != nil {
		t.Fatal(err)
	}
	for k := range ref.inner.Data {
		for i, want := range ref.inner.Data[k] {
			if got.inner.Data[k][i] != want {
				t.Fatalf("cell %d elem %d: %x vs fault-free %x", k, i, got.inner.Data[k][i], want)
			}
		}
	}
	hopeless := &FaultPlan{Seed: 2, Drop: 0.999}
	hopeless.Reliability.RTO = 100 * time.Microsecond
	hopeless.Reliability.MaxRTO = 200 * time.Microsecond
	hopeless.Reliability.RetryLimit = 2
	hopeless.Reliability.Tick = 50 * time.Microsecond
	if _, err := factor(hopeless); !errors.Is(err, ErrFaultBudget) {
		t.Fatalf("want ErrFaultBudget, got %v", err)
	}
}

// The real-only options are rejected for complex factorization, not
// silently ignored.
func TestComplexRejectsRealOnlyOptions(t *testing.T) {
	az := zGrid(6)
	for _, opts := range []Options{
		{StaticPivot: StaticPivotOptions{Epsilon: 1e-8}},
		{BLR: BLROptions{Tol: 1e-8}},
	} {
		an, err := AnalyzeComplex(az, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := an.FactorizeComplex(az); !errors.Is(err, ErrBadOptions) {
			t.Fatalf("%+v: want ErrBadOptions, got %v", opts, err)
		}
	}
}
