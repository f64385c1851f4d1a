package pastix

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"github.com/pastix-go/pastix/internal/gen"
)

func solveOptsFixture(t *testing.T, opts Options) (*Analysis, *Factor, []float64) {
	t.Helper()
	a := gen.Laplacian2D(16, 16)
	an, err := Analyze(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := an.Factorize()
	if err != nil {
		t.Fatal(err)
	}
	_, b := gen.RHSForSolution(a)
	return an, f, b
}

func bitwiseSame(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: x[%d] = %x, want %x (not bit-identical)", name, i, got[i], want[i])
		}
	}
}

// TestSolveOptsWrapperEquivalence is the API-consolidation contract: Solve
// returns outputs bit-identical to the SolveOpts call it delegates to, and
// the sequential engine at NRHS 32 returns, column by column, exactly what
// Solve and the level-set engine return — on analyses configured for each
// runtime.
func TestSolveOptsWrapperEquivalence(t *testing.T) {
	const nrhs = 32
	ctx := context.Background()
	for _, cfg := range []struct {
		name string
		opts Options
	}{
		{"auto-p3", Options{Processors: 3}},
		{"shared-p4", Options{Processors: 4, Runtime: RuntimeShared}},
		{"dynamic-p4", Options{Processors: 4, Runtime: RuntimeDynamic}},
		{"mpsim-p2", Options{Processors: 2, Runtime: RuntimeMPSim}},
		{"seq-p1", Options{Processors: 1, Runtime: RuntimeSequential}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			an, f, b := solveOptsFixture(t, cfg.opts)
			n := len(b)
			panel := make([]float64, n*nrhs)
			for r := 0; r < nrhs; r++ {
				for i := 0; i < n; i++ {
					panel[i+r*n] = b[i] * float64(r+1)
				}
			}

			x1, err := an.Solve(f, b)
			if err != nil {
				t.Fatal(err)
			}
			r1, err := an.SolveOpts(ctx, f, b, SolveOptions{Runtime: RuntimeSequential})
			if err != nil {
				t.Fatal(err)
			}
			bitwiseSame(t, "Solve", x1, r1.X)

			seq, err := an.SolveOpts(ctx, f, panel, SolveOptions{NRHS: nrhs, Runtime: RuntimeSequential})
			if err != nil {
				t.Fatal(err)
			}
			level, err := an.SolveOpts(ctx, f, panel, SolveOptions{NRHS: nrhs, Runtime: RuntimeShared})
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < nrhs; r++ {
				col, err := an.Solve(f, panel[r*n:(r+1)*n])
				if err != nil {
					t.Fatal(err)
				}
				bitwiseSame(t, "sequential panel vs Solve", seq.X[r*n:(r+1)*n], col)
				bitwiseSame(t, "sequential panel vs level-set", seq.X[r*n:(r+1)*n], level.X[r*n:(r+1)*n])
			}
		})
	}
}

// TestSolveOptsEngineDeterminism checks the headline guarantee of the
// redesign at the public surface: the level-set engine (both dispatch modes)
// returns solutions bit-identical to the sequential Solve, and each column of
// a level-set panel solve is bit-identical to the single-RHS Solve of it.
func TestSolveOptsEngineDeterminism(t *testing.T) {
	an, f, b := solveOptsFixture(t, Options{Processors: 4})
	ctx := context.Background()
	ref, err := an.Solve(f, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, rt := range []Runtime{RuntimeShared, RuntimeDynamic} {
		res, err := an.SolveOpts(ctx, f, b, SolveOptions{Runtime: rt})
		if err != nil {
			t.Fatal(err)
		}
		bitwiseSame(t, "level engine", res.X, ref)
		if res.Plan.Cells == 0 || res.Plan.Levels == 0 || res.Plan.Workers != 4 {
			t.Fatalf("level engine reported no plan: %+v", res.Plan)
		}
	}
	const nrhs = 3
	n := len(b)
	panel := make([]float64, n*nrhs)
	for r := 0; r < nrhs; r++ {
		for i := 0; i < n; i++ {
			panel[i+r*n] = b[i] / float64(r+1)
		}
	}
	res, err := an.SolveOpts(ctx, f, panel, SolveOptions{NRHS: nrhs})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < nrhs; r++ {
		col, err := an.Solve(f, panel[r*n:(r+1)*n])
		if err != nil {
			t.Fatal(err)
		}
		bitwiseSame(t, "panel column", res.X[r*n:(r+1)*n], col)
	}
	// Sequential engines report no level-set plan.
	rs, err := an.SolveOpts(ctx, f, b, SolveOptions{Runtime: RuntimeSequential})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Plan != (PlanStats{}) {
		t.Fatalf("sequential solve reported a plan: %+v", rs.Plan)
	}
}

// TestSolveOptsRefinePanel refines every column of a panel solve and checks
// the aggregated stats plus the actual residuals.
func TestSolveOptsRefinePanel(t *testing.T) {
	a := gen.Laplacian2D(16, 16)
	an, err := Analyze(a, Options{Processors: 4})
	if err != nil {
		t.Fatal(err)
	}
	f, err := an.Factorize()
	if err != nil {
		t.Fatal(err)
	}
	_, b := gen.RHSForSolution(a)
	const nrhs = 3
	n := len(b)
	panel := make([]float64, n*nrhs)
	for r := 0; r < nrhs; r++ {
		for i := 0; i < n; i++ {
			panel[i+r*n] = b[i] * float64(r+1)
		}
	}
	res, err := an.SolveOpts(context.Background(), f, panel, SolveOptions{NRHS: nrhs, Refine: &RefineOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Refine == nil || !res.Refine.Converged {
		t.Fatalf("panel refinement did not converge: %+v", res.Refine)
	}
	if len(res.Refine.Trajectory) != 0 {
		t.Fatal("trajectory reported for a panel refine (single-RHS only)")
	}
	for r := 0; r < nrhs; r++ {
		if rr := Residual(a, res.X[r*n:(r+1)*n], panel[r*n:(r+1)*n]); rr > 1e-10 {
			t.Fatalf("column %d residual %g after refinement", r, rr)
		}
	}
}

// TestSolveOptsTraced runs a traced level-set solve and checks the returned
// trace renders (standalone solve traces support the Chrome export, not the
// schedule divergence report).
func TestSolveOptsTraced(t *testing.T) {
	an, f, b := solveOptsFixture(t, Options{Processors: 3})
	res, err := an.SolveOpts(context.Background(), f, b, SolveOptions{Trace: &TraceOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("no trace returned")
	}
	var buf bytes.Buffer
	if err := res.Trace.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty chrome trace")
	}
}

// TestSolveOptsValidation pins the error surface of the unified entry point.
func TestSolveOptsValidation(t *testing.T) {
	an, f, b := solveOptsFixture(t, Options{Processors: 2})
	ctx := context.Background()
	cases := []struct {
		name string
		call func() error
		want error
	}{
		{"short rhs", func() error {
			_, err := an.SolveOpts(ctx, f, b[:3], SolveOptions{})
			return err
		}, ErrShape},
		{"short panel", func() error {
			_, err := an.SolveOpts(ctx, f, b, SolveOptions{NRHS: 2})
			return err
		}, ErrShape},
		{"negative nrhs", func() error {
			_, err := an.SolveOpts(ctx, f, b, SolveOptions{NRHS: -1})
			return err
		}, ErrShape},
		{"bad runtime", func() error {
			_, err := an.SolveOpts(ctx, f, b, SolveOptions{Runtime: Runtime(99)})
			return err
		}, ErrBadOptions},
		{"negative refine tol", func() error {
			_, err := an.SolveOpts(ctx, f, b, SolveOptions{Refine: &RefineOptions{Tol: -1}})
			return err
		}, ErrBadOptions},
		{"negative refine iters", func() error {
			_, err := an.SolveOpts(ctx, f, b, SolveOptions{Refine: &RefineOptions{MaxIter: -1}})
			return err
		}, ErrBadOptions},
		{"traced sequential", func() error {
			_, err := an.SolveOpts(ctx, f, b, SolveOptions{Runtime: RuntimeSequential, Trace: &TraceOptions{}})
			return err
		}, ErrBadOptions},
	}
	for _, tc := range cases {
		if err := tc.call(); !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	if _, err := an.SolveOpts(ctx, nil, b, SolveOptions{}); err != ErrFactorMismatch {
		t.Fatalf("nil factor: err = %v", err)
	}
	other, err := Analyze(gen.Laplacian2D(8, 8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.SolveOpts(ctx, f, b, SolveOptions{}); err != ErrFactorMismatch {
		t.Fatalf("foreign factor: err = %v", err)
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := an.SolveOpts(cctx, f, b, SolveOptions{}); err != context.Canceled {
		t.Fatalf("cancelled: err = %v", err)
	}
}

// TestPrepareSolvePublic warms the solve path and checks the stats match the
// plan a later solve reports.
func TestPrepareSolvePublic(t *testing.T) {
	an, f, b := solveOptsFixture(t, Options{Processors: 4})
	st, err := an.PrepareSolve(f)
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers != 4 || st.Cells == 0 {
		t.Fatalf("PrepareSolve stats: %+v", st)
	}
	res, err := an.SolveOpts(context.Background(), f, b, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan != st {
		t.Fatalf("solve plan %+v differs from prepared %+v", res.Plan, st)
	}
	if _, err := an.PrepareSolve(nil); err != ErrFactorMismatch {
		t.Fatalf("nil factor: err = %v", err)
	}
}
