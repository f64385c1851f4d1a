package bench

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"github.com/pastix-go/pastix/internal/gen"
	"github.com/pastix-go/pastix/internal/order"
	"github.com/pastix-go/pastix/internal/solver"
)

// BatchRow is one right-hand-side count of the batched-solve comparison:
// wall-clock of k independent single-RHS parallel solves versus one blocked
// multi-RHS panel solve over the same k columns (each the best of the
// measured repetitions), the resulting speedup, and whether the batched
// columns were bit-identical to the independent solves (the service
// batcher's contract).
type BatchRow struct {
	NRHS         int     `json:"nrhs"`
	SingleSec    float64 `json:"single_sec"`
	BatchedSec   float64 `json:"batched_sec"`
	Speedup      float64 `json:"speedup"`
	PerRHSMicros float64 `json:"batched_us_per_rhs"`
	BitIdentical bool    `json:"bit_identical"`
}

// CompareBatchedSolve factorizes the nx×ny×nz Poisson problem once on p
// processors and then times, for each k in rhsCounts, k independent
// one-column SolveParManyOpts calls against one k-column call. Both paths run
// the same message-passing panel solve, so the batched columns must be
// bit-identical to the independent results; any mismatch is an error.
func CompareBatchedSolve(nx, ny, nz, p int, rhsCounts []int, reps int) ([]BatchRow, error) {
	if reps < 1 {
		reps = 1
	}
	a := gen.Laplacian3D(nx, ny, nz)
	an, err := solver.Analyze(a, solver.Options{
		P:        p,
		Ordering: order.Options{Method: order.ScotchLike},
	})
	if err != nil {
		return nil, err
	}
	f, err := solver.FactorizePar(an.A, an.Sched)
	if err != nil {
		return nil, err
	}
	n := a.N
	ctx := context.Background()

	rows := make([]BatchRow, 0, len(rhsCounts))
	for _, k := range rhsCounts {
		if k < 1 {
			return nil, fmt.Errorf("bad rhs count %d", k)
		}
		panel := make([]float64, n*k)
		for r := 0; r < k; r++ {
			for i := 0; i < n; i++ {
				panel[r*n+i] = math.Sin(float64(1+i*(r+2))) + float64(r)
			}
		}
		row := BatchRow{NRHS: k, SingleSec: math.Inf(1), BatchedSec: math.Inf(1), BitIdentical: true}
		var single, batched []float64
		for rep := 0; rep < reps; rep++ {
			t0 := time.Now()
			single = single[:0]
			for r := 0; r < k; r++ {
				x, err := solver.SolveParManyOpts(ctx, an.Sched, f, panel[r*n:(r+1)*n], 1, solver.SolveOptions{})
				if err != nil {
					return nil, fmt.Errorf("single k=%d: %w", k, err)
				}
				single = append(single, x...)
			}
			if s := time.Since(t0).Seconds(); s < row.SingleSec {
				row.SingleSec = s
			}

			t0 = time.Now()
			batched, err = solver.SolveParManyOpts(ctx, an.Sched, f, panel, k, solver.SolveOptions{})
			if err != nil {
				return nil, fmt.Errorf("batched k=%d: %w", k, err)
			}
			if s := time.Since(t0).Seconds(); s < row.BatchedSec {
				row.BatchedSec = s
			}
		}
		for i := range single {
			if batched[i] != single[i] {
				row.BitIdentical = false
				return nil, fmt.Errorf("batched k=%d: column value %v differs from independent solve %v at %d",
					k, batched[i], single[i], i)
			}
		}
		row.Speedup = row.SingleSec / row.BatchedSec
		row.PerRHSMicros = row.BatchedSec / float64(k) * 1e6
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatBatchedSolve renders the comparison as an aligned text table.
func FormatBatchedSolve(rows []BatchRow) string {
	var sb strings.Builder
	sb.WriteString("   k   k×single (s)  batched (s)  speedup   µs/rhs  bit-identical\n")
	for _, r := range rows {
		sb.WriteString(fmt.Sprintf("%4d   %12.4f  %11.4f  %6.2fx  %7.0f  %v\n",
			r.NRHS, r.SingleSec, r.BatchedSec, r.Speedup, r.PerRHSMicros, r.BitIdentical))
	}
	return sb.String()
}
