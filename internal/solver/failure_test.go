package solver

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/pastix-go/pastix/internal/gen"
	"github.com/pastix-go/pastix/internal/sparse"
)

// singularMatrix couples vertices like a grid but zeroes one diagonal entry
// whose column has no sub-diagonal couplings, guaranteeing an exactly-zero
// pivot whatever the ordering: vertex `loner` is fully decoupled.
func singularMatrix(nx, ny, loner int) *sparse.SymMatrix {
	b := sparse.NewBuilder(nx * ny)
	idx := func(i, j int) int { return i + j*nx }
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			v := idx(i, j)
			if v == loner {
				b.Add(v, v, 0) // isolated, zero diagonal → zero pivot
				continue
			}
			b.Add(v, v, 4.5)
			for _, u := range [][2]int{{i + 1, j}, {i, j + 1}} {
				if u[0] < nx && u[1] < ny && idx(u[0], u[1]) != loner {
					b.Add(v, idx(u[0], u[1]), -1)
				}
			}
		}
	}
	return b.Build()
}

func TestZeroPivotErrorSequential(t *testing.T) {
	a := singularMatrix(8, 8, 27)
	an := analyzeFor(t, a, 1)
	if _, err := an.Factorize(); err == nil {
		t.Fatal("expected zero-pivot error")
	} else if !strings.Contains(err.Error(), "pivot") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// The parallel runtime must fail cleanly (no deadlock, no panic) and report
// the root cause, not the secondary closed-mailbox errors.
func TestZeroPivotErrorParallel(t *testing.T) {
	a := singularMatrix(10, 10, 33)
	for _, P := range []int{2, 4, 8} {
		an := analyzeFor(t, a, P)
		_, err := FactorizePar(an.A, an.Sched)
		if err == nil {
			t.Fatalf("P=%d: expected error", P)
		}
		if !strings.Contains(err.Error(), "pivot") {
			t.Fatalf("P=%d: root cause lost: %v", P, err)
		}
	}
}

func TestZeroPivotErrorMultifrontalStyle(t *testing.T) {
	// The fan-both path must fail cleanly too.
	a := singularMatrix(9, 9, 40)
	an := analyzeFor(t, a, 4)
	if _, err := FactorizeParOpts(an.A, an.Sched, ParOptions{MaxAUBBytes: 64}); err == nil {
		t.Fatal("expected error in fan-both mode")
	}
}

// The shared-memory runtime must also fail cleanly on a zero pivot: no
// deadlock, no goroutine leak, and the typed root cause preserved through
// the dependency-graph scheduler's shutdown.
func TestZeroPivotErrorSharedMemory(t *testing.T) {
	a := singularMatrix(10, 10, 33)
	an := analyzeFor(t, a, 4)
	before := runtime.NumGoroutine()
	_, err := an.FactorizeOptsCtx(context.Background(), ParOptions{Runtime: RuntimeShared})
	if err == nil {
		t.Fatal("expected zero-pivot error")
	}
	if !errors.Is(err, ErrNotSPD) {
		t.Fatalf("root cause lost: %v", err)
	}
	var zpe *ZeroPivotError
	if !errors.As(err, &zpe) {
		t.Fatalf("no ZeroPivotError in chain: %v", err)
	}
	// All worker goroutines must have unwound; allow a grace period for the
	// scheduler's teardown to complete.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// Stress: many problem/processor/blocking combinations, parallel factor
// must always match sequential. Skipped with -short.
func TestStressParallelEqualsSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	for _, name := range []string{"OILPAN", "BMWCRA1", "SHIPSEC8"} {
		p, err := gen.Generate(name, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		refAn := analyzeFor(t, p.A, 1)
		ref, err := FactorizeSeq(refAn.A, refAn.Sym)
		if err != nil {
			t.Fatal(err)
		}
		for _, P := range []int{3, 5, 7, 16} {
			an := analyzeFor(t, p.A, P)
			got, err := FactorizePar(an.A, an.Sched)
			if err != nil {
				t.Fatalf("%s P=%d: %v", name, P, err)
			}
			factorsClose(t, ref, got, 1e-10)
		}
	}
}
