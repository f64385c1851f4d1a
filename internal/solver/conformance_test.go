package solver

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"github.com/pastix-go/pastix/internal/blas"
	"github.com/pastix-go/pastix/internal/faults"
	"github.com/pastix-go/pastix/internal/gen"
	"github.com/pastix-go/pastix/internal/sparse"
	"github.com/pastix-go/pastix/internal/trace"
)

// conformanceCase is one matrix of the cross-runtime conformance corpus:
// every generator family in internal/gen, including the irregular ones.
type conformanceCase struct {
	name string
	a    *sparse.SymMatrix
	// needsPivot marks matrices that cannot factor without static pivoting
	// (the pivot-off leg is skipped for them).
	needsPivot bool
}

func conformanceCorpus() []conformanceCase {
	return []conformanceCase{
		{"poisson2d-16x16", gen.Laplacian2D(16, 16), false},
		{"poisson3d-7", gen.Laplacian3D(7, 7, 7), false},
		{"graded", gen.GradedPivot(4, 8, 1e-2, 0.05, false), false},
		{"graded-singular", gen.GradedPivot(4, 8, 1e-2, 0.05, true), true},
		{"randspd-seed1", gen.RandomSPD(160, 4, 1), false},
		{"randspd-seed9", gen.RandomSPD(160, 5, 9), false},
	}
}

// factorizeRT runs one factorization of the conformance grid: analysis an,
// runtime rt, optional pivoting, optional tracing (recorder sized to the
// schedule).
func factorizeRT(t *testing.T, an *Analysis, rt Runtime, sp StaticPivot, traced bool) (*Factors, *trace.Recorder) {
	t.Helper()
	var rec *trace.Recorder
	if traced {
		rec = trace.New(an.Sched.P, 0)
	}
	f, err := an.FactorizeMatrixOptsCtx(context.Background(), an.A, ParOptions{
		Runtime: rt,
		Pivot:   sp,
		Trace:   rec,
	})
	if err != nil {
		t.Fatalf("%v factorize: %v", rt, err)
	}
	return f, rec
}

// TestRuntimeConformance is the cross-runtime conformance suite of the
// dynamic-runtime work: every generator family × all four runtimes ×
// {pivot off, pivot on} × {untraced, traced}, plus a complex symmetric input
// of the same runtimes. The deterministic runtimes (sequential, shared,
// dynamic) must agree BITWISE on factor data, publish reflect.DeepEqual
// perturbation reports, and return bitwise-equal solve vectors; the
// message-passing simulator must agree to aggregation rounding (≤1e-11
// entrywise on these scales) with an identical report, and must be
// bitwise-reproducible against itself.
func TestRuntimeConformance(t *testing.T) {
	for _, tc := range conformanceCorpus() {
		for _, pivOn := range []bool{false, true} {
			if tc.needsPivot && !pivOn {
				continue
			}
			var sp StaticPivot
			if pivOn {
				sp = StaticPivot{Epsilon: 1e-10}
			}
			t.Run(fmt.Sprintf("%s/pivot=%v", tc.name, pivOn), func(t *testing.T) {
				an := analyzeFor(t, tc.a, 4)
				_, b := gen.RHSForSolution(tc.a)
				checkConformance(t, an, b, func(rt Runtime, traced bool) (*Store[float64], *PerturbationReport) {
					f, _ := factorizeRT(t, an, rt, sp, traced)
					return &f.Store, f.Pivots
				})
			})
		}
	}
	t.Run("zlaplacian-16x16/complex", func(t *testing.T) {
		an, paz := zAnalyze(t, zLaplacian(16, 16), 4)
		checkConformance(t, an, zRHS(paz.N), func(rt Runtime, traced bool) (*Store[complex128], *PerturbationReport) {
			return zFactorizeRT(t, an, paz, rt, traced, nil), nil
		})
	})
}

// TestRuntimeConformanceComplexGolden pins the complex arithmetic: the
// sequential complex factor must hash to the value recorded from the former
// dedicated complex kernels, which ran the same operations in the same
// order. Any other hash means the generic code changed the arithmetic.
func TestRuntimeConformanceComplexGolden(t *testing.T) {
	an, paz := zAnalyze(t, zLaplacian(16, 16), 4)
	const golden = 0x58272bcb6e83c026
	if h := storeHash(zFactorizeRT(t, an, paz, RuntimeSequential, false, nil)); h != golden {
		t.Fatalf("sequential complex factor hash %016x, want %016x", h, uint64(golden))
	}
}

// TestRuntimeConformanceComplexFaults is the chaos leg of the complex
// conformance input: the message-passing runtime under every wire fault
// class, crashes and a stall — with and without fan-both spills — must
// reproduce the fault-free complex factor bit for bit.
func TestRuntimeConformanceComplexFaults(t *testing.T) {
	an, paz := zAnalyze(t, zLaplacian(16, 16), 4)
	seeds := 4
	if testing.Short() {
		seeds = 2
	}
	for _, maxAUB := range []int64{0, 512} {
		ref := zFactorizeOpts(t, an, paz, ParOptions{Runtime: RuntimeMPSim, MaxAUBBytes: maxAUB})
		for s := 0; s < seeds; s++ {
			seed := int64(s*7919 + 5)
			f := zFactorizeOpts(t, an, paz, ParOptions{Runtime: RuntimeMPSim, MaxAUBBytes: maxAUB, Faults: chaosPlan(seed)})
			bitwiseEqualStores(t, ref, f, fmt.Sprintf("maxAUB=%d seed %d", maxAUB, seed))
		}
	}
}

// checkConformance runs the conformance assertions for one input over
// element type T: factorize(rt, traced) factors it on runtime rt, b is the
// right-hand side of the solve legs.
func checkConformance[T blas.Scalar](t *testing.T, an *Analysis, b []T, factorize func(rt Runtime, traced bool) (*Store[T], *PerturbationReport)) {
	t.Helper()
	ref, refRep := factorize(RuntimeSequential, false)
	refX := solveOriginal(an, ref, b)

	for _, rt := range []Runtime{RuntimeShared, RuntimeDynamic} {
		for _, traced := range []bool{false, true} {
			f, rep := factorize(rt, traced)
			name := fmt.Sprintf("%v/traced=%v", rt, traced)
			bitwiseEqualStores(t, ref, f, name)
			if !reflect.DeepEqual(refRep, rep) {
				t.Fatalf("%s: perturbation report differs:\nseq: %+v\ngot: %+v", name, refRep, rep)
			}
			x := solveOriginal(an, f, b)
			for i := range refX {
				if x[i] != refX[i] {
					t.Fatalf("%s: solve x[%d] = %x, seq %x (not bit-identical)", name, i, x[i], refX[i])
				}
			}
		}
	}

	// mpsim: deterministic (bitwise against itself) and equal to the
	// reference to aggregation rounding; same report.
	for _, traced := range []bool{false, true} {
		f1, rep := factorize(RuntimeMPSim, traced)
		f2, _ := factorize(RuntimeMPSim, traced)
		name := fmt.Sprintf("mpsim/traced=%v", traced)
		bitwiseEqualStores(t, f1, f2, name+" (run-to-run)")
		storesClose(t, ref, f1, 1e-11)
		if !reflect.DeepEqual(refRep, rep) {
			t.Fatalf("%s: perturbation report differs from seq", name)
		}
		x := solveOriginal(an, f1, b)
		for i := range refX {
			if d := blas.Abs(x[i] - refX[i]); d > 1e-9 {
				t.Fatalf("%s: solve x[%d] off by %g", name, i, d)
			}
		}
	}
}

// solveOriginal solves with the dense store in the original ordering.
func solveOriginal[T blas.Scalar](an *Analysis, f *Store[T], b []T) []T {
	pb := make([]T, len(b))
	for newI, old := range an.Perm {
		pb[newI] = b[old]
	}
	px := f.Solve(pb)
	x := make([]T, len(b))
	for newI, old := range an.Perm {
		x[old] = px[newI]
	}
	return x
}

// storeHash is an FNV-1a hash over the bits of every stored element, cell
// by cell (real then imaginary part for complex elements).
func storeHash[T blas.Scalar](f *Store[T]) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for k := range f.Data {
		for _, w := range asWire(f.Data[k]) {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(w))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

func bitwiseEqualFactorsNamed(t *testing.T, ref, got *Factors, name string) {
	t.Helper()
	bitwiseEqualStores(t, &ref.Store, &got.Store, name)
}

func bitwiseEqualStores[T blas.Scalar](t *testing.T, ref, got *Store[T], name string) {
	t.Helper()
	for k := range ref.Data {
		if len(ref.Data[k]) != len(got.Data[k]) {
			t.Fatalf("%s: cell %d sizes differ (%d vs %d)", name, k, len(ref.Data[k]), len(got.Data[k]))
		}
		for i := range ref.Data[k] {
			if ref.Data[k][i] != got.Data[k][i] {
				t.Fatalf("%s: cell %d elem %d: %x vs %x (not bit-identical)",
					name, k, i, got.Data[k][i], ref.Data[k][i])
			}
		}
	}
}

// TestDynamicSharedBitwiseSeeds is the acceptance soak: across ≥20 random
// irregular matrices the work-stealing runtime must produce factors
// bitwise-identical to the static shared-memory runtime — every seed, every
// run, regardless of which worker stole what. Run under -race by `make race`.
func TestDynamicSharedBitwiseSeeds(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	for seed := 0; seed < seeds; seed++ {
		a := gen.RandomSPD(120, 4, uint64(seed)+1)
		an := analyzeFor(t, a, 4)
		sh, err := an.FactorizeMatrixOptsCtx(context.Background(), an.A, ParOptions{Runtime: RuntimeShared})
		if err != nil {
			t.Fatalf("seed %d: shared: %v", seed, err)
		}
		dy, err := an.FactorizeMatrixOptsCtx(context.Background(), an.A, ParOptions{Runtime: RuntimeDynamic})
		if err != nil {
			t.Fatalf("seed %d: dynamic: %v", seed, err)
		}
		bitwiseEqualFactors(t, sh, dy, int64(seed))
	}
}

// TestDynamicStealStorm drives the dynamic runtime where stealing is the
// only way to make progress: tiny blocks (many small tasks) on many more
// workers than the elimination tree keeps busy. Results must still be
// bitwise-identical to sequential, and the executor must actually have
// stolen.
func TestDynamicStealStorm(t *testing.T) {
	a := gen.Laplacian2D(20, 20)
	an, err := Analyze(a, Options{P: 8})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := FactorizeSeqPivot(an.A, an.Sym, StaticPivot{})
	if err != nil {
		t.Fatal(err)
	}
	var totalSteals int64
	rounds := 20
	if testing.Short() {
		rounds = 5
	}
	for r := 0; r < rounds; r++ {
		f, st, err := FactorizeDynamicStatsCtx(context.Background(), an.A, an.Sched, nil, StaticPivot{})
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if st.Executed != int64(len(an.Sched.Tasks)) {
			t.Fatalf("round %d: executed %d of %d tasks", r, st.Executed, len(an.Sched.Tasks))
		}
		bitwiseEqualFactors(t, ref, f, int64(r))
		totalSteals += st.Steals
	}
	if totalSteals == 0 {
		t.Fatal("steal storm never stole: executor degenerated to static mapping")
	}
}

// TestDynamicTraceCompare checks the tracing surface of the dynamic runtime:
// a traced dynamic factorization must replay through trace.CompareOpts with
// FreeMapping (tasks run on arbitrary workers), producing a full report,
// while the strict mapped comparison is expected to reject the free mapping.
func TestDynamicTraceCompare(t *testing.T) {
	a := gen.Laplacian2D(16, 16)
	an := analyzeFor(t, a, 4)
	rec := trace.New(an.Sched.P, 0)
	_, err := an.FactorizeMatrixOptsCtx(context.Background(), an.A, ParOptions{Runtime: RuntimeDynamic, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := trace.CompareOpts(an.Sched, rec, trace.CompareOptions{FreeMapping: true})
	if err != nil {
		t.Fatalf("CompareOpts(FreeMapping): %v", err)
	}
	if len(rp.Tasks) != len(an.Sched.Tasks) {
		t.Fatalf("report covers %d tasks, schedule has %d", len(rp.Tasks), len(an.Sched.Tasks))
	}
	if rp.MeasuredMakespan <= 0 {
		t.Fatalf("measured makespan %v not positive", rp.MeasuredMakespan)
	}
}

// TestDynamicRejectsFaults pins the chaos-interplay contract at the solver
// layer: fault injection exists for the message-passing runtime only, and
// combining an active plan with the work-stealing runtime must fail up
// front, not silently ignore the plan.
func TestDynamicRejectsFaults(t *testing.T) {
	a := gen.Laplacian2D(10, 10)
	an := analyzeFor(t, a, 2)
	plan := &faults.Plan{Seed: 1, Drop: 0.1}
	for _, rt := range []Runtime{RuntimeDynamic, RuntimeShared, RuntimeSequential} {
		_, err := an.FactorizeMatrixOptsCtx(context.Background(), an.A, ParOptions{Runtime: rt, Faults: plan})
		if err == nil {
			t.Fatalf("%v accepted an active fault plan", rt)
		}
	}
	// The same plan on the message-passing runtime is fine.
	if _, err := an.FactorizeMatrixOptsCtx(context.Background(), an.A, ParOptions{Runtime: RuntimeMPSim, Faults: plan}); err != nil {
		t.Fatalf("mpsim rejected its own fault plan: %v", err)
	}
}

// TestDynamicHonorsContext covers cancellation through the full solver
// stack: a context cancelled mid-factorization must abort the dynamic run
// with ctx.Err() and unwind every worker.
func TestDynamicHonorsContext(t *testing.T) {
	a := gen.Laplacian2D(20, 20)
	an := analyzeFor(t, a, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := an.FactorizeMatrixOptsCtx(ctx, an.A, ParOptions{Runtime: RuntimeDynamic}); err == nil {
		t.Fatal("cancelled context not observed")
	}
}
