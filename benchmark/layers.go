package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/pastix-go/pastix"
	"github.com/pastix-go/pastix/internal/blas"
	"github.com/pastix-go/pastix/internal/cost"
	"github.com/pastix-go/pastix/internal/etree"
	"github.com/pastix-go/pastix/internal/graph"
	"github.com/pastix-go/pastix/internal/order"
	"github.com/pastix-go/pastix/internal/part"
	"github.com/pastix-go/pastix/internal/sched"
	"github.com/pastix-go/pastix/internal/solver"
	"github.com/pastix-go/pastix/internal/store"
	"github.com/pastix-go/pastix/internal/symbolic"
)

// layerSet collects the per-layer metrics of a traced run and the
// deterministic counters that must repeat exactly within it.
type layerSet struct {
	values   map[string]metric
	counters map[string]float64 // counter/sample key → first value seen
	mismatch []string           // counters that did not repeat
	replicas []int              // factorize replication seen by the replay
}

func newLayerSet() *layerSet {
	return &layerSet{values: map[string]metric{}, counters: map[string]float64{}}
}

func (l *layerSet) set(name, unit string, v float64) { l.values[name] = metric{Value: v, Unit: unit} }

// repeat records a counter that must be identical every time it is measured
// on the same input within one run.
func (l *layerSet) repeat(name string, sample int, v float64) {
	key := fmt.Sprintf("%s[%d]", name, sample)
	if old, ok := l.counters[key]; !ok {
		l.counters[key] = v
	} else if old != v {
		l.mismatch = append(l.mismatch, fmt.Sprintf("%s: %v then %v", key, old, v))
	}
}

// serveReplay configures the service and gateway part of a replay.
type serveReplay struct {
	cl *cluster
	// fresh returns a never-seen variant of a sample pattern (serve-cold and
	// refactor-mt1), so replayed factorizes miss the cache like serve-cold's.
	// Nil sends the sample patterns themselves, whose analyses the backends
	// already hold (serve-mix), so replayed factorizes are cache hits.
	fresh func(i int, a *pastix.Matrix) *pastix.Matrix
}

const (
	replayReps = 3 // repetitions of each layer call per sample matrix
	refineTol  = 1e-10
)

// replayLayers times each layer's entry points on the workload's own sample
// inputs, outside in: parsing and fingerprinting, the four analysis phases,
// numeric factorization under every runtime, the message-passing trace, the
// calibrated cost model, the BLAS kernels, the solve path, the store and —
// through sr — the service and gateway hops.
func replayLayers(cfg config, tr *tracer, lay *layerSet, sample []*pastix.Matrix, opts pastix.Options, sr *serveReplay) error {
	ctx := context.Background()
	var (
		analysisGap, factorAlloc, refineIters []float64
		bodyMB                                []float64
		opc, nnzL, tasks, levels, parSteps    float64
		opcs                                  = make([]float64, len(sample))
		factors                               = make([]*pastix.Factor, len(sample))
		analyses                              = make([]*pastix.Analysis, len(sample))
		symbols                               = make([]*symbolic.Symbol, len(sample))
	)
	var op int64
	for rep := 0; rep < replayReps; rep++ {
		for i, m := range sample {
			op++
			root := tr.begin("replay.analyze_factor_solve", op, 0, -1)
			mm, err := matrixMarket(m)
			if err != nil {
				return err
			}
			body, err := factorizeBody(mm)
			if err != nil {
				return err
			}
			bodyMB = append(bodyMB, float64(len(body))/1e6)
			lay.repeat("sparse.body_mb", i, float64(len(body))/1e6)

			s := tr.begin("sparse.parse", op, 0, root)
			pm, err := pastix.ReadMatrixMarket(strings.NewReader(mm))
			tr.end(s)
			if err != nil {
				return fmt.Errorf("parse: %w", err)
			}
			s = tr.begin("sparse.fingerprint", op, 0, root)
			_ = pastix.PatternFingerprint(pm)
			tr.end(s)

			// The replayed phases and pastix.Analyze take turns going first,
			// so neither always runs on the other's warm caches.
			var (
				phases, analyzeWall time.Duration
				sym                 *symbolic.Symbol
				ntasks              int
				an                  *pastix.Analysis
			)
			for turn := 0; turn < 2; turn++ {
				if (turn+rep)%2 == 0 {
					phases, sym, ntasks, err = analyzePhases(pm, opts.Processors, tr, op, root)
				} else {
					s = tr.begin("analysis.pastix", op, 0, root)
					t0 := time.Now()
					an, err = pastix.Analyze(pm, opts)
					analyzeWall = time.Since(t0)
					tr.end(s)
				}
				if err != nil {
					return err
				}
			}
			symbols[i] = sym
			analysisGap = append(analysisGap, ms(analyzeWall-phases))
			st := an.Stats()
			lay.repeat("solver.opc", i, st.ScalarOPC)
			lay.repeat("solver.nnz_l", i, float64(st.ScalarNNZL))
			lay.repeat("sched.tasks", i, float64(st.Tasks))
			lay.repeat("sched.tasks", i, float64(ntasks)) // the replayed phases must build the same schedule

			var before runtime.MemStats
			runtime.ReadMemStats(&before)
			s = tr.begin("solver.factor", op, 0, root)
			f, err := an.FactorizeValues(ctx, pm)
			tr.end(s)
			if err != nil {
				return err
			}
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			factorAlloc = append(factorAlloc, float64(after.TotalAlloc-before.TotalAlloc)/1e6)

			s = tr.begin("solver.prepare_solve", op, 0, root)
			plan, err := an.PrepareSolve(f)
			tr.end(s)
			if err != nil {
				return err
			}
			lay.repeat("sched.solve_levels", i, float64(plan.Levels))
			lay.repeat("sched.solve_parallel_steps", i, float64(plan.ParallelSteps))

			r := rngFor(cfg.seed, "replay-rhs", op)
			b := rhs(pm, r)
			s = tr.begin("solver.solve", op, 0, root)
			res, err := an.SolveOpts(ctx, f, b, pastix.SolveOptions{Refine: &pastix.RefineOptions{Tol: refineTol}})
			tr.end(s)
			if err == nil {
				refineIters = append(refineIters, float64(res.Refine.Iterations))
				err = checkSolution(pm, res.X, b, 1)
			}
			if err != nil {
				return fmt.Errorf("replayed solve: %w", err)
			}
			k := cfg.sizes.panelRHS
			panel := panelRHS(pm, k, r)
			s = tr.begin("solver.panel_solve", op, 0, root)
			pres, err := an.SolveOpts(ctx, f, panel, pastix.SolveOptions{NRHS: k})
			tr.end(s)
			if err == nil {
				err = checkSolution(pm, pres.X, panel, k)
			}
			if err != nil {
				return fmt.Errorf("replayed panel solve: %w", err)
			}
			tr.end(root)

			if rep == 0 {
				opc += st.ScalarOPC
				nnzL += float64(st.ScalarNNZL)
				tasks += float64(st.Tasks)
				levels += float64(plan.Levels)
				parSteps += float64(plan.ParallelSteps)
			}
			factors[i], analyses[i], opcs[i] = f, an, st.ScalarOPC
		}
	}
	self := tr.selfTimes()
	lay.set("sparse.parse_ms", "ms", median(self["sparse.parse"]))
	lay.set("sparse.fingerprint_ms", "ms", median(self["sparse.fingerprint"]))
	lay.set("sparse.body_mb", "MB", median(bodyMB))
	lay.set("order.ms", "ms", median(self["order"]))
	lay.set("etree.ms", "ms", median(self["etree"]))
	lay.set("symbolic.ms", "ms", median(self["symbolic"]))
	lay.set("sched.build_ms", "ms", median(self["sched"]))
	lay.set("analysis.unexplained_ms", "ms", median(analysisGap))
	lay.set("sched.tasks", "count", tasks)
	lay.set("sched.solve_levels", "count", levels)
	lay.set("sched.solve_parallel_steps", "count", parSteps)
	lay.set("solver.opc", "flop", opc)
	lay.set("solver.nnz_l", "count", nnzL)
	lay.set("solver.factor_ms", "ms", median(self["solver.factor"]))
	lay.set("solver.factor_alloc_mb", "MB", median(factorAlloc))
	lay.set("solver.prepare_solve_ms", "ms", median(self["solver.prepare_solve"]))
	lay.set("solver.solve_ms", "ms", median(self["solver.solve"]))
	lay.set("solver.panel_solve_ms", "ms", median(self["solver.panel_solve"]))
	lay.set("solver.refine_iters", "count", median(refineIters))

	seqMS, err := replayRuntimes(tr, lay, sample, opts, &op)
	if err != nil {
		return err
	}
	if err := replayMPSim(lay, sample, analyses); err != nil {
		return err
	}
	if err := replayCalibrated(lay, sample, opts); err != nil {
		return err
	}
	gemm := replayKernels(tr, lay, cfg.sizes, symbols[0], &op)
	// Sequential factor time over what the same flops cost at the fixed-shape
	// GEMM rate: 1 would mean the factorization runs at kernel speed.
	var overGemm []float64
	for i, t := range seqMS {
		overGemm = append(overGemm, t/(opcs[i]/(gemm*1e9)*1e3))
	}
	lay.set("solver.factor_over_gemm", "ratio", median(overGemm))
	if err := replayStore(tr, lay, cfg.dataRoot, sample, factors, &op); err != nil {
		return err
	}
	if sr != nil {
		if err := replayService(tr, lay, sr, sample, cfg.seed, &op); err != nil {
			return err
		}
	}
	return nil
}

// analyzePhases replays pastix.Analyze's four phases through the layer
// packages with the options pastix.Analyze passes for the default ordering,
// and returns their summed wall time, the block symbol and the task count.
func analyzePhases(a *pastix.Matrix, procs int, tr *tracer, op int64, parent int) (time.Duration, *symbolic.Symbol, int, error) {
	if procs <= 0 {
		procs = 1
	}
	mach := cost.SP2()
	t0 := time.Now()
	s := tr.begin("order", op, 0, parent)
	ptr, adj := a.AdjacencyCSR()
	g := graph.FromCSR(a.N, ptr, adj)
	o := order.Compute(g, order.Options{Method: order.ScotchLike})
	if err := o.Validate(a.N); err != nil {
		tr.end(s)
		return 0, nil, 0, err
	}
	pa := a.Permute(o.Perm)
	tr.end(s)

	s = tr.begin("etree", op, 0, parent)
	parentOf := etree.Build(pa)
	post := etree.Postorder(parentOf)
	pa = pa.Permute(post)
	parentOf = etree.Build(pa)
	cc := etree.ColCounts(pa, parentOf)
	sn := etree.Fundamental(parentOf, cc)
	sn = etree.Amalgamate(sn, parentOf, cc, etree.AmalgamateOptions{})
	tr.end(s)

	s = tr.begin("symbolic", op, 0, parent)
	sn = part.SplitRanges(sn, part.Options{})
	sym := symbolic.Factor(pa, sn)
	tr.end(s)

	s = tr.begin("sched", op, 0, parent)
	mapping := part.Map(sym, mach, procs, part.Options{})
	schedule, err := sched.Build(sym, mapping, mach, sched.Options{})
	tr.end(s)
	if err != nil {
		return 0, nil, 0, err
	}
	return time.Since(t0), sym, len(schedule.Tasks), nil
}

// replayRuntimes factorizes each sample under every runtime on the same
// analysis; sequential is the single-thread baseline, whose median time per
// sample matrix it returns.
func replayRuntimes(tr *tracer, lay *layerSet, sample []*pastix.Matrix, opts pastix.Options, op *int64) ([]float64, error) {
	ctx := context.Background()
	var seqMS []float64
	for _, rt := range []struct {
		name string
		rt   pastix.Runtime
	}{{"seq", pastix.RuntimeSequential}, {"shared", pastix.RuntimeShared}, {"dynamic", pastix.RuntimeDynamic}, {"mpsim", pastix.RuntimeMPSim}} {
		o := opts
		o.Runtime = rt.rt
		name := "solver.factor_" + rt.name
		for _, m := range sample {
			an, err := pastix.Analyze(m, o)
			if err != nil {
				return nil, err
			}
			var ts []float64
			for rep := 0; rep < replayReps; rep++ {
				*op++
				s := tr.begin(name, *op, 0, -1)
				t0 := time.Now()
				_, err := an.FactorizeValues(ctx, m)
				ts = append(ts, ms(time.Since(t0)))
				tr.end(s)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", name, err)
				}
			}
			if rt.rt == pastix.RuntimeSequential {
				seqMS = append(seqMS, median(ts))
			}
		}
		lay.set(name+"_ms", "ms", median(tr.selfTimes()[name]))
	}
	return seqMS, nil
}

// replayMPSim traces the workload-runtime factorization twice per sample and
// reports the message-passing traffic, the measured load imbalance and the
// cost model's per-task error. Messages must repeat exactly.
func replayMPSim(lay *layerSet, sample []*pastix.Matrix, analyses []*pastix.Analysis) error {
	ctx := context.Background()
	var msgs, mb, spill float64
	var modelErr, imbalance []float64
	for i, m := range sample {
		for rep := 0; rep < 2; rep++ {
			_, t, err := analyses[i].FactorizeValuesTraced(ctx, m, pastix.TraceOptions{})
			if err != nil {
				return fmt.Errorf("traced factorization: %w", err)
			}
			sum, err := t.Summary()
			if err != nil {
				return fmt.Errorf("trace summary: %w", err)
			}
			lay.repeat("mpsim.messages", i, float64(sum.Messages))
			modelErr = append(modelErr, sum.MeanAbsModelError)
			imbalance = append(imbalance, sum.MeasuredImbalance)
			if rep == 0 {
				msgs += float64(sum.Messages)
				mb += float64(sum.Bytes) / 1e6
				spill += float64(sum.SpillBytes) / 1e6
			}
		}
	}
	lay.set("mpsim.messages", "count", msgs)
	lay.set("mpsim.mb", "MB", mb)
	lay.set("mpsim.spill_mb", "MB", spill)
	lay.set("sched.model_error", "ratio", median(modelErr))
	lay.set("solver.measured_imbalance", "ratio", median(imbalance))
	return nil
}

// replayCalibrated builds each sample's schedule on a cost model calibrated
// on this host and reports its predicted factorization time over the
// measured one (median of replayReps runs).
func replayCalibrated(lay *layerSet, sample []*pastix.Matrix, opts pastix.Options) error {
	mach, err := cost.CalibrateLocal(false)
	if err != nil {
		return err
	}
	ctx := context.Background()
	var ratios []float64
	for _, m := range sample {
		an, err := solver.Analyze(m, solver.Options{P: max(opts.Processors, 1), Machine: mach})
		if err != nil {
			return err
		}
		var measured []float64
		for rep := 0; rep < replayReps; rep++ {
			t0 := time.Now()
			if _, err := an.FactorizeMatrixOptsCtx(ctx, an.A, solver.ParOptions{Runtime: opts.Runtime}); err != nil {
				return err
			}
			measured = append(measured, time.Since(t0).Seconds())
		}
		ratios = append(ratios, an.PredictedTime()/median(measured))
	}
	lay.set("sched.predicted_over_measured", "ratio", median(ratios))
	return nil
}

// replayKernels times the BLAS kernels the solver calls (GemmNDTAuto, LDLT,
// TrsmRightLTransUnit) directly and returns the 64³ (or the configured fixed
// shape) GEMM rate in Gflop/s.
func replayKernels(tr *tracer, lay *layerSet, sz sizes, sym *symbolic.Symbol, op *int64) float64 {
	r := rand.New(rand.NewSource(1))
	fill := func(n int) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = r.Float64()
		}
		return x
	}
	rate := func(name string, flops float64, f func()) float64 {
		var ts []float64
		for rep := 0; rep < sz.kernelRepeats; rep++ {
			*op++
			s := tr.begin(name, *op, 0, -1)
			t0 := time.Now()
			f()
			ts = append(ts, time.Since(t0).Seconds())
			tr.end(s)
		}
		return flops / median(ts) / 1e9
	}
	gemm := func(name string, m, n, k int) float64 {
		a, b, c, d := fill(m*k), fill(n*k), fill(m*n), fill(k)
		return rate(name, 2*float64(m)*float64(n)*float64(k), func() { blas.GemmNDTAuto(m, n, k, a, m, d, b, n, c, m) })
	}
	g := sz.gemmShape
	fixed := gemm("blas.gemm", g[0], g[1], g[2])
	lay.set("blas.gemm_gflops", "Gflop/s", fixed)
	m, n, k := medianUpdateShape(sym)
	lay.set("blas.gemm_block_gflops", "Gflop/s", gemm("blas.gemm_block", m, n, k))

	nb := sz.kernelBlock
	spd := fill(nb * nb)
	for j := 0; j < nb; j++ {
		spd[j+j*nb] += float64(nb)
	}
	work := make([]float64, len(spd))
	var ts []float64
	for rep := 0; rep < sz.kernelRepeats; rep++ {
		copy(work, spd)
		*op++
		s := tr.begin("blas.ldlt", *op, 0, -1)
		t0 := time.Now()
		_ = blas.LDLT(nb, work, nb)
		ts = append(ts, time.Since(t0).Seconds())
		tr.end(s)
	}
	lay.set("blas.ldlt_gflops", "Gflop/s", float64(nb)*float64(nb)*float64(nb)/3/median(ts)/1e9)
	rows := 4 * nb
	l, x := fill(nb*nb), fill(rows*nb)
	lay.set("blas.trsm_gflops", "Gflop/s", rate("blas.trsm", float64(rows)*float64(nb)*float64(nb),
		func() { blas.TrsmRightLTransUnit(rows, nb, l, nb, x, rows) }))
	return fixed
}

// medianUpdateShape returns the median (m, n, k) of the symbol's fan-in
// update GEMMs: for each off-diagonal block j of a column block of width k,
// the rows from j down (m) times j's rows (n).
func medianUpdateShape(sym *symbolic.Symbol) (int, int, int) {
	var ms, ns, ks []float64
	for _, cb := range sym.CB {
		below := cb.RowsBelow()
		for _, b := range cb.Blocks {
			ms = append(ms, float64(below))
			ns = append(ns, float64(b.Rows()))
			ks = append(ks, float64(cb.Width()))
			below -= b.Rows()
		}
	}
	if len(ms) == 0 {
		return 1, 1, 1
	}
	round := func(x []float64) int { return max(1, int(math.Round(lowerMedian(x)))) }
	return round(ms), round(ns), round(ks)
}

// lowerMedian is the median order statistic itself (no interpolation), so a
// shape is one that occurs.
func lowerMedian(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// replayStore opens a store on the backends' filesystem and appends the
// workload's own factor payloads, as a durable backend does before acking.
func replayStore(tr *tracer, lay *layerSet, dataRoot string, sample []*pastix.Matrix, factors []*pastix.Factor, op *int64) error {
	dir, err := os.MkdirTemp(dataRoot, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	var walMB []float64
	for rep := 0; rep < replayReps; rep++ {
		for i, m := range sample {
			p, err := factors[i].ExportPayload()
			if err != nil {
				return err
			}
			rec := &store.FactorRecord{
				Handle:      fmt.Sprintf("replay-%d-%d", rep, i),
				Fingerprint: pastix.PatternFingerprint(m),
				Matrix:      m,
				Payload:     p,
				Response:    []byte(`{"durable":true}`),
			}
			before := st.Stats().WALBytes
			*op++
			s := tr.begin("store.append", *op, 0, -1)
			err = st.AppendFactor(rec)
			tr.end(s)
			if err != nil {
				return err
			}
			walMB = append(walMB, float64(st.Stats().WALBytes-before)/1e6)
		}
	}
	lay.set("store.append_ms", "ms", median(tr.selfTimes()["store.append"]))
	lay.set("store.wal_mb_per_factorize", "MB", median(walMB))
	return nil
}

// replaySolveReps is how many timed solves of each kind replayService sends
// per factorized handle; the solve-side rows are medians over them.
const replaySolveReps = 5

// replayService sends the sample's requests once directly to one backend and
// once through the gateway; the differences give the service and gateway
// rows. Scraped counters cover everything the cluster has served.
func replayService(tr *tracer, lay *layerSet, sr *serveReplay, sample []*pastix.Matrix, seed int64, op *int64) error {
	cl := sr.cl
	direct, front := cl.backends[0].URL, cl.front.URL
	var overhead, batchWait, hop, fanout []float64
	variant := 0
	next := func(m *pastix.Matrix) *pastix.Matrix {
		if sr.fresh == nil {
			return m
		}
		variant++
		return sr.fresh(variant, m)
	}
	// solve posts one solve, checks its answer and returns its latency and
	// the engine time the server reports.
	solve := func(root int, span, url, handle string, a *pastix.Matrix, b []float64, nrhs int) (float64, float64, error) {
		body, err := solveBody(handle, b, nrhs)
		if err != nil {
			return 0, 0, err
		}
		s := tr.begin(span, *op, 0, root)
		st, out, dt, err := cl.post(url+"/v1/solve", body)
		tr.end(s)
		var sol solveReply
		if err := decodeReply(st, out, err, &sol); err != nil {
			return 0, 0, fmt.Errorf("replayed solve: %w", err)
		}
		return ms(dt), sol.SolveMS, checkSolution(a, sol.X, b, 1)
	}
	for rep := 0; rep < 2; rep++ {
		for _, m := range sample {
			*op++
			root := tr.begin("replay.service", *op, 0, -1)
			r := rngFor(seed, "replay-service", *op)
			var factorizeLat [2]time.Duration
			var solve1 [2][]float64 // options{nrhs:1} solve latency per side, ms
			for side, base := range []string{direct, front} {
				a := next(m)
				mm, err := matrixMarket(a)
				if err != nil {
					return err
				}
				body, err := factorizeBody(mm)
				if err != nil {
					return err
				}
				s := tr.begin("http.factorize", *op, 0, root)
				st, out, dt, err := cl.post(base+"/v1/factorize", body)
				tr.end(s)
				var fr factorizeReply
				if err := decodeReply(st, out, err, &fr); err != nil {
					return fmt.Errorf("replayed factorize: %w", err)
				}
				factorizeLat[side] = dt
				if side == 1 {
					lay.replicas = append(lay.replicas, fr.Replicas)
				}
				// Alternate the two solve paths so a slow spell of the host
				// falls on both.
				var batched []float64
				for k := 0; k < replaySolveReps; k++ {
					b := rhs(a, r)
					lat, engine, err := solve(root, "http.solve_direct_path", base, fr.Handle, a, b, 1)
					if err != nil {
						return err
					}
					solve1[side] = append(solve1[side], lat)
					if side == 1 {
						continue
					}
					overhead = append(overhead, lat-engine)
					lat, _, err = solve(root, "http.solve", base, fr.Handle, a, b, 0)
					if err != nil {
						return err
					}
					batched = append(batched, lat)
				}
				if side == 0 {
					batchWait = append(batchWait, median(batched)-median(solve1[0]))
				}
				rbody, err := releaseBody(fr.Handle)
				if err != nil {
					return err
				}
				s = tr.begin("http.release", *op, 0, root)
				st, out, _, err = cl.post(base+"/v1/release", rbody)
				tr.end(s)
				var rel map[string]any
				if err := decodeReply(st, out, err, &rel); err != nil {
					return fmt.Errorf("replayed release: %w", err)
				}
			}
			tr.end(root)
			hop = append(hop, median(solve1[1])-median(solve1[0]))
			fanout = append(fanout, float64(factorizeLat[1])/float64(factorizeLat[0]))
		}
	}
	lay.set("service.overhead_ms", "ms", median(overhead))
	lay.set("service.batch_wait_ms", "ms", median(batchWait))
	lay.set("gateway.hop_ms", "ms", median(hop))
	lay.set("gateway.factorize_fanout", "ratio", median(fanout))

	bm, err := cl.scrapeBackends()
	if err != nil {
		return err
	}
	if bm["pastix_batches_total"] > 0 {
		lay.set("service.batch_rhs_mean", "count", bm["pastix_batched_rhs_total"]/bm["pastix_batches_total"])
	} else {
		lay.set("service.batch_rhs_mean", "count", 0)
	}
	if look := bm["pastix_cache_hits_total"] + bm["pastix_cache_misses_total"]; look > 0 {
		lay.set("service.cache_hit_ratio", "ratio", bm["pastix_cache_hits_total"]/look)
	} else {
		lay.set("service.cache_hit_ratio", "ratio", 0)
	}
	lay.set("service.shed", "count", bm["pastix_shed_total"])
	gm, err := cl.scrape(front)
	if err != nil {
		return err
	}
	lay.set("gateway.retries", "count", gm["pastix_gateway_retries_total"])
	lay.set("gateway.failovers", "count", gm["pastix_gateway_failovers_total"])
	return nil
}
