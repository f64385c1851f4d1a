package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/pastix-go/pastix"
)

// refactorOptions is the library configuration of refactor-mt1: two virtual
// processors (the host has two cores), default runtime.
func refactorOptions() pastix.Options { return pastix.Options{Processors: 2} }

// refactor is the refactor-mt1 workload: one in-process caller refactorizing
// the MT1 analogue with new values and solving, with no parsing, ordering,
// HTTP or journaling on the timed path.
type refactor struct {
	cfg  config
	a    *pastix.Matrix
	an   *pastix.Analysis
	info matrixInfo
	ops  atomic.Int64
}

func setupRefactor(cfg config) (*refactor, error) {
	a, err := mt1(cfg.sizes.mt1Scale)
	if err != nil {
		return nil, err
	}
	an, err := pastix.Analyze(a, refactorOptions())
	if err != nil {
		return nil, err
	}
	return &refactor{cfg: cfg, a: a, an: an, info: infoOf("MT1", a, an)}, nil
}

func (w *refactor) clients() int           { return 1 }
func (w *refactor) matrices() []matrixInfo { return []matrixInfo{w.info} }
func (w *refactor) close()                 {}

// refactorPanelEvery is how often a refactor-mt1 operation adds a 16-RHS
// panel solve.
const refactorPanelEvery = 2

// op is one refactorization: new values on the fixed pattern,
// FactorizeValues, PrepareSolve, a single-RHS solve refined to the 1e-10
// backward-error target (plus, every refactorPanelEvery operations, one panel
// solve). The oracle runs after the timed calls.
func (w *refactor) op(client int, o *outcome, tr *tracer) {
	op := startOp(o, tr, w.ops.Add(1), client)
	ctx := context.Background()

	s := op.span("client.input")
	r := rngFor(w.cfg.seed, "refactor", op.id)
	a := revalue(w.a, r)
	b := rhs(a, r)
	withPanel := (op.id-1)%refactorPanelEvery == 0
	var panel []float64
	if withPanel {
		panel = panelRHS(a, w.cfg.sizes.panelRHS, r)
	}
	op.end(s)

	s = op.span("lib.factorize")
	t0 := time.Now()
	f, err := w.an.FactorizeValues(ctx, a)
	dt := time.Since(t0)
	op.end(s)
	if err != nil {
		op.finish(fmt.Errorf("FactorizeValues: %w", err))
		return
	}
	o.factorized(w.info.Name, dt, w.info.OPC, 0)

	// Warm the solve path as pastix-serve does after every factorize, so the
	// timed solve does not pay the panel-packing cost.
	s = op.span("lib.prepare_solve")
	_, err = w.an.PrepareSolve(f)
	op.end(s)
	if err != nil {
		op.finish(fmt.Errorf("PrepareSolve: %w", err))
		return
	}

	s = op.span("lib.solve")
	t0 = time.Now()
	res, err := w.an.SolveOpts(ctx, f, b, pastix.SolveOptions{Refine: &pastix.RefineOptions{Tol: refineTol}})
	dt = time.Since(t0)
	op.end(s)
	if err != nil {
		op.finish(fmt.Errorf("SolveOpts: %w", err))
		return
	}
	o.record(kindSolve, w.info.Name, dt)

	var px []float64
	if withPanel {
		s = op.span("lib.panel_solve")
		t0 = time.Now()
		pres, err := w.an.SolveOpts(ctx, f, panel, pastix.SolveOptions{NRHS: w.cfg.sizes.panelRHS})
		dt = time.Since(t0)
		op.end(s)
		if err != nil {
			op.finish(fmt.Errorf("SolveOpts panel: %w", err))
			return
		}
		o.record(kindPanel, w.info.Name, dt)
		px = pres.X
	}

	s = op.span("client.oracle")
	err = checkSolution(a, res.X, b, 1)
	if err == nil && withPanel {
		err = checkSolution(a, px, panel, w.cfg.sizes.panelRHS)
	}
	op.end(s)
	op.finish(err)
}

// replay runs the traced run's layer replay on this workload's own input: the
// MT1 analogue with one seeded set of new values. The workload has no
// server, so the service and gateway rows come from a cluster started for
// the replay, fed never-seen variants of the MT1 pattern.
func (w *refactor) replay(tr *tracer, lay *layerSet) error {
	a := revalue(w.a, rngFor(w.cfg.seed, "refactor-replay", 0))
	cl, err := startCluster(w.cfg.dataRoot)
	if err != nil {
		return err
	}
	defer cl.close()
	if err := cl.waitRoutable(10 * time.Second); err != nil {
		return err
	}
	fresh := func(i int, m *pastix.Matrix) *pastix.Matrix {
		return withLocalEdges(m, localEdges, rngFor(w.cfg.seed, "refactor-replay-fresh", int64(i)))
	}
	return replayLayers(w.cfg, tr, lay, []*pastix.Matrix{a}, refactorOptions(), &serveReplay{cl: cl, fresh: fresh})
}
