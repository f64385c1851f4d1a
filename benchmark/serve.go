package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pastix-go/pastix"
	"github.com/pastix-go/pastix/internal/gen"
)

// localEdges is how many couplings serve-cold adds to a base pattern to make
// it a pattern no backend has seen.
const localEdges = 4

// serveCold is the serve-cold workload: every factorize is a pattern no
// backend has seen, so each one pays parsing, analysis, numeric
// factorization, journaling and R=2 replication.
type serveCold struct {
	cfg  config
	cl   *cluster
	fams []family
	info []matrixInfo
	ops  atomic.Int64

	mu   sync.Mutex
	seen map[string]bool // fingerprints sent this run
}

func setupServeCold(cfg config) (*serveCold, error) {
	fams, err := coldFamilies(cfg.sizes)
	if err != nil {
		return nil, err
	}
	cl, err := startCluster(cfg.dataRoot)
	if err != nil {
		return nil, err
	}
	if err := cl.waitRoutable(10 * time.Second); err != nil {
		cl.close()
		return nil, err
	}
	w := &serveCold{cfg: cfg, cl: cl, fams: fams, seen: map[string]bool{}}
	for _, f := range fams {
		w.info = append(w.info, f.info)
	}
	return w, nil
}

func (w *serveCold) clients() int           { return clientConns }
func (w *serveCold) matrices() []matrixInfo { return w.info }
func (w *serveCold) close()                 { w.cl.close() }

// pattern returns operation i's matrix: a base family chosen so that every
// block of three consecutive operations holds one of each family in a seeded
// order, with seeded local couplings that make the pattern new to this run.
func (w *serveCold) pattern(i int64) (*pastix.Matrix, family, *rand.Rand) {
	order := rngFor(w.cfg.seed, "cold-mix", i/3).Perm(len(w.fams))
	fam := w.fams[order[i%3]]
	for attempt := int64(0); ; attempt++ {
		r := rngFor(w.cfg.seed, fmt.Sprintf("cold-%d", attempt), i)
		a := withLocalEdges(fam.base, localEdges, r)
		fp := pastix.PatternFingerprint(a)
		w.mu.Lock()
		fresh := !w.seen[fp]
		w.seen[fp] = true
		w.mu.Unlock()
		if fresh {
			return a, fam, r
		}
	}
}

// coldPanelEvery is how often a serve-cold operation adds a panel solve: often
// enough for a panel-latency median, rarely enough that factorize dominates.
const coldPanelEvery = 4

// op is factorize of a never-seen pattern, one single-RHS solve (plus, every
// coldPanelEvery operations, one panel solve) and a release, all through the
// gateway.
func (w *serveCold) op(client int, o *outcome, tr *tracer) {
	op := startOp(o, tr, w.ops.Add(1), client)
	s := op.span("client.input")
	a, fam, r := w.pattern(op.id)
	body, err := factorizeRequest(a)
	op.end(s)
	if err != nil {
		op.finish(err)
		return
	}
	h, err := factorizeVia(w.cl, op, body, fam.info)
	if err != nil {
		op.finish(err)
		return
	}
	err = solveAndCheck(w.cl, op, h, a, fam.info.Name, r, 0)
	if err == nil && (op.id-1)%coldPanelEvery == 0 {
		err = solveAndCheck(w.cl, op, h, a, fam.info.Name, r, w.cfg.sizes.panelRHS)
	}
	if rerr := releaseVia(w.cl, op, h); err == nil {
		err = rerr
	}
	op.finish(err)
}

func (w *serveCold) replay(tr *tracer, lay *layerSet) error {
	var sample []*pastix.Matrix
	for i := range w.fams {
		r := rngFor(w.cfg.seed, "cold-replay", int64(i))
		sample = append(sample, withLocalEdges(w.fams[i].base, localEdges, r))
	}
	fresh := func(i int, a *pastix.Matrix) *pastix.Matrix {
		return withLocalEdges(a, localEdges, rngFor(w.cfg.seed, "cold-replay-fresh", int64(i)))
	}
	return replayLayers(w.cfg, tr, lay, sample, serveSolverOptions(), &serveReplay{cl: w.cl, fresh: fresh})
}

// slot is one resident handle of serve-mix, owned by one client.
type slot struct {
	base   *pastix.Matrix
	a      *pastix.Matrix // values the handle was factorized with
	handle string
	info   matrixInfo
}

// serveMix is the serve-mix workload: solves against resident handles with
// refactorizations (analysis-cache hits) beside them.
type serveMix struct {
	cfg   config
	cl    *cluster
	slots []*slot
	info  []matrixInfo
	ops   [clientConns]int64 // per-client operation counters
	opID  atomic.Int64
}

func setupServeMix(cfg config) (*serveMix, error) {
	e := cfg.sizes.mixPoisson
	poisson := gen.Laplacian3D(e, e, e)
	m, err := mt1(cfg.sizes.mixMT1Scale)
	if err != nil {
		return nil, err
	}
	bases := []*pastix.Matrix{poisson, m}
	names := []string{"poisson3d", "MT1"}
	w := &serveMix{cfg: cfg}
	for i, b := range bases {
		an, err := pastix.Analyze(b, serveSolverOptions())
		if err != nil {
			return nil, err
		}
		w.info = append(w.info, infoOf(names[i], b, an))
	}
	w.cl, err = startCluster(cfg.dataRoot)
	if err != nil {
		return nil, err
	}
	if err := w.cl.waitRoutable(10 * time.Second); err != nil {
		w.cl.close()
		return nil, err
	}
	// Client c owns slots 2c and 2c+1, one per pattern, so no client
	// releases a handle another is solving against.
	for k := 0; k < 2*clientConns; k++ {
		sl := &slot{base: bases[k%2], info: w.info[k%2]}
		sl.a = revalue(sl.base, rngFor(cfg.seed, "mix-slot", int64(k)))
		body, err := factorizeRequest(sl.a)
		var rep factorizeReply
		if err == nil {
			st, out, _, perr := w.cl.post(w.cl.front.URL+"/v1/factorize", body)
			err = decodeReply(st, out, perr, &rep)
		}
		if err != nil {
			w.cl.close()
			return nil, fmt.Errorf("prefactorize slot %d: %w", k, err)
		}
		sl.handle = rep.Handle
		w.slots = append(w.slots, sl)
	}
	return w, nil
}

func (w *serveMix) clients() int           { return clientConns }
func (w *serveMix) matrices() []matrixInfo { return w.info }
func (w *serveMix) close()                 { w.cl.close() }

// mixBlock is one client's block of serve-mix operations, run in a seeded
// order per block: on each of its two slots, 8 single-RHS solves (the
// batcher path), 1 panel solve and 1 refactorization. Exact proportions keep
// the mix the same in every run.
var mixBlock = func() []mixKind {
	var b []mixKind
	for sl := 0; sl < 2; sl++ {
		for i := 0; i < 8; i++ {
			b = append(b, mixKind{sl, 0})
		}
		b = append(b, mixKind{sl, 1}, mixKind{sl, 2})
	}
	return b
}()

// mixKind is one serve-mix operation: a client slot and a kind (0 solve, 1
// panel solve, 2 refactorize).
type mixKind struct{ slot, kind int }

// op runs the client's next operation of the mix. A refactorization sends
// the slot's pattern with new values, then releases the old handle.
func (w *serveMix) op(client int, o *outcome, tr *tracer) {
	j := w.ops[client]
	w.ops[client]++
	op := startOp(o, tr, w.opID.Add(1), client)
	order := rngFor(w.cfg.seed, fmt.Sprintf("mix-client-%d", client), j/int64(len(mixBlock))).Perm(len(mixBlock))
	mk := mixBlock[order[j%int64(len(mixBlock))]]
	sl := w.slots[2*client+mk.slot]
	r := rngFor(w.cfg.seed, fmt.Sprintf("mix-op-%d", client), j)
	switch mk.kind {
	case 0:
		op.finish(solveAndCheck(w.cl, op, sl.handle, sl.a, sl.info.Name, r, 0))
	case 1:
		op.finish(solveAndCheck(w.cl, op, sl.handle, sl.a, sl.info.Name, r, w.cfg.sizes.panelRHS))
	default:
		s := op.span("client.input")
		a := revalue(sl.base, r)
		body, err := factorizeRequest(a)
		op.end(s)
		if err != nil {
			op.finish(err)
			return
		}
		h, err := factorizeVia(w.cl, op, body, sl.info)
		if err != nil {
			op.finish(err)
			return
		}
		old := sl.handle
		sl.a, sl.handle = a, h
		op.finish(releaseVia(w.cl, op, old))
	}
}

func (w *serveMix) replay(tr *tracer, lay *layerSet) error {
	var sample []*pastix.Matrix
	for i, sl := range w.slots[:2] {
		sample = append(sample, revalue(sl.base, rngFor(w.cfg.seed, "mix-replay", int64(i))))
	}
	return replayLayers(w.cfg, tr, lay, sample, serveSolverOptions(), &serveReplay{cl: w.cl})
}

// factorizeVia posts a factorize through the gateway, records its
// client-side latency and replication, and returns the handle.
func factorizeVia(cl *cluster, op *opScope, body []byte, info matrixInfo) (string, error) {
	s := op.span("http.factorize")
	st, out, dt, err := cl.post(cl.front.URL+"/v1/factorize", body)
	op.end(s)
	var rep factorizeReply
	if err := decodeReply(st, out, err, &rep); err != nil {
		return "", fmt.Errorf("factorize: %w", err)
	}
	if rep.Handle == "" {
		return "", fmt.Errorf("factorize: reply without handle")
	}
	op.o.factorized(info.Name, dt, info.OPC, rep.Replicas)
	return rep.Handle, nil
}

// solveAndCheck posts one solve through the gateway — single-RHS on the
// batcher path when nrhs is 0, a panel of nrhs right-hand sides otherwise —
// records its latency and checks the answer after the timed call.
func solveAndCheck(cl *cluster, op *opScope, handle string, a *pastix.Matrix, name string, r *rand.Rand, nrhs int) error {
	s := op.span("client.input")
	cols := max(nrhs, 1)
	b := panelRHS(a, cols, r)
	body, err := solveBody(handle, b, nrhs)
	op.end(s)
	if err != nil {
		return err
	}
	span, kind := "http.solve", kindSolve
	if nrhs > 0 {
		span, kind = "http.panel_solve", kindPanel
	}
	s = op.span(span)
	st, out, dt, err := cl.post(cl.front.URL+"/v1/solve", body)
	op.end(s)
	s = op.span("client.oracle")
	defer op.end(s)
	var rep solveReply
	if err := decodeReply(st, out, err, &rep); err != nil {
		return fmt.Errorf("solve: %w", err)
	}
	op.o.record(kind, name, dt)
	return checkSolution(a, rep.X, b, cols)
}

func releaseVia(cl *cluster, op *opScope, handle string) error {
	body, err := releaseBody(handle)
	if err != nil {
		return err
	}
	s := op.span("http.release")
	st, out, _, err := cl.post(cl.front.URL+"/v1/release", body)
	op.end(s)
	var rep map[string]any
	if err := decodeReply(st, out, err, &rep); err != nil {
		return fmt.Errorf("release: %w", err)
	}
	return nil
}
