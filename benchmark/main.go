// Command benchmark is the repository's benchmark: three workloads — library
// refactorization of the MT1 analogue, cold-pattern serving and a
// solve/refactorize serving mix — each printing its end-to-end metrics, or,
// with --trace 1, the per-layer metrics of a traced run. See README.md.
//
//	bash benchmark/run.sh --workload serve-mix --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the result as one JSON object; the
// line before it is a detail object with provenance, sample counts and
// failure causes.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/pastix-go/pastix"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sizes    sizes
	dataRoot string // backends' data directories and the replay store
	traceOut string // Chrome trace-event JSON of the traced run ("" = none)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// A run sets its workload up at least minSetupReps times, and more while the
// timed set-ups total under setupBudget, up to maxSetupReps; setup_s is the
// median, and the last instance is the one measured. Cheap set-ups repeat
// more, so a short stall of the host moves their median less.
const (
	minSetupReps = 5
	maxSetupReps = 25
	setupBudget  = 2 * time.Second
)

// maxPrintedFailures bounds the failure causes printed to standard error;
// all of them are counted.
const maxPrintedFailures = 20

// instance is one set-up workload.
type instance interface {
	clients() int
	matrices() []matrixInfo
	// op runs one closed-loop operation for client and records it in o.
	op(client int, o *outcome, tr *tracer)
	// replay runs the traced run's per-layer replay.
	replay(tr *tracer, lay *layerSet) error
	close()
}

var workloads = map[string]func(config) (instance, error){
	"refactor-mt1": func(c config) (instance, error) { return setupRefactor(c) },
	"serve-cold":   func(c config) (instance, error) { return setupServeCold(c) },
	"serve-mix":    func(c config) (instance, error) { return setupServeMix(c) },
}

// Latency kinds an outcome records.
const (
	kindFactorize = iota
	kindSolve
	kindPanel
	numKinds
)

var kindNames = [numKinds]string{"factorize_ms", "solve_ms", "panel_solve_ms"}

// outcome accumulates one timed phase of closed-loop operations.
type outcome struct {
	mu        sync.Mutex
	attempted int
	failed    int
	causes    map[string]int
	lat       [numKinds][]float64  // client-side latencies, ms
	byMatrix  map[string][]float64 // "<kind>/<matrix>" → latencies, ms
	gflops    []float64            // per factorize: scalar OPC ÷ latency
	replicas  []int                // per factorize through the gateway

	wall        time.Duration
	alloc, peak uint64
}

func newOutcome() *outcome {
	return &outcome{causes: map[string]int{}, byMatrix: map[string][]float64{}}
}

// done records one finished operation; err non-nil counts it as failed.
func (o *outcome) done(err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if err == nil {
		return
	}
	o.failed++
	if o.failed <= maxPrintedFailures {
		fmt.Fprintf(os.Stderr, "benchmark: operation failed: %v\n", err)
	}
	if len(o.causes) < maxPrintedFailures {
		o.causes[err.Error()]++
	} else {
		o.causes["(further causes)"]++
	}
}

// record adds one client-side latency of the given kind on the named matrix.
func (o *outcome) record(kind int, matrix string, d time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.lat[kind] = append(o.lat[kind], ms(d))
	key := kindNames[kind] + "/" + matrix
	o.byMatrix[key] = append(o.byMatrix[key], ms(d))
}

// factorized records one factorize: its latency, its rate on the matrix's
// scalar OPC, and the replication the gateway reported (0: no gateway).
func (o *outcome) factorized(matrix string, d time.Duration, opc float64, replicas int) {
	o.record(kindFactorize, matrix, d)
	o.mu.Lock()
	defer o.mu.Unlock()
	o.gflops = append(o.gflops, opc/d.Seconds()/1e9)
	if replicas > 0 {
		o.replicas = append(o.replicas, replicas)
	}
}

// opScope is one closed-loop operation: where it records and its root span.
type opScope struct {
	o      *outcome
	tr     *tracer
	id     int64
	client int
	root   int
}

func startOp(o *outcome, tr *tracer, id int64, client int) *opScope {
	return &opScope{o: o, tr: tr, id: id, client: client, root: tr.begin("op", id, client, -1)}
}

// span opens a child span of the operation.
func (s *opScope) span(name string) int { return s.tr.begin(name, s.id, s.client, s.root) }
func (s *opScope) end(id int)           { s.tr.end(id) }

// finish closes the operation's root span and records its outcome.
func (s *opScope) finish(err error) {
	s.tr.end(s.root)
	s.o.done(err)
}

func (o *outcome) opsPerSecond() float64 {
	return float64(o.attempted-o.failed) / o.wall.Seconds()
}

// measure runs the instance's clients in a closed loop for d and returns
// what they did, with the process's allocation and peak heap over the phase.
func measure(inst instance, d time.Duration, tr *tracer) *outcome {
	o := newOutcome()
	mw := startMemWatch()
	t0 := time.Now()
	deadline := t0.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < inst.clients(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				inst.op(c, o, tr)
			}
		}(c)
	}
	wg.Wait()
	o.wall = time.Since(t0)
	o.alloc, o.peak = mw.finish()
	return o
}

// matrixInfo is the provenance of one workload matrix.
type matrixInfo struct {
	Name string  `json:"name"`
	N    int     `json:"n"`
	NNZA int     `json:"nnz_a"`
	NNZL int64   `json:"nnz_l"`
	OPC  float64 `json:"opc"`
}

func infoOf(name string, a *pastix.Matrix, an *pastix.Analysis) matrixInfo {
	st := an.Stats()
	return matrixInfo{Name: name, N: a.N, NNZA: a.NNZ(), NNZL: st.ScalarNNZL, OPC: st.ScalarOPC}
}

// checkSolution is the oracle: x must be an n×nrhs panel whose every column
// solves a against the matching column of b to backward error ≤ refineTol,
// as pastix.Residual measures it.
func checkSolution(a *pastix.Matrix, x, b []float64, nrhs int) error {
	n := a.N
	if len(x) != n*nrhs || len(b) != n*nrhs {
		return fmt.Errorf("oracle: solution length %d, want %d×%d", len(x), n, nrhs)
	}
	for c := 0; c < nrhs; c++ {
		res := pastix.Residual(a, x[c*n:(c+1)*n], b[c*n:(c+1)*n])
		if !(res <= refineTol) {
			return fmt.Errorf("oracle: column %d backward error %.3g > %g", c, res, refineTol)
		}
	}
	return nil
}

// detail is printed before the result: everything needed to read it.
type detail struct {
	Workload   string               `json:"workload"`
	Seed       int64                `json:"seed"`
	Trace      bool                 `json:"trace"`
	CPUs       int                  `json:"cpus"`
	GOMAXPROCS int                  `json:"gomaxprocs"`
	GoVersion  string               `json:"go_version"`
	DataDirFS  string               `json:"data_dir_fs"`
	Matrices   []matrixInfo         `json:"matrices"`
	Backend    any                  `json:"backend_config,omitempty"`
	SetupS     []float64            `json:"setup_s"`
	Samples    map[string]int       `json:"samples"`
	PerMatrix  map[string]perMatrix `json:"per_matrix,omitempty"`
	Failures   map[string]int       `json:"failures,omitempty"`
	Replicas   map[string]int       `json:"replicas,omitempty"`
	Mismatch   []string             `json:"counter_mismatches,omitempty"`
	TraceFile  string               `json:"trace_file,omitempty"`
}

// perMatrix is one matrix's share of a latency kind.
type perMatrix struct {
	Samples int     `json:"samples"`
	P50     float64 `json:"p50_ms"`
	P90     float64 `json:"p90_ms"`
	P95     float64 `json:"p95_ms,omitempty"`
	P99     float64 `json:"p99_ms"`
}

func run(cfg config) (*result, *detail, error) {
	setupFn, ok := workloads[cfg.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	det := &detail{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		DataDirFS: fsType(cfg.dataRoot), Samples: map[string]int{},
	}
	if cfg.workload != "refactor-mt1" {
		det.Backend = backendConfig("<temp dir>")
	}
	// The first set-up is untimed: it pays the fresh process's page faults
	// and heap growth, which vary with the host more than the set-up itself.
	var inst instance
	var spent time.Duration
	for r := 0; ; r++ {
		t0 := time.Now()
		in, err := setupFn(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		if r > 0 {
			d := time.Since(t0)
			spent += d
			det.SetupS = append(det.SetupS, d.Seconds())
		}
		if r >= minSetupReps && (spent >= setupBudget || r >= maxSetupReps) {
			inst = in
			break
		}
		in.close()
	}
	defer inst.close()
	det.Matrices = inst.matrices()
	d := time.Duration(cfg.seconds * float64(time.Second))
	res := &result{Metrics: map[string]metric{}}

	if !cfg.trace {
		o := measure(inst, d, nil)
		res.Attempted, res.Failed = o.attempted, o.failed
		res.Correct = o.failed == 0
		endToEnd(res.Metrics, o, det.SetupS)
		det.Failures = o.causes
		det.Replicas = replication(o.replicas)
		det.Samples = map[string]int{"setup_s": len(det.SetupS)}
		for k, name := range kindNames {
			det.Samples[name] = len(o.lat[k])
		}
		det.PerMatrix = map[string]perMatrix{}
		for k, name := range kindNames {
			xs := o.lat[k]
			det.PerMatrix[name+"/pooled"] = perMatrix{Samples: len(xs), P50: median(xs), P90: quantile(xs, 0.9), P95: quantile(xs, 0.95), P99: quantile(xs, 0.99)}
		}
		for key, xs := range o.byMatrix {
			det.PerMatrix[key] = perMatrix{Samples: len(xs), P50: median(xs), P90: quantile(xs, 0.9), P99: quantile(xs, 0.99)}
		}
		return res, det, nil
	}

	// Traced run: an untraced and a traced closed loop of a third of the
	// run each (their throughput ratio is the tracing overhead), then the
	// per-layer replay.
	plain := measure(inst, d/3, nil)
	tr := newTracer()
	traced := measure(inst, d/3, tr)
	lay := newLayerSet()
	if err := inst.replay(tr, lay); err != nil {
		return nil, nil, fmt.Errorf("layer replay: %w", err)
	}
	lay.set("trace.overhead_ratio", "ratio", plain.opsPerSecond()/traced.opsPerSecond())
	lay.set("trace.unexplained_ratio", "ratio", tr.unexplained("op"))
	reps := append(append(append([]int(nil), plain.replicas...), traced.replicas...), lay.replicas...)
	det.Replicas = replication(reps)
	lay.set("gateway.replicas_min", "count", float64(det.Replicas["min"]))
	lay.set("gateway.under_replicated", "count", float64(det.Replicas["under_replicated"]))
	res.Metrics = lay.values
	res.Attempted = plain.attempted + traced.attempted
	res.Failed = plain.failed + traced.failed
	det.Mismatch = lay.mismatch
	res.Correct = res.Failed == 0 && len(lay.mismatch) == 0
	for _, c := range lay.mismatch {
		fmt.Fprintf(os.Stderr, "benchmark: deterministic counter changed within the run: %s\n", c)
	}
	det.Failures = plain.causes
	for k, v := range traced.causes {
		det.Failures[k] += v
	}
	det.Samples = map[string]int{"untraced_ops": plain.attempted, "traced_ops": traced.attempted, "spans": len(tr.spans)}
	if cfg.traceOut != "" {
		if err := os.MkdirAll(filepath.Dir(cfg.traceOut), 0o755); err != nil {
			return nil, nil, err
		}
		if err := tr.writeChrome(cfg.traceOut); err != nil {
			return nil, nil, fmt.Errorf("writing trace: %w", err)
		}
		det.TraceFile = cfg.traceOut
	}
	return res, det, nil
}

// replication summarises the replicas of every factorize the gateway
// acknowledged: the minimum and how many had fewer than R=2.
func replication(reps []int) map[string]int {
	out := map[string]int{"factorizes": len(reps), "min": 2, "under_replicated": 0}
	for _, r := range reps {
		out["min"] = min(out["min"], r)
		if r < 2 {
			out["under_replicated"]++
		}
	}
	return out
}

// median is the median of one latency kind taken per matrix and averaged
// over the workload's matrices with equal weight. The matrices' latencies
// form separate modes, and the median of the pooled samples can fall between
// two modes, where it jumps with small changes in either.
func (o *outcome) median(kind int) float64 {
	prefix := kindNames[kind] + "/"
	sum, n := 0.0, 0
	for key, xs := range o.byMatrix {
		if strings.HasPrefix(key, prefix) {
			sum += median(xs)
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// endToEnd fills the end-to-end metrics of an untraced run.
func endToEnd(m map[string]metric, o *outcome, setups []float64) {
	put := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	put("setup_s", "s", median(setups))
	put("ops_per_s", "op/s", o.opsPerSecond())
	put("ok_ratio", "ratio", float64(o.attempted-o.failed)/float64(max(o.attempted, 1)))
	put("factorize_ms_p50", "ms", o.median(kindFactorize))
	put("solve_ms_p50", "ms", o.median(kindSolve))
	put("panel_solve_ms_p50", "ms", o.median(kindPanel))
	put("factor_gflops", "Gflop/s", median(o.gflops))
	put("alloc_mb_per_op", "MB/op", float64(o.alloc)/1e6/float64(max(o.attempted, 1)))
	put("peak_heap_mb", "MB", float64(o.peak)/1e6)
}

func main() {
	workload := flag.String("workload", "", "refactor-mt1, serve-cold or serve-mix")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "measured seconds of the closed loop")
	traceFlag := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	dataRoot := flag.String("data", filepath.Join(".bench_build", "data"), "directory for the backends' data and the replay store")
	traceOut := flag.String("trace-out", "", "Chrome trace-event JSON of a traced run (default .bench_build/traces/<workload>-seed<seed>.json)")
	flag.Parse()
	if *traceOut == "" {
		*traceOut = filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", *workload, *seed))
	}
	if err := mainErr(*workload, *seed, *seconds, *traceFlag == 1, *dataRoot, *traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed int64, seconds float64, traced bool, dataBase, traceOut string) error {
	if seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	dataRoot, err := makeDataRoot(dataBase)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dataRoot)
	cfg := config{workload: workload, seed: seed, seconds: seconds, trace: traced, sizes: fullSizes, dataRoot: dataRoot}
	if traced {
		cfg.traceOut = traceOut
	}
	res, det, err := run(cfg)
	if err != nil {
		return err
	}
	if err := checkFinite(res.Metrics); err != nil {
		return err
	}
	dj, err := json.Marshal(map[string]any{"detail": det})
	if err != nil {
		return err
	}
	rj, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(dj))
	fmt.Println(string(rj))
	return nil
}

// checkFinite refuses to print a result holding NaN or ±Inf, which JSON
// cannot carry.
func checkFinite(m map[string]metric) error {
	var bad []string
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			bad = append(bad, k)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("metrics without a finite value: %v", bad)
	}
	return nil
}
