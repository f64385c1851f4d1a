// Package serve benchmarks the HTTP serving tier end to end: the HA gateway
// under concurrent clients with backend kills, and the durable store's
// factorize ack latency. It lives apart from internal/bench because it
// exercises the public pastix API (which the root package's own benchmarks
// would cycle on).
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pastix-go/pastix"
	"github.com/pastix-go/pastix/internal/gateway"
	"github.com/pastix-go/pastix/internal/gateway/chaos"
	"github.com/pastix-go/pastix/internal/gateway/client"
	"github.com/pastix-go/pastix/internal/gen"
	"github.com/pastix-go/pastix/internal/service"
)

// GatewayLoadRow is one point of the HA-gateway failover load test:
// concurrent clients solving one replicated factor through the gateway while
// zero or one backend is killed (and later restarted) mid-load.
type GatewayLoadRow struct {
	Clients   int     `json:"clients"`
	Kills     int     `json:"kills"`
	Requests  int     `json:"requests"`
	Accepted  int     `json:"accepted"` // 200s; with R>=2 and one kill this must equal Requests
	Mismatch  int     `json:"mismatch"` // accepted solves whose bits differ from the fault-free run
	QPS       float64 `json:"qps"`
	P50MS     float64 `json:"p50_ms"`
	P99MS     float64 `json:"p99_ms"`
	MeanMS    float64 `json:"mean_ms"`
	Failovers int64   `json:"failovers"`
	Retries   int64   `json:"retries"`
}

// GatewayReport is the emitted BENCH_gateway_failover.json artifact.
type GatewayReport struct {
	CPUs       int              `json:"cpus"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Grid       int              `json:"grid"`
	Procs      int              `json:"p"`
	Nodes      int              `json:"nodes"`
	Replicas   int              `json:"replicas"`
	Load       []GatewayLoadRow `json:"load_rows"`
	Note       string           `json:"note,omitempty"`
}

// GatewayTest measures serving throughput and tail latency through the HA
// gateway at each client count, first fault-free and then with one node
// killed a quarter of the way through the load and restarted (empty) at the
// halfway mark — the node-kill failover cost in QPS and p99. Every accepted
// solve is checked bitwise against a fault-free single-node reference.
func GatewayTest(grid, procs, nodes, requests int, clientCounts []int) (*GatewayReport, error) {
	rp := &GatewayReport{
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Grid:       grid,
		Procs:      procs,
		Nodes:      nodes,
		Replicas:   2,
	}
	if rp.CPUs < procs+2 {
		rp.Note = fmt.Sprintf("only %d CPUs for %d solver workers plus gateway and clients: rows measure time-sharing", rp.CPUs, procs)
	}

	a := gen.Laplacian3D(grid, grid, grid)
	var mm strings.Builder
	if err := pastix.WriteMatrixMarket(&mm, a, "gateway bench"); err != nil {
		return nil, err
	}
	an, err := pastix.Analyze(a, pastix.Options{Processors: procs})
	if err != nil {
		return nil, err
	}
	f, err := an.Factorize()
	if err != nil {
		return nil, err
	}
	_, b := gen.RHSForSolution(a)
	res, err := an.SolveOpts(context.Background(), f, b, pastix.SolveOptions{})
	if err != nil {
		return nil, err
	}
	want := res.X

	for _, kills := range []int{0, 1} {
		for _, clients := range clientCounts {
			row, err := gatewayLoadPoint(mm.String(), b, want, procs, nodes, requests, clients, kills)
			if err != nil {
				return nil, fmt.Errorf("clients=%d kills=%d: %w", clients, kills, err)
			}
			rp.Load = append(rp.Load, *row)
		}
	}
	return rp, nil
}

func gatewayLoadPoint(mm string, b, want []float64, procs, nodes, requests, clients, kills int) (*GatewayLoadRow, error) {
	cl, err := chaos.NewCluster(nodes, service.Config{
		Solver:     pastix.Options{Processors: procs},
		QueueDepth: 4096,
		Workers:    8,
	})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	g, err := gateway.New(gateway.Config{
		Backends:      cl.URLs(),
		Replicas:      2,
		ProbeInterval: 25 * time.Millisecond,
		Retry:         client.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond, Seed: 1},
		Seed:          1,
	})
	if err != nil {
		return nil, err
	}
	defer g.Close()
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	var fr struct {
		Handle  string `json:"handle"`
		Primary int    `json:"primary_backend"`
	}
	if err := postServe(ts.URL+"/v1/factorize", map[string]any{"matrix_market": mm}, &fr); err != nil {
		return nil, fmt.Errorf("factorize: %w", err)
	}

	perClient := requests / clients
	if perClient < 1 {
		perClient = 1
	}
	total := perClient * clients
	lat := make([]float64, total)
	status := make([]int, total)
	mismatch := make([]bool, total)
	var completed atomic.Int64

	// The kill lands a quarter of the way through the load on the factorize
	// primary; the node comes back — empty — at the halfway mark, so the
	// tail also pays stale-handle rediscovery.
	killerDone := make(chan struct{})
	if kills > 0 {
		go func() {
			defer close(killerDone)
			victim := cl.Nodes[fr.Primary]
			for completed.Load() < int64(total/4) {
				time.Sleep(2 * time.Millisecond)
			}
			victim.Kill()
			for completed.Load() < int64(total/2) {
				time.Sleep(2 * time.Millisecond)
			}
			_ = victim.Restart()
		}()
	} else {
		close(killerDone)
	}

	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			body := map[string]any{"handle": fr.Handle, "b": b}
			for i := 0; i < perClient; i++ {
				idx := c*perClient + i
				tr := time.Now()
				st, x := postSolve(ts.URL+"/v1/solve", body)
				lat[idx] = float64(time.Since(tr)) / float64(time.Millisecond)
				status[idx] = st
				if st == http.StatusOK {
					if len(x) != len(want) {
						mismatch[idx] = true
					} else {
						for j := range x {
							if x[j] != want[j] {
								mismatch[idx] = true
								break
							}
						}
					}
				}
				completed.Add(1)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(t0).Seconds()
	<-killerDone

	row := &GatewayLoadRow{Clients: clients, Kills: kills, Requests: total}
	var okLat []float64
	for i := range status {
		if status[i] == http.StatusOK {
			row.Accepted++
			okLat = append(okLat, lat[i])
			if mismatch[i] {
				row.Mismatch++
			}
		}
	}
	if row.Accepted == 0 {
		return nil, fmt.Errorf("no solve accepted")
	}
	sort.Float64s(okLat)
	mean := 0.0
	for _, l := range okLat {
		mean += l
	}
	st := g.Stats()
	row.QPS = float64(row.Accepted) / wall
	row.P50MS = okLat[len(okLat)/2]
	row.P99MS = okLat[(len(okLat)*99)/100]
	row.MeanMS = mean / float64(len(okLat))
	row.Failovers = st.Failovers
	row.Retries = st.Retries
	return row, nil
}

// postSolve posts a solve and returns (status, x); transport errors come
// back as status 0.
func postSolve(url string, body map[string]any) (int, []float64) {
	var resp struct {
		X []float64 `json:"x"`
	}
	if err := postServe(url, body, &resp); err != nil {
		return 0, nil
	}
	return http.StatusOK, resp.X
}

// FormatGatewayReport renders the report as an aligned text table.
func FormatGatewayReport(rp *GatewayReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "nodes=%d replicas=%d grid=%d p=%d\n", rp.Nodes, rp.Replicas, rp.Grid, rp.Procs)
	sb.WriteString("clients  kills  requests  accepted  mismatch      QPS   p50 (ms)   p99 (ms)  failovers\n")
	for _, r := range rp.Load {
		fmt.Fprintf(&sb, "%7d %6d %9d %9d %9d %8.1f %10.3f %10.3f %10d\n",
			r.Clients, r.Kills, r.Requests, r.Accepted, r.Mismatch, r.QPS, r.P50MS, r.P99MS, r.Failovers)
	}
	return sb.String()
}

// MarshalPretty renders the report as indented JSON ready to write to the
// BENCH_gateway_failover.json artifact.
func (rp *GatewayReport) MarshalPretty() ([]byte, error) {
	data, err := json.MarshalIndent(rp, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// postServe posts body as JSON and decodes the response, failing on any
// non-200 status.
func postServe(url string, body, into any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var eb bytes.Buffer
		_, _ = eb.ReadFrom(resp.Body)
		return fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, eb.String())
	}
	return json.NewDecoder(resp.Body).Decode(into)
}
