package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/pastix-go/pastix"
	"github.com/pastix-go/pastix/internal/gateway"
	"github.com/pastix-go/pastix/internal/service"
)

// clientConns is the most connections the load generator opens to any one
// server: one per closed-loop client.
const clientConns = 2

// serveSolverOptions is the solver configuration pastix-serve builds from its
// flag defaults: -procs 4, -runtime auto, no static pivoting, the default
// refinement tolerance.
func serveSolverOptions() pastix.Options {
	return pastix.Options{Processors: 4, Runtime: pastix.RuntimeAuto}
}

// backendConfig is the service.Config pastix-serve builds from its flag
// defaults (every other field zero, so service defaults apply), plus a data
// directory, which makes the backend durable.
func backendConfig(dataDir string) service.Config {
	return service.Config{Solver: serveSolverOptions(), DataDir: dataDir}
}

// cluster is the serving topology of the serve-* workloads, in process and
// on loopback HTTP: one pastix-gateway (R=2, pastix-gateway's flag defaults)
// in front of two durable pastix-serve backends.
type cluster struct {
	servers  []*service.Server
	backends []*httptest.Server
	gw       *gateway.Gateway
	front    *httptest.Server
	dirs     []string
	hc       *http.Client
}

func startCluster(dataRoot string) (c *cluster, err error) {
	c = &cluster{}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	var urls []string
	for i := 0; i < 2; i++ {
		dir, err := os.MkdirTemp(dataRoot, "backend-")
		if err != nil {
			return nil, err
		}
		c.dirs = append(c.dirs, dir)
		s, err := service.New(backendConfig(dir))
		if err != nil {
			return nil, fmt.Errorf("backend %d: %w", i, err)
		}
		c.servers = append(c.servers, s)
		hs := httptest.NewServer(s.Handler())
		c.backends = append(c.backends, hs)
		urls = append(urls, hs.URL)
	}
	c.gw, err = gateway.New(gateway.Config{Backends: urls})
	if err != nil {
		return nil, err
	}
	c.front = httptest.NewServer(c.gw.Handler())
	c.hc = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: clientConns, MaxIdleConnsPerHost: clientConns},
		Timeout:   2 * time.Minute,
	}
	return c, nil
}

// waitRoutable polls the gateway's /healthz until it reports every backend
// routable. A factorize sent before that replicates to fewer than R
// backends, so set-up waits here before any timed request.
func (c *cluster) waitRoutable(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := c.hc.Get(c.front.URL + "/healthz")
		if err == nil {
			var h struct {
				Backends []struct {
					Routable bool `json:"routable"`
				} `json:"backends"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			routable := 0
			for _, b := range h.Backends {
				if b.Routable {
					routable++
				}
			}
			if derr == nil && routable == len(c.backends) {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gateway did not see %d routable backends within %v", len(c.backends), timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops every server and removes the data directories.
func (c *cluster) close() {
	if c.hc != nil {
		c.hc.CloseIdleConnections()
	}
	if c.front != nil {
		c.front.Close()
	}
	if c.gw != nil {
		c.gw.Close()
	}
	for _, hs := range c.backends {
		hs.Close()
	}
	for _, s := range c.servers {
		s.Close()
	}
	for _, d := range c.dirs {
		os.RemoveAll(d)
	}
}

// post sends an encoded JSON body and returns the status, the response body
// and the latency from sending to reading the last response byte.
func (c *cluster) post(url string, body []byte) (int, []byte, time.Duration, error) {
	t0 := time.Now()
	resp, err := c.hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, out, time.Since(t0), err
}

// scrape reads a Prometheus text exposition into name → value, summing
// series that differ only in labels.
func (c *cluster) scrape(base string) (map[string]float64, error) {
	resp, err := c.hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}

// scrapeBackends sums the backends' /metrics.
func (c *cluster) scrapeBackends() (map[string]float64, error) {
	sum := map[string]float64{}
	for _, hs := range c.backends {
		m, err := c.scrape(hs.URL)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}

// --- request and response bodies (PROTOCOL.md) ---

type factorizeReply struct {
	Handle      string  `json:"handle"`
	FactorizeMS float64 `json:"factorize_ms"`
	Replicas    int     `json:"replicas"`
	Cached      bool    `json:"analysis_cached"`
}

type solveReply struct {
	X       []float64 `json:"x"`
	SolveMS float64   `json:"solve_ms"`
}

func factorizeBody(mm string) ([]byte, error) {
	return json.Marshal(map[string]any{"matrix_market": mm})
}

// factorizeRequest encodes a as a factorize body.
func factorizeRequest(a *pastix.Matrix) ([]byte, error) {
	mm, err := matrixMarket(a)
	if err != nil {
		return nil, err
	}
	return factorizeBody(mm)
}

// solveBody encodes a solve; nrhs 0 sends a plain single-RHS request (the
// batcher path), nrhs ≥ 1 sends options.nrhs (the direct path).
func solveBody(handle string, b []float64, nrhs int) ([]byte, error) {
	req := map[string]any{"handle": handle, "b": b}
	if nrhs > 0 {
		req["options"] = map[string]any{"nrhs": nrhs}
	}
	return json.Marshal(req)
}

func releaseBody(handle string) ([]byte, error) {
	return json.Marshal(map[string]any{"handle": handle})
}

// decodeReply checks the status and decodes a 200 body into out.
func decodeReply(status int, body []byte, err error, out any) error {
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", status, strings.TrimSpace(string(body)))
	}
	return json.Unmarshal(body, out)
}

// makeDataRoot creates the directory that holds the backends' data
// directories for one run, inside the working directory.
func makeDataRoot(base string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, fmt.Sprintf("run-%d-", os.Getpid()))
}
