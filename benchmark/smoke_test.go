package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// maxUnexplained bounds trace.unexplained_ratio: the share of an operation's
// wall time that no child span covers.
const maxUnexplained = 0.05

// benchmarkSpec is the part of the repository's BENCHMARK.json this test
// checks the output against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload at tiny sizes, untraced and traced, and
// checks that each metric BENCHMARK.json names is emitted with its unit and
// a finite value, that every operation passed the oracle and that spans
// account for the traced operations' wall time.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			name := w.Name + "/untraced"
			want := spec.EndToEnd
			if traced {
				name, want = w.Name+"/traced", spec.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				cfg := config{
					workload: w.Name, seed: 7, seconds: 0.6, trace: traced,
					sizes: tinySizes, dataRoot: dir, traceOut: filepath.Join(dir, "trace.json"),
				}
				res, det, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v %v",
						res.Correct, res.Attempted, res.Failed, det.Failures, det.Mismatch)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s = %v", m.Name, got.Value)
					}
				}
				if !traced {
					return
				}
				if u := res.Metrics["trace.unexplained_ratio"].Value; u > maxUnexplained {
					t.Errorf("trace.unexplained_ratio %.3f > %.2f", u, maxUnexplained)
				}
				tj, err := os.ReadFile(cfg.traceOut)
				if err != nil {
					t.Fatal(err)
				}
				var chrome struct {
					TraceEvents []map[string]any `json:"traceEvents"`
				}
				if err := json.Unmarshal(tj, &chrome); err != nil || len(chrome.TraceEvents) == 0 {
					t.Errorf("trace file: %d events, err %v", len(chrome.TraceEvents), err)
				}
			})
		}
	}
}
