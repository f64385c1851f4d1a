// Command pastix-bench regenerates the paper's evaluation section:
//
//	pastix-bench -table1              # Table 1: problems and ordering metrics
//	pastix-bench -table2              # Table 2: time/Gflops, PaStiX vs PSPASES
//	pastix-bench -dense               # §3 dense LLᵀ vs LDLᵀ kernel comparison
//	pastix-bench -ablate              # §2 scheduling/distribution ablations
//	pastix-bench -sharedcmp           # shared-memory vs mpsim runtime, executed
//	pastix-bench -all -scale 0.25     # everything, at a chosen problem scale
//
// Times in Table 2 are modelled on the IBM SP2 (Power2SC) machine profile —
// the paper's testbed — so 64-processor runs are reproducible on any host;
// see EXPERIMENTS.md for how they compare with the published numbers.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"

	"github.com/pastix-go/pastix"
	"github.com/pastix-go/pastix/internal/bench"
	servebench "github.com/pastix-go/pastix/internal/bench/serve"
	"github.com/pastix-go/pastix/internal/gen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pastix-bench: ")
	var (
		table1 = flag.Bool("table1", false, "regenerate Table 1")
		table2 = flag.Bool("table2", false, "regenerate Table 2")
		dense  = flag.Bool("dense", false, "dense kernel comparison (§3)")
		ablate = flag.Bool("ablate", false, "scheduling ablations (§2)")
		plot   = flag.String("plot", "", "render the Table 2 speedup curves of one problem (e.g. -plot B5TUER)")
		bsweep = flag.String("blocksweep", "", "sweep the blocking size for one problem (e.g. -blocksweep BMWCRA1)")
		all    = flag.Bool("all", false, "run everything")
		scale  = flag.Float64("scale", bench.DefaultScale, "problem scale (1.0 ≈ 1/8 of the paper's DOF)")
		procsF = flag.String("procs", "1,2,4,8,16,32,64", "processor counts for Table 2")
		denseN = flag.Int("densen", 512, "dense kernel order (paper used 1024)")

		sharedCmp  = flag.Bool("sharedcmp", false, "compare shared-memory vs message-passing runtime (executed, 3D Poisson)")
		sharedGrid = flag.Int("sharedgrid", 14, "Poisson grid edge for -sharedcmp (n³ unknowns)")
		sharedReps = flag.Int("sharedreps", 5, "timing repetitions per point for -sharedcmp (best kept)")
		jsonOut    = flag.String("json", "", "also write -sharedcmp or -batchrhs rows as JSON to this file")

		batchRHS   = flag.Bool("batchrhs", false, "compare k independent parallel solves vs one batched multi-RHS solve (executed, 3D Poisson)")
		batchGrid  = flag.Int("batchgrid", 14, "Poisson grid edge for -batchrhs (n³ unknowns)")
		batchProcs = flag.Int("batchprocs", 4, "processor count for -batchrhs")
		batchReps  = flag.Int("batchreps", 5, "timing repetitions per point for -batchrhs (best kept)")
		batchKs    = flag.String("batchks", "1,2,4,8,16,32", "right-hand-side counts for -batchrhs")

		diverge  = flag.Bool("divergence", false, "trace an executed 3D Poisson factorization under the parallel runtimes and print the predicted-vs-actual divergence reports")
		divGrid  = flag.Int("divgrid", 12, "Poisson grid edge for -divergence (n³ unknowns)")
		divProcs = flag.Int("divprocs", 4, "processor count for -divergence")

		dynCmp   = flag.Bool("dyncmp", false, "compare the static shared-memory runtime vs the work-stealing dynamic runtime (regular + irregular matrices, idle + loaded machine)")
		dynGrid  = flag.Int("dyngrid", 14, "Poisson grid edge for -dyncmp (n³ unknowns)")
		dynProcs = flag.Int("dynprocs", 4, "worker count for -dyncmp")
		dynReps  = flag.Int("dynreps", 5, "timing repetitions per point for -dyncmp (best kept)")
		dynLoad  = flag.Int("dynload", 0, "background CPU-burner goroutines for the loaded -dyncmp points (0 = worker count)")
		dynOut   = flag.String("dynout", "BENCH_dynamic_vs_static.json", "JSON output file for -dyncmp rows")

		blrTest  = flag.Bool("blr", false, "measure block low-rank factor compression: memory ratio, compress/solve time and backward error across tolerances (3-D Poisson + graded + irregular generators)")
		blrGrid  = flag.Int("blrgrid", 14, "Poisson grid edge for -blr (n³ unknowns)")
		blrProcs = flag.Int("blrprocs", 4, "processor count for -blr")
		blrReps  = flag.Int("blrreps", 3, "timing repetitions per point for -blr (best kept)")
		blrTols  = flag.String("blrtols", "1e-2,1e-4,1e-6,1e-8,1e-10", "compression tolerances for -blr")
		blrMin   = flag.Int("blrminblock", 8, "admission floor min(rows,cols) for -blr compression")
		blrOut   = flag.String("blrout", "BENCH_blr.json", "JSON output file for the -blr report")

		gwTest    = flag.Bool("gateway", false, "measure HA-gateway serving throughput and node-kill failover cost (QPS/p50/p99 at 0 and 1 kills per client count)")
		gwGrid    = flag.Int("gwgrid", 12, "Poisson grid edge for -gateway (n³ unknowns)")
		gwProcs   = flag.Int("gwprocs", 4, "solver worker count per backend for -gateway")
		gwNodes   = flag.Int("gwnodes", 3, "backend nodes behind the gateway for -gateway")
		gwReqs    = flag.Int("gwreqs", 200, "solve requests per load point for -gateway")
		gwClients = flag.String("gwclients", "2,8", "concurrent client counts for the -gateway load points")
		gwOut     = flag.String("gwout", "BENCH_gateway_failover.json", "JSON output file for the -gateway report")

		duraTest    = flag.Bool("durability", false, "measure the durable factor store: durable-ack vs in-memory factorize latency, journal replay wall time, and bitwise solve identity across a restart")
		duraGrid    = flag.Int("duragrid", 12, "Poisson grid edge for -durability (n³ unknowns)")
		duraProcs   = flag.Int("duraprocs", 4, "solver worker count for -durability")
		duraFactors = flag.Int("durafactors", 16, "factorize requests per mode for -durability (also the journal replay depth)")
		duraOut     = flag.String("duraout", "BENCH_durability.json", "JSON output file for the -durability report")
	)
	flag.Parse()
	if *all {
		*table1, *table2, *dense, *ablate = true, true, true, true
	}
	if !*table1 && !*table2 && !*dense && !*ablate && !*sharedCmp && !*batchRHS && !*diverge && !*dynCmp && !*gwTest && !*blrTest && !*duraTest && *plot == "" && *bsweep == "" {
		flag.Usage()
		return
	}

	var procs []int
	for _, s := range strings.Split(*procsF, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || p < 1 {
			log.Fatalf("bad -procs entry %q", s)
		}
		procs = append(procs, p)
	}

	if *table1 {
		fmt.Printf("== Table 1: description of the test problems (scale %g) ==\n", *scale)
		rows, err := bench.Table1(*scale)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(bench.FormatTable1(rows))
		fmt.Println()
	}
	if *table2 {
		fmt.Printf("== Table 2: factorization performance, time in modelled SP2 seconds (Gflops) ==\n")
		rows, err := bench.Table2(*scale, procs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(bench.FormatTable2(rows))
		fmt.Println()
	}
	if *dense {
		fmt.Printf("== §3 dense kernel comparison (n=%d) ==\n", *denseN)
		r := bench.DenseKernels(*denseN)
		fmt.Printf("host measured : LLT %.3fs   LDLT %.3fs   ratio %.2f\n", r.LLT, r.LDLT, r.RatioHost)
		fmt.Printf("SP2 modelled  : LLT %.3fs   LDLT %.3fs   ratio %.2f (paper@1024: 1.07s / 1.27s = 1.19)\n",
			r.SP2LLT, r.SP2LDLT, r.RatioSP2)
		fmt.Println()
	}
	if *plot != "" {
		rows, err := bench.Table2(*scale, procs)
		if err != nil {
			log.Fatal(err)
		}
		found := false
		for _, r := range rows {
			if r.Name == *plot {
				fmt.Print(bench.FormatSpeedupPlot(r, 16))
				found = true
			}
		}
		if !found {
			log.Fatalf("unknown problem %q", *plot)
		}
	}
	if *bsweep != "" {
		fmt.Printf("== blocking-size sweep for %s (P=16, SP2 model) ==\n", *bsweep)
		rows, err := bench.BlockSweep(*bsweep, *scale, 16, []int{8, 16, 32, 64, 128})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%6s %12s %9s %12s\n", "bs", "blockNNZ_L", "tasks", "model time")
		for _, r := range rows {
			fmt.Printf("%6d %12d %9d %11.4fs\n", r.BlockSize, r.BlockNNZL, r.Tasks, r.ModelTime)
		}
		fmt.Println()
	}
	if *sharedCmp {
		g := *sharedGrid
		// Unlike the modelled tables, this comparison executes on goroutine
		// processors and times the host. The axis runs over powers of two up
		// to 8 (the paper's interesting range) and on larger hosts continues
		// to NumCPU.
		axis := []int{1, 2, 4, 8}
		for p := 16; p <= runtime.NumCPU(); p *= 2 {
			axis = append(axis, p)
		}
		fmt.Printf("== shared-memory vs mpsim runtime, executed %d³ Poisson (best of %d) ==\n", g, *sharedReps)
		rows, err := bench.CompareRuntimes(g, g, g, axis, *sharedReps)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(bench.FormatRuntimes(rows))
		if *jsonOut != "" {
			data, err := json.MarshalIndent(struct {
				Grid int                `json:"grid"`
				Reps int                `json:"reps"`
				Rows []bench.RuntimeRow `json:"rows"`
			}{g, *sharedReps, rows}, "", "  ")
			if err != nil {
				log.Fatal(err)
			}
			if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("rows written to %s\n", *jsonOut)
		}
		fmt.Println()
	}
	if *batchRHS {
		g := *batchProcs
		var ks []int
		for _, s := range strings.Split(*batchKs, ",") {
			k, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || k < 1 {
				log.Fatalf("bad -batchks entry %q", s)
			}
			ks = append(ks, k)
		}
		fmt.Printf("== batched multi-RHS solve vs %d independent parallel solves, executed %d³ Poisson on %d processors (best of %d) ==\n",
			ks[len(ks)-1], *batchGrid, g, *batchReps)
		rows, err := bench.CompareBatchedSolve(*batchGrid, *batchGrid, *batchGrid, g, ks, *batchReps)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(bench.FormatBatchedSolve(rows))
		if *jsonOut != "" {
			data, err := json.MarshalIndent(struct {
				Grid int              `json:"grid"`
				P    int              `json:"p"`
				Reps int              `json:"reps"`
				Rows []bench.BatchRow `json:"rows"`
			}{*batchGrid, g, *batchReps, rows}, "", "  ")
			if err != nil {
				log.Fatal(err)
			}
			if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("rows written to %s\n", *jsonOut)
		}
		fmt.Println()
	}
	if *diverge {
		g := *divGrid
		fmt.Printf("== predicted-vs-actual divergence, executed %d³ Poisson on %d processors ==\n", g, *divProcs)
		a := gen.Laplacian3D(g, g, g)
		for _, rt := range []struct {
			name    string
			runtime pastix.Runtime
		}{
			{"mpsim (message-passing)", pastix.RuntimeMPSim},
			{"shared (zero-copy)", pastix.RuntimeShared},
			{"dynamic (work-stealing)", pastix.RuntimeDynamic},
		} {
			an, err := pastix.Analyze(a, pastix.Options{Processors: *divProcs, Runtime: rt.runtime})
			if err != nil {
				log.Fatal(err)
			}
			_, tr, err := an.FactorizeTraced(context.Background(), pastix.TraceOptions{})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("\n-- runtime: %s --\n", rt.name)
			if err := tr.WriteReport(os.Stdout); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Println()
	}
	if *dynCmp {
		fmt.Printf("== dynamic (work-stealing) vs static (shared-memory) makespan, %d workers ==\n", *dynProcs)
		rp, err := bench.CompareDynamic(*dynGrid, *dynProcs, *dynReps, *dynLoad)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(bench.FormatDynRows(rp.Rows))
		if rp.Note != "" {
			fmt.Printf("note: %s\n", rp.Note)
		}
		if *dynOut != "" {
			data, err := json.MarshalIndent(rp, "", "  ")
			if err != nil {
				log.Fatal(err)
			}
			if err := os.WriteFile(*dynOut, append(data, '\n'), 0o644); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("rows written to %s\n", *dynOut)
		}
		fmt.Println()
	}
	if *blrTest {
		var tols []float64
		for _, s := range strings.Split(*blrTols, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil || v <= 0 || v >= 1 {
				log.Fatalf("bad -blrtols entry %q", s)
			}
			tols = append(tols, v)
		}
		fmt.Printf("== block low-rank factor compression across tolerances, %d processors ==\n", *blrProcs)
		rp, err := bench.BLRCompare(*blrGrid, *blrProcs, *blrReps, *blrMin, tols)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(bench.FormatBLR(rp))
		if rp.Note != "" {
			fmt.Printf("\nnote: %s\n", rp.Note)
		}
		if *blrOut != "" {
			data, err := json.MarshalIndent(rp, "", "  ")
			if err != nil {
				log.Fatal(err)
			}
			if err := os.WriteFile(*blrOut, append(data, '\n'), 0o644); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("report written to %s\n", *blrOut)
		}
		fmt.Println()
	}
	if *gwTest {
		var clients []int
		for _, s := range strings.Split(*gwClients, ",") {
			c, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || c < 1 {
				log.Fatalf("bad -gwclients entry %q", s)
			}
			clients = append(clients, c)
		}
		fmt.Printf("== HA gateway: throughput and node-kill failover cost, %d nodes ==\n", *gwNodes)
		rp, err := servebench.GatewayTest(*gwGrid, *gwProcs, *gwNodes, *gwReqs, clients)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(servebench.FormatGatewayReport(rp))
		if rp.Note != "" {
			fmt.Printf("note: %s\n", rp.Note)
		}
		if *gwOut != "" {
			data, err := rp.MarshalPretty()
			if err != nil {
				log.Fatal(err)
			}
			if err := os.WriteFile(*gwOut, data, 0o644); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("report written to %s\n", *gwOut)
		}
		fmt.Println()
	}
	if *duraTest {
		fmt.Printf("== durable factor store: ack cost, journal replay, restart identity ==\n")
		rp, err := servebench.DurabilityTest(*duraGrid, *duraProcs, *duraFactors)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(servebench.FormatDurabilityReport(rp))
		if rp.Note != "" {
			fmt.Printf("note: %s\n", rp.Note)
		}
		if *duraOut != "" {
			data, err := json.MarshalIndent(rp, "", "  ")
			if err != nil {
				log.Fatal(err)
			}
			if err := os.WriteFile(*duraOut, append(data, '\n'), 0o644); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("report written to %s\n", *duraOut)
		}
		fmt.Println()
	}
	if *ablate {
		fmt.Printf("== §2 ablations: replayed makespan in modelled SP2 seconds ==\n")
		fmt.Printf("%-10s %4s %12s %12s %14s\n", "Name", "P", "mixed 1D/2D", "1D only", "first-cand map")
		for _, name := range gen.Names() {
			for _, p := range []int{8, 32} {
				row, err := bench.Ablate(name, *scale, p)
				if err != nil {
					log.Fatal(err)
				}
				fmt.Printf("%-10s %4d %12.3f %12.3f %14.3f\n",
					name, p, row.Mixed1D2D, row.Only1D, row.FirstCand)
			}
		}
	}
}
