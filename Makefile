# Tiered checks for pastix-go. Stdlib only; the targets just wrap the go
# tool so CI and humans run the exact same commands.

GO ?= go

.PHONY: all build test race bench vet fmt-check check chaos numstress dynstress solvestress hastress blrstress durastress fuzz serve-smoke bench-smoke ci

all: ci

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet: fmt-check
	$(GO) vet ./...

# gofmt emits the names of misformatted files; any output is a failure.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Tier-2: the whole suite under the race detector. The shared-memory
# runtime (FactorizeShared), the level-set solve engine and the mpsim
# message runtime are concurrency-heavy; the stress tests are written to be meaningful here.
# -short keeps the stress loops at a size the detector finishes quickly;
# drop it for the full soak.
race:
	$(GO) test -race -short ./...

race-full:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Chaos soak: the fault-injection suites under the race detector — the
# reliability layer in mpsim, the injector itself, the multi-seed
# factor/solve soak (bit-identical to fault-free), and the public-API
# chaos round trips.
chaos:
	$(GO) test -race -timeout 300s -run 'Chaos|Fault|Reliab|Retry|Restart|Stall|Boundary' \
		./internal/mpsim ./internal/faults ./internal/solver .

# Numerical stress soak: the static-pivoting and refinement suites under the
# race detector — graded-pivot matrices across all three runtimes (asserting
# bitwise-identical perturbation reports), robust ε-escalation, and adaptive
# refinement convergence.
numstress:
	$(GO) test -race -timeout 300s -run 'NumStress|GradedPivot|PerturbationReport|FactorizeRobust|Refine|Pivot' \
		./internal/solver ./internal/gen ./internal/blas .

# Dynamic-runtime stress soak: the work-stealing executor's unit and
# steal-storm suites plus the cross-runtime conformance tests (every
# generator and a complex symmetric input × every runtime, dynamic
# bitwise-identical to shared across seeds, the complex factor pinned to its
# golden hash) under the race detector, repeated so rare steal interleavings
# get a chance to fire. The conformance leg runs at GOMAXPROCS 1, 2 and 4:
# arrival-order nondeterminism hides at 1 and shows at 2.
dynstress:
	$(GO) test -race -timeout 300s -count=3 ./internal/dynsched
	$(GO) test -race -timeout 300s -count=2 -cpu 1,2,4 \
		-run 'RuntimeConformance|DynamicShared|DynamicSteal|DynamicTrace|DynamicRejects|DynamicHonors' \
		./internal/solver

# Solve-path stress soak: the solve DAG projection and level-set engine
# suites, the packed panel kernels, the cross-runtime solve conformance
# table (every generator × every factorization runtime × static/dynamic
# level dispatch × 1/32 RHS, bitwise), the public SolveOpts wrapper
# equivalence (sequential 32-RHS panels bitwise-equal to Solve and to the
# level-set engine), and the serving options path — all under the race
# detector.
solvestress:
	$(GO) test -race -timeout 300s \
		-run 'SolveDAG|SolvePlan|LevelStorm|SolveLevel|Packed|SolveConformance|SolveOpts|PrepareSolve|ServerSolveOptions' \
		./internal/sched ./internal/solver ./internal/blas ./internal/service .

# HA-serving stress soak: the sharded gateway suites under the race
# detector — consistent-hash ring and breaker units, the retrying client's
# deterministic backoff schedule, end-to-end replicated factorize with
# kill/restart/hedge/drain failover, the service idempotency and readiness
# layers, and the multi-seed node-kill chaos soak (every accepted solve
# bit-identical to a fault-free single-node run). The gateway suites run at
# GOMAXPROCS 1, 2 and 4 so start-up and probe races show on any host.
hastress:
	$(GO) test -race -timeout 600s -count=1 -cpu 1,2,4 ./internal/gateway/...
	$(GO) test -race -timeout 300s -run 'Readyz|BodyLimit|Idempotent|Drain' ./internal/service

# Block low-rank stress soak: the compression kernels and admission logic,
# the low-rank BLAS panel kernels, the compressed-factor solve conformance
# and refinement-recovery suites, the public BLR API (including the
# BLR-disabled bitwise table test across runtimes), and the compressed
# serving path — all under the race detector.
blrstress:
	$(GO) test -race -timeout 300s ./internal/lowrank
	$(GO) test -race -timeout 300s -run 'LRGemv|LRGemm|GemmLR|GemmDenseLR|TrsmRightLTransUnitLR|LRKernels' ./internal/blas
	$(GO) test -race -timeout 300s -run 'TestCompress|TestBLR|ServerBLR' ./internal/solver ./internal/service .

# Durability stress soak: the WAL/snapshot store under the race detector —
# codec round trips, torn-tail and bit-flip corruption recovery, the
# crash-at-write-k injector sweep — plus the service's journaled durable-ack
# and replicate paths, the gateway anti-entropy repair suites, and the
# durable kill→restart→recover chaos soak (-short trims the seed count).
durastress:
	$(GO) test -race -timeout 300s ./internal/store
	$(GO) test -race -timeout 300s -run 'Durable|Replicate|Recovering|IdemStore' ./internal/service
	$(GO) test -race -timeout 300s -cpu 1,2,4 -run 'AntiEntropy|AwaitShard' ./internal/gateway
	$(GO) test -race -timeout 600s -cpu 1,2,4 -short -run 'ChaosDurable' ./internal/gateway/chaos

# Short coverage-guided fuzz pass over the sparse-matrix invariants, the
# file parsers, the task-DAG executor, the low-rank compressor's
# accuracy/admission contract, and the durable store's recovery path
# (arbitrary journal bytes must never panic or resurrect corrupt records;
# 10s each keeps CI bounded; raise -fuzztime for a real hunt).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzCSR -fuzztime 10s ./internal/sparse
	$(GO) test -run '^$$' -fuzz FuzzScheduleDAG -fuzztime 10s ./internal/dynsched
	$(GO) test -run '^$$' -fuzz FuzzLRCompress -fuzztime 10s ./internal/lowrank
	$(GO) test -run '^$$' -fuzz 'FuzzStoreRecover$$' -fuzztime 10s ./internal/store
	$(GO) test -run '^$$' -fuzz 'FuzzStoreRecoverSnapshot$$' -fuzztime 10s ./internal/store

check: build vet test race

# Serving smoke test: boot pastix-serve on a random loopback port and drive
# analyze → analyze (asserting a cache hit) → factorize → coalesced batched
# solves against a generated Poisson problem end to end, then scrape
# /metrics. Self-contained (no curl); exits non-zero on any failure.
serve-smoke:
	$(GO) run ./cmd/pastix-serve -smoke

# Benchmark smoke test: benchmark/ is its own Go module, so `go test ./...`
# at the root never compiles it. Vet and test it here so a library API
# change that breaks the performance instrument fails CI, not the next
# benchmark run.
bench-smoke:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# The CI entry point (and default target): build, vet+gofmt, tests, race,
# the chaos, numerical-stress, dynamic-runtime, solve-path, HA-serving,
# block-low-rank and durability soaks, a short fuzz pass, the serving
# smoke test (which ends with a persist → restart → solve round trip), then
# the benchmark smoke test.
ci: build vet test race chaos numstress dynstress solvestress hastress blrstress durastress fuzz serve-smoke bench-smoke
