GO ?= go
FUZZTIME ?= 10s
# Pinned staticcheck release; CI installs exactly this, local runs use
# whatever `staticcheck` is on PATH (and skip cleanly when there is none).
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: build test race racefull vet staticcheck crosscheck fuzz chaos treechaos chaossmoke byzantine byzsmoke bench benchrobust benchsmoke wirecheck benchwire benchscale scalegate benchprecision benchtree check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# staticcheck runs when the binary is on PATH and skips (successfully)
# when it is not, so `make check` works in hermetic containers; CI
# installs the pinned $(STATICCHECK_VERSION) so the gate is enforced
# there (see .github/workflows/ci.yml).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI pins $(STATICCHECK_VERSION))"; \
	fi

# crosscheck compiles and vets the arm64 build without needing arm64
# hardware: the NEON micro-kernels (kernel_arm64.s) only assemble under
# GOARCH=arm64, so an amd64-only CI pass would let them rot.
crosscheck:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./...

# The race detector slows the heavyweight experiment replays ~10-20x past
# the default go-test timeout; they honor -short and are covered without
# race by `make test`. Every concurrency path (fl, transport, chaos tests)
# still runs under race here.
race:
	$(GO) test -race -short -timeout 20m ./...

# racefull is the race detector without -short: it adds the heavyweight
# experiment replays, which train every model through step arenas that the
# race build fills with NaN on each hand-out, so a layer that reads storage
# it did not write shows up there too. It runs far longer than `race` and
# is not part of `make check`.
racefull:
	$(GO) test -race -timeout 120m ./...

# chaos runs the crash-injection harness under the race detector: kill the
# federation mid-run (in-process and over TCP), restart from the durable
# snapshot, and require bit-identical results — plus the torn-write /
# bit-flip fallback and graceful-shutdown paths.
chaos: treechaos
	$(GO) test -race -count=1 \
		-run 'CrashResume|StopResume|CoordinatorRestart|ClientStops|Manager|WriteFileAtomic' \
		./internal/fl/checkpoint ./internal/fl/transport ./internal/fl/faults

# treechaos runs the depth-3 aggregation-tree chaos harness under the race
# detector: seeded leaf and interior kills (failure-domain restarts), a
# partition in front of the first replacement, mid-partial-frame link
# kills, parent failover, and bit-identical root kill→restart→resume.
treechaos:
	$(GO) test -race -count=1 -timeout 10m \
		-run 'TestTreeChaos|TestMidPartialFrame|TestLeafFailsOver|TestTreeRootRestart|TestDegradedPartial|TestCoverageFloor' \
		./internal/fl/transport ./internal/fl/faults

# chaossmoke is the fast no-race subset of the chaos harness that rides in
# `make check`: one in-process crash/resume bit-identity pass plus the
# snapshot fallback tests.
chaossmoke:
	$(GO) test -count=1 \
		-run 'CrashResumeBitIdenticalInProcess|ManagerTornWrite|ManagerFallsBack' \
		./internal/fl/checkpoint

# byzantine runs the adversarial chaos suite under the race detector:
# sign-flip / scaled-gradient / collusion injectors, convergence within ε
# of the attack-free baseline with f < n/3 under the robust folds
# (in-process and over TCP), reputation-driven quarantine, quarantine
# surviving coordinator kill→restart→resume, and secure-aggregation
# dropout handling.
byzantine:
	$(GO) test -race -count=1 -timeout 20m \
		-run 'Byzantine|Quarantine|Dropout|Residual|RetryJitter' \
		./internal/fl ./internal/fl/transport ./internal/fl/secagg
	$(GO) test -race -count=1 ./internal/fl/robust ./internal/fl/faults

# byzsmoke is the fast race-enabled subset that rides in `make check`: the
# TCP quarantine + restart-no-amnesty path (cheap deterministic clients)
# plus the reputation state machine and injector arithmetic.
byzsmoke:
	$(GO) test -race -count=1 -run 'TCPByzantine|RetryJitter' ./internal/fl/transport
	$(GO) test -race -count=1 ./internal/fl/robust ./internal/fl/faults

# Short fuzz bursts over the decoders that parse untrusted bytes: the
# hello and welcome handshake decoders (the first bytes an
# unauthenticated peer sends), the wire frame and payload decoders, and
# the checkpoint container decode (the path a resuming process walks over
# whatever a crash left on disk), plus the robust aggregators (which must
# never panic or emit non-finite aggregates, whatever a hostile cohort
# sends), plus the implicit-GEMM convolution against its im2col lowering
# (bit-identical at both precisions over random geometry). Raise
# FUZZTIME for a real campaign: make fuzz FUZZTIME=10m
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzDecodeHello -fuzztime=$(FUZZTIME) ./internal/fl/wire
	$(GO) test -run='^$$' -fuzz=FuzzDecodeSnapshot -fuzztime=$(FUZZTIME) ./internal/fl/checkpoint
	$(GO) test -run='^$$' -fuzz=FuzzRobustAggregate -fuzztime=$(FUZZTIME) ./internal/fl/robust
	$(GO) test -run='^$$' -fuzz=FuzzDecodeFrame -fuzztime=$(FUZZTIME) ./internal/fl/wire
	$(GO) test -run='^$$' -fuzz=FuzzDecompressUpdate -fuzztime=$(FUZZTIME) ./internal/fl/wire
	$(GO) test -run='^$$' -fuzz=FuzzDecodePartial -fuzztime=$(FUZZTIME) ./internal/fl/wire
	$(GO) test -run='^$$' -fuzz=FuzzNarrowWidenValidate -fuzztime=$(FUZZTIME) ./internal/fl
	$(GO) test -run='^$$' -fuzz=FuzzConvLowering -fuzztime=$(FUZZTIME) ./internal/tensor

# bench regenerates the tracked perf report against the committed seed
# baseline. The same workloads run under plain `go test -bench` in
# internal/bench for ad-hoc comparisons.
bench:
	$(GO) run ./cmd/cipbench -bench all -baseline BENCH_SEED.json \
		-bench-out BENCH_PR3.json \
		-bench-note "blocked GEMM + pooling + parallel rounds PR"

# benchrobust measures the byzantine-resilience overhead: the robust
# folds against the plain mean at the aggregation level (RobustAgg*) and
# end-to-end round latency (RobustRound* — RobustRoundMean is the
# control the <15% regression budget is judged against).
benchrobust:
	$(GO) run ./cmd/cipbench -bench Robust \
		-bench-out BENCH_PR6.json \
		-bench-note "byzantine-resilient aggregation PR: robust folds + reputation vs plain mean"

# benchsmoke proves the regression harness itself still runs (one fast
# kernel workload, report to stdout) without the minutes-long full sweep.
benchsmoke:
	$(GO) run ./cmd/cipbench -bench MatMulTransB128 -baseline BENCH_SEED.json >/dev/null

# wirecheck is the wire-path conformance sweep: golden byte-exact frame
# fixtures, the codec/compression unit and property suites, the
# compressed e2e/restart tests, short fuzz bursts over both frame
# decoders, and the bench-backed wire gate (≥10x byte reduction for topk8
# and binary decode no slower, both against the gob decoder's numbers
# recorded in BENCH_PR7.json).
wirecheck:
	$(GO) test -count=1 ./internal/fl/wire ./internal/fl/compress
	$(GO) test -count=1 -run 'Sparse|Densify|Compressed|Bank' \
		./internal/fl ./internal/fl/transport ./internal/fl/checkpoint
	$(GO) test -run='^$$' -fuzz=FuzzDecodeFrame -fuzztime=5s ./internal/fl/wire
	$(GO) test -run='^$$' -fuzz=FuzzDecompressUpdate -fuzztime=5s ./internal/fl/wire
	$(GO) run ./cmd/cipbench -bench Wire -wire-gate >/dev/null

# benchwire regenerates the tracked wire-path report: decode ns/op and
# wire bytes per update for binary vs compressed frames, with the same
# gate wirecheck holds.
benchwire:
	$(GO) run ./cmd/cipbench -bench Wire -wire-gate \
		-bench-out BENCH_PR7.json \
		-bench-note "binary update codec + load-bearing compression PR: decode cost and bytes/update vs gob"

# benchscale regenerates the scale-out report: 10⁵ in-process clients
# against the streaming-fold coordinator (flat and leaf/root tree) plus
# the 10k streaming-vs-buffered memory gate. Minutes-long; not in check.
benchscale:
	$(GO) run ./cmd/flload -out BENCH_PR8.json \
		-note "streaming folds + hierarchical aggregation tier PR"

# scalegate is the coordinator-memory regression line alone: at 10k
# clients the streaming fold's peak heap must be ≥5x below the buffered
# baseline's.
scalegate:
	$(GO) run ./cmd/cipbench -scale-gate

# benchtree regenerates the aggregation-tree report and holds the tree
# gate: depth-2 robust sketch merges bit-exact below the reservoir
# capacity and inside the documented DKW quantile envelope above it, and
# the depth-3 tree's p99 round latency within 5x the flat federation's.
benchtree:
	$(GO) run ./cmd/cipbench -tree-gate \
		-bench-out BENCH_PR10.json \
		-bench-note "aggregation-tree PR: depth-2 sketch error gate + depth-3 latency pair"

# benchprecision regenerates the float32-tier report and holds the
# precision gate: MatMul256-f32 ≥2x over MatMul256, the f32 Fig. 4 sweep
# faster end-to-end, and a quick federated run per precision landing
# within the final-accuracy tolerance. Minutes-long; not in check.
benchprecision:
	$(GO) run ./cmd/cipbench -bench 'MatMul256|ConvLowering|Relu|BiasAxpy|Fig4ClientsSweep' \
		-precision-gate \
		-bench-out BENCH_PR9.json \
		-bench-note "float32 compute tier PR: dual-precision GEMM, AVX2/NEON f32 kernels"

# check is the full CI gate: static analysis, the arm64 cross-compile,
# the race-enabled suite, a short fuzz burst, the crash-harness smoke,
# the byzantine smoke, the wire-path conformance sweep, and the
# bench-harness smoke.
check: vet staticcheck crosscheck race fuzz chaossmoke byzsmoke wirecheck benchsmoke
