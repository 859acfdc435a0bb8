GO ?= go
# Extra flags for test-race; CI passes -short to stay inside its budget.
RACEFLAGS ?=

.PHONY: all build test test-race test-chaos trace-golden fuzz-smoke bench verify

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over the serving stack and the parallel design-time
# pipeline (library sweep, memoized explorer, experiment harness) on top
# of the concurrent compute packages.
test-race:
	$(GO) test -race $(RACEFLAGS) ./internal/tensor/... ./internal/nn/... ./internal/train/... \
		./internal/quant/... \
		./internal/edge/... ./internal/manager/... ./internal/multiedge/... \
		./internal/cluster/... ./internal/adapt/... \
		./internal/prune/... ./internal/accuracy/... \
		./internal/library/... ./internal/explore/... ./internal/parallel/... \
		./internal/sim/... ./internal/experiments/... ./internal/obs/... \
		./internal/fault/... ./internal/synth/...

# Golden trace suite: the Fig. 6 scenario traces plus the pinned
# decision-event streams (manager verdicts) for Scenarios 1, 2 and 1+2,
# and the pool supervision streams (failover, overload shed).
# Regenerate after an intentional semantic change with:
#   go test ./internal/edge/ ./internal/multiedge/ ./internal/cluster/ -run Golden -update
trace-golden:
	$(GO) test -count=1 -run 'Golden' ./internal/edge/... ./internal/multiedge/... ./internal/cluster/...

# Chaos suite: every fault-injection test (fixed seed matrix, deterministic)
# across the fault layer, edge simulation, manager, pool, and the
# closed-loop drift-recovery path.
test-chaos:
	$(GO) test -count=1 -run 'Chaos|Adapt' ./internal/edge/... ./internal/multiedge/... ./internal/cluster/...
	$(GO) test -count=1 ./internal/fault/... ./internal/adapt/...
	$(GO) test -count=1 -run 'Property|Degrade|ReconfigFailed|Backoff|Swap' ./internal/manager/...

# Fuzz smoke: a short run of every fuzz target in the repo. go test takes
# one -fuzz target per invocation. The targets guard the outside-input
# parsers (fault plans, workload scenarios, stream specs, serialized
# models), the fast kernels' bit-exactness against their references
# (round-half-away, the activation ladder and its affine fold, the
# bit-plane convolution, the calendar event queue), the staged inference
# path (level codes between layers) against the per-layer one, and the
# pruning count plan against the ranked one.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParsePlan -fuzztime=10s ./internal/fault/
	$(GO) test -run '^$$' -fuzz FuzzParseScenario -fuzztime=10s ./internal/edge/
	$(GO) test -run '^$$' -fuzz FuzzStreamSpec -fuzztime=10s ./internal/cluster/
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime=10s ./internal/modelio/
	$(GO) test -run '^$$' -fuzz FuzzRoundHalfAway -fuzztime=5s ./internal/quant/
	$(GO) test -run '^$$' -fuzz FuzzActLadder -fuzztime=5s ./internal/quant/
	$(GO) test -run '^$$' -fuzz FuzzAffineLadder -fuzztime=5s ./internal/quant/
	$(GO) test -run '^$$' -fuzz FuzzConvBitplane -fuzztime=10s ./internal/tensor/
	$(GO) test -run '^$$' -fuzz FuzzStagedForward -fuzztime=10s ./internal/nn/
	$(GO) test -run '^$$' -fuzz FuzzCalendarQueue -fuzztime=10s ./internal/sim/
	$(GO) test -run '^$$' -fuzz FuzzPlanChannels -fuzztime=5s ./internal/prune/

# Timing gate: three fresh 5 s runs each of the serving workloads
# (edge-fluid, edge-event, cluster), compared with the committed seed-1
# baseline under the bounds of BENCHMARK.json. Host times are normalised
# to a reference speed, so the baseline holds on other machines. The
# allocation ceilings of the same hot paths are TestHotPathAllocs.
bench:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	for w in edge-fluid edge-event cluster; do \
		bash bench/run.sh -workload $$w -seed 1 -seconds 5 -repeat 3 -json "$$tmp/runs.json" || exit 1; \
	done && \
	bash bench/run.sh -compare bench/results/baseline-seed1.json "$$tmp/runs.json"

# Everything CI would check: gofmt, vet, build, tests, fuzz smoke, race
# detector, benchmark gate.
verify:
	./scripts/verify.sh
