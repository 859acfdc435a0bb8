GO ?= go

.PHONY: all build test race test-race test-chaos trace-golden bench bench-all verify

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over the packages that exercise the tensor worker
# pool concurrently.
race:
	$(GO) test -race ./internal/tensor/... ./internal/nn/... ./internal/train/...

# Race-detector pass over the serving stack and the parallel design-time
# pipeline (library sweep, memoized explorer, experiment harness) on top
# of the concurrent compute packages.
test-race:
	$(GO) test -race ./internal/tensor/... ./internal/nn/... ./internal/train/... \
		./internal/quant/... \
		./internal/edge/... ./internal/manager/... ./internal/multiedge/... \
		./internal/cluster/... ./internal/adapt/... \
		./internal/prune/... ./internal/accuracy/... \
		./internal/library/... ./internal/explore/... ./internal/parallel/... \
		./internal/sim/... ./internal/experiments/... ./internal/obs/...

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

# Tracked benchmark baseline: key design-time and substrate benchmarks,
# recorded to BENCH_PR10.json for regression diffing.
bench:
	./scripts/bench.sh

# Full sweep over every benchmark in the repo (paper figures included).
bench-all:
	$(GO) test -bench=. -benchmem ./...

# Everything CI would check: gofmt, vet, build, tests, race detector.
verify:
	./scripts/verify.sh
