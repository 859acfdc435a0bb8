#!/bin/sh
# Full local verification: formatting, vet, build, tests, fuzz smoke, the
# race detector, the chaos and golden suites, and the benchmark gate.
# Run from the repository root (or via `make verify`).
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test"
go test ./...

echo "== fuzz smoke (fault-plan grammar, 10s)"
go test -run '^$' -fuzz FuzzParsePlan -fuzztime=10s ./internal/fault/

echo "== fuzz smoke (round-half-away quantizer helper, 5s)"
go test -run '^$' -fuzz FuzzRoundHalfAway -fuzztime=5s ./internal/quant/

echo "== fuzz smoke (calendar-vs-heap event queue, 10s)"
go test -run '^$' -fuzz FuzzCalendarQueue -fuzztime=10s ./internal/sim/

echo "== fuzz smoke (stream-spec grammar, 10s)"
go test -run '^$' -fuzz FuzzStreamSpec -fuzztime=10s ./internal/cluster/

echo "== fuzz smoke (workload-scenario grammar, 10s)"
go test -run '^$' -fuzz FuzzParseScenario -fuzztime=10s ./internal/edge/

echo "== go test -race (concurrent + serving packages)"
make test-race

echo "== chaos suite (seeded fault injection)"
make test-chaos

echo "== golden traces (scenario + decision streams)"
make trace-golden

# bench/ is a module of its own, so the root `go test ./...` never
# builds it.
echo "== bench module smoke test"
(cd bench && go test ./...)

echo "== benchmark gate (serving workloads vs the committed seed-1 baseline)"
make bench

echo "verify: OK"
