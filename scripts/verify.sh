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
# bench/ is a module of its own, so the root `go vet ./...` never vets it.
(cd bench && go vet ./...)

echo "== go build"
go build ./...

echo "== go test"
go test ./...

# The bit-plane and threshold-count kernels are assembly on amd64 CPUs
# with AVX2; a 386 build runs their Go loops instead, through nn and
# compile against the oracle and the golden corpus, and an arm64 vet keeps
# the build-tag split of internal/tensor, the one package with
# architecture files, compiling off amd64. internal/sim runs there too:
# its seeded source must match math/rand with a 32-bit int and a 64-bit
# multiply.
echo "== go test (386) and go vet (arm64): the Go kernel bodies"
GOARCH=386 go test ./internal/tensor/ ./internal/nn/ ./internal/compile/ ./internal/sim/
GOARCH=arm64 go vet ./internal/tensor/

echo "== fuzz smoke (every fuzz target)"
make fuzz-smoke

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
