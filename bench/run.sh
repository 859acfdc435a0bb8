#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from, then
# runs it with the given arguments. Run it from the root of the checkout:
#
#   bash bench/run.sh -workload edge-fluid -seed 1 -seconds 15 -trace 0
#
# The benchmark reads and writes only inside the checkout, so everything the
# Go toolchain would write elsewhere stays under .bench_build: the build
# cache (GOCACHE), the module cache (GOPATH), temporary build directories
# (GOTMPDIR) and telemetry (XDG_CONFIG_HOME). GOENV, GOFLAGS and GOWORK are
# cleared so a user's Go settings cannot change the build, and
# GOTOOLCHAIN=local stops the go command from fetching another toolchain.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local

go -C bench build -o "$build/adaflow-bench" .
exec "$build/adaflow-bench" "$@"
