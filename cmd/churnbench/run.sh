#!/bin/sh
# Builds churnbench from the checkout it is run in and runs it with the
# given flags. Run it from the repository root:
#
#   sh cmd/churnbench/run.sh --workload flood-1m --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the toolchain's own files go under
# .bench_build/, so a run writes nothing outside the checkout. A failed
# build exits non-zero before anything is measured.
set -eu
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=vendor GOTOOLCHAIN=local
go build -o "$out/churnbench" ./cmd/churnbench
exec "$out/churnbench" "$@"
