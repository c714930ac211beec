#!/usr/bin/env bash
# Builds vmd and the benchmark from the tree under test, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash vmbench/run.sh --workload paper --seed 1 --seconds 30 --trace 0
#
# Everything the build and the runs write stays under .bench_build.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/vmd" || ! -f "$root/vmbench/go.mod" ]]; then
	echo "vmbench: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off CGO_ENABLED=0
go build -o "$out/vmd" ./cmd/vmd
(cd vmbench && go build -o "$out/vmbench" .)
# The load generator and vmd share one CPU, the first this shell may use:
# a closed loop over one connection has no parallelism to use, and on a
# 2-vCPU virtual machine wakeups across virtual CPUs were the largest
# source of noise between runs.
pin=()
cpu=$(taskset -pc $$ 2>/dev/null | sed -n 's/.*: *\([0-9][0-9]*\).*/\1/p')
if [[ -n "$cpu" ]]; then
	pin=(taskset -c "$cpu")
fi
exec "${pin[@]}" "$out/vmbench" -vmd "$out/vmd" -host-cpus "$(nproc --all)" "$@"
