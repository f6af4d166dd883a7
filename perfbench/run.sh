#!/usr/bin/env bash
# Builds mithrilsim and the benchmark program from the checkout in the
# current directory, then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload sweep-fleet --seed 1 --seconds 50 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The Go config directory (env file, telemetry counters) moves in too.
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
go build -o "$build/bin/mithrilsim" ./cmd/mithrilsim
(cd "$here" && go build -o "$build/bin/perfbench" .)
# The benchmark and every process it starts run on one CPU, the last one
# (see "Noise" in perfbench/README.md). Without taskset they run unpinned.
pin=()
if command -v taskset >/dev/null 2>&1; then
	pin=(taskset -c "$(($(nproc) - 1))")
fi
exec ${pin[@]+"${pin[@]}"} "$build/bin/perfbench" -root "$root" -bin "$build/bin/mithrilsim" "$@"
