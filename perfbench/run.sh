#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing
# every argument through (see perfbench/README.md). Run from the root of
# the repository: bash perfbench/run.sh --workload swor-pareto --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/
# in the current directory: the Go build cache, the binary and the trace
# files. HOME and XDG_CONFIG_HOME point there too, so the go command's
# per-user files stay inside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod must exist)" >&2
	exit 2
fi
mkdir -p "$out/home"
(
	cd "$root/perfbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" \
		GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local \
		GOPROXY=off GOWORK=off go build -trimpath -o "$out/perfbench.bin" .
)
exec "$out/perfbench.bin" -out "$out" "$@"
