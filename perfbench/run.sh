#!/usr/bin/env bash
# Builds the perfbench program from the checkout's sources and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload fit --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build artefact (the Go build cache,
# the toolchain's own config and telemetry files, the binary) and every
# scratch file stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/home"

(
	cd "$here"
	export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
	export GOPATH="$out/home/go" GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp"
	export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
	go build -trimpath -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
