#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given flags, e.g.
#
#   bash bench/run.sh -seed 1 -out r.json
#   bash bench/run.sh --workload eval-full --seed 3 --seconds 30 --trace 1
#
# "--trace 0" runs untraced and "--trace 1" traced, with the span file
# at .bench_build/spans.jsonl; any other -trace value names the span
# file. Everything the Go toolchain writes (build cache, temporary
# files, telemetry) stays under .bench_build/ at the repository root,
# and no module or toolchain is ever downloaded.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
    XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
args=()
while (($#)); do
    if [[ ($1 == --trace || $1 == -trace) && ${2-} == [01] ]]; then
        [[ $2 == 1 ]] && args+=(-trace "$out/spans.jsonl")
        shift 2
    else
        args+=("$1")
        shift
    fi
done
go -C "$root/bench" build -o "$out/semacyc-bench" .
exec "$out/semacyc-bench" ${args[@]+"${args[@]}"}
