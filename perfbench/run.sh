#!/usr/bin/env bash
# Builds amatchd and the harness from the checkout's sources, then runs one
# benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload cold-bulk --seed 1 --seconds 15 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/amatchd" || ! -f "$root/perfbench/go.mod" ]]; then
  echo "perfbench: run from the repository root (needs go.mod, cmd/amatchd, perfbench/)" >&2
  exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/tmp" "$out/gocache" "$out/gopath" "$out/config"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off

go build -o "$out/amatchd" ./cmd/amatchd >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2

exec "$out/perfbench" -amatchd "$out/amatchd" -workdir "$out/runs" "$@"
