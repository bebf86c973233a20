#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload gw_hot --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (Go caches, the binary, span files) stays
# under $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off
mkdir -p "$GOTMPDIR"
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out" "$@"
