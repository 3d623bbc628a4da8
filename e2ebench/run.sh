#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources in this checkout and runs
# it. Every argument is passed through, e.g.
#
#   bash e2ebench/run.sh --workload tpch-replay --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the benchmark's segment files all go
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac

# XDG_CONFIG_HOME keeps the go command's config and telemetry files here too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
mkdir -p "$GOTMPDIR"
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)

commit=unknown
if [ -d "$root/.git" ]; then
	commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi

work="$out/run-$$"
status=0
"$out/e2ebench" -root "$root" -workdir "$work" -commit "$commit" "$@" || status=$?
rm -rf "$work"
exit "$status"
