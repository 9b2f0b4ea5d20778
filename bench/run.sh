#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh --workload join_intersects --seed 1 --seconds 12 --trace 0
#
# Run it from the root of a checkout. The binary and Go's build cache go
# to .bench_build/ in the checkout, span files and scratch stores to
# bench/out/; nothing is written outside the checkout. The first build in
# a fresh checkout compiles the standard library too (about a minute);
# later runs only relink.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/bench/go.mod" ]; then
  echo "bench/run.sh: run from the root of a checkout that holds the repository's sources" >&2
  exit 3
fi
mkdir -p "$root/.bench_build/tmp"
# Keep everything the go command writes (build cache, work directories,
# telemetry counters) inside the checkout.
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$root/.bench_build/tmp" \
  XDG_CONFIG_HOME="$root/.bench_build/config" GOTOOLCHAIN=local
commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
if [ "$commit" != unknown ] && [ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then
  commit=$commit-dirty
fi
# A hash of the benchmark's own sources (tests aside): records are comparable
# only if it agrees (sjbench --compare checks), whatever commit they measured.
srchash=$(cd "$root/bench" && cat go.mod run.sh $(ls *.go | grep -v _test.go) | sha256sum | cut -c1-12)
(cd "$root/bench" && go build -buildvcs=false -ldflags "-X main.buildCommit=$commit -X main.buildSource=$srchash" -o "$root/.bench_build/sjbench" .)
exec "$root/.bench_build/sjbench" "$@"
