#!/usr/bin/env bash
# Builds the repository benchmark from the checkout it sits in and runs it,
# passing every argument through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload impression --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache, the broker's journal directories and the
# span files of traced runs all live under .bench_build/ in the checkout, so
# a run reads and writes nothing else of the machine. Outside a full
# checkout (no repository go.mod next to perfbench/) the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home" "$out/spans"
command -v go >/dev/null 2>&1 || PATH="$PATH:/usr/local/go/bin"

export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

rev=unknown
if [ -d "$root/.git" ] && command -v git >/dev/null 2>&1; then
	rev=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
fi

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" -revision "$rev" -workdir "$out/tmp" -spans-dir "$out/spans" "$@"
