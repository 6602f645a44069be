#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it.
# Run from the repository root, e.g.
#
#   bash perfbench/run.sh --workload oltp-point --seed 1 --seconds 10 --trace 0
#
# Every build artefact (binary, Go build cache, temporary files) stays
# under .bench_build/ in the repository root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
# The commit is known only when the root is itself a git work tree.
commit=unknown
if top=$(git -C "$root" rev-parse --show-toplevel 2>/dev/null) && [ "$top" = "$root" ]; then
	commit=$(git -C "$root" rev-parse HEAD)
fi
exec "$out/perfbench" --commit "$commit" --root "$root" "$@"
