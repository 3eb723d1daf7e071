#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds gksd and the harness from the
# checkout's sources into .bench_build and runs the harness with the given
# arguments. HOME and the Go caches point inside .bench_build so that neither
# the build nor the run writes outside the checkout. In a directory without
# the repository's sources the first build fails and nothing is printed.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/home"
gobuild() {
	HOME="$out/home" GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" \
		GOFLAGS=-buildvcs=false GOTOOLCHAIN=local go build "$@"
}
(cd "$root" && gobuild -o "$out/gksd" ./cmd/gksd) >&2
(cd "$here" && gobuild -o "$out/bench" .) >&2
exec "$out/bench" -gksd "$out/gksd" -workdir "$out/work" -spec "$root/BENCHMARK.json" "$@"
