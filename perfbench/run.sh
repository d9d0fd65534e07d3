#!/usr/bin/env bash
# Builds cmd/mass-server and the perfbench harness from the checkout this
# script sits in, then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload read-steady --seed 1 --seconds 8 --trace 0
#
# Run it from the repository root. Everything it writes (Go build cache,
# binaries, corpora, server data directories) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/mass-server" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a mass checkout (go.mod, cmd/mass-server and perfbench/ are required)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOPROXY=off
# Unchanged sources make both builds cache hits, so the server binary is
# built once per commit under test.
go build -o "$out/bin/mass-server" ./cmd/mass-server
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" -server "$out/bin/mass-server" "$@"
