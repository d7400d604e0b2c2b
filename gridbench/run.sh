#!/usr/bin/env bash
# Builds the gridpipe benchmark from the sources of the checkout this
# script sits in, then runs it with the given arguments:
#
#   bash gridbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the checkout root. Every build artefact (the binary, the Go
# build cache, temporary files) and every trace the benchmark writes stays
# under .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/gridpipe.go" ]; then
	echo "gridbench: no gridpipe sources next to $root/gridbench" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=
(cd "$root/gridbench" && go build -o "$out/gridbench" .)
cd "$root"
exec "$out/gridbench" "$@"
