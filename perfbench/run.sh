#!/usr/bin/env bash
# Builds the benchmark and the metnode worker binary from the checkout it
# is run in, then runs one benchmark invocation:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Build outputs, the Go build cache,
# cluster data directories and trace files all live under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/metnode" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a met checkout (go.mod, cmd/metnode and perfbench/ are needed)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache"
export GOPATH="$out/go-path"
# The go command keeps its config and local telemetry under the user
# config directory; keep them in the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOPROXY=off

go build -o "$out/metnode" ./cmd/metnode
(cd "$root/perfbench" && go build -o "$out/perfbench" .)

exec "$out/perfbench" -root "$root" -metnode "$out/metnode" "$@"
