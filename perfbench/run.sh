#!/usr/bin/env bash
# Builds the benchmark and flovd from source, then runs one workload.
#
#   bash perfbench/run.sh --workload lowload-gflov --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binaries, flovd cache directories) stays under the
# build directory: $CARGO_TARGET_DIR if set, else .bench_build.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/config" "$out/work"
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOWORK=off

(cd "$here" && go build -o "$out/perfbench" . && go build -o "$out/flovd" flov/cmd/flovd) >&2
exec "$out/perfbench" -flovd "$out/flovd" -work "$out/work" "$@"
