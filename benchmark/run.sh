#!/usr/bin/env bash
# Build the benchmark (offline, release) and run it. Every argument is
# passed on to the binary; see `run.sh --help`.
#
# The build goes to $CARGO_TARGET_DIR when the caller sets it (a
# relative path is taken from the directory the script is called from),
# else to benchmark/target. Durability directories and traces go to
# benchmark/out. Nothing outside the checkout is written.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
# Build output goes to stderr so that stdout holds only the report.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
SPBLA_BENCHMARK_OUT="$here/out" exec "$target/release/spbla-benchmark" "$@"
