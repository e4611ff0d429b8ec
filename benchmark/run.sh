#!/usr/bin/env bash
# Entry point named in ../BENCHMARK.json. Builds the benchmark package (both
# binaries, from source, into $CARGO_TARGET_DIR or benchmark/target) and
# hands the arguments to the timed binary, or to the traced one when
# `--trace 1` is among them. Everything it writes lands in benchmark/out.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

binary=rbvc-bench
previous=
for arg in "$@"; do
    if [[ "$previous" == "--trace" && "$arg" == "1" ]]; then
        binary=rbvc-bench-traced
    fi
    previous="$arg"
done

if [[ "${1:-}" == "compare" ]]; then
    exec "$CARGO_TARGET_DIR/release/rbvc-bench" "$@"
fi
exec "$CARGO_TARGET_DIR/release/$binary" --out-dir "$here/out" "$@"
