#!/usr/bin/env bash
# Builds `pdqi` and the serving benchmark from source, then runs one workload.
#
#   bash perfbench/run.sh --workload <serve_hot|adhoc_scan> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of a pdqi checkout. Build output goes to $CARGO_TARGET_DIR
# (default `.bench_build`); per-run records and span files go to its `perfbench/`
# subdirectory. The last line of standard output is the run's JSON result.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/cli || ! -f perfbench/Cargo.toml ]]; then
    echo "error: run from the root of a pdqi checkout (the sources to build are missing)" >&2
    exit 1
fi
target="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$target" = /* ]] || target="$PWD/$target"
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet -p pdqi-cli --bin pdqi >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

mkdir -p "$target/perfbench"
exec "$target/release/pdqi-perfbench" --pdqi "$target/release/pdqi" --out "$target/perfbench" "$@"
