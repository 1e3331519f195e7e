#!/usr/bin/env bash
# The one entry point of the benchmark (see README.md):
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Builds the harness and tcsm-serviced in release — build time is in no
# metric — then replaces itself with the harness, run from the root of the
# checkout. The build fails, and so does this script, in a directory that
# holds the benchmark without the crates it measures.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml -p tcsm-benchmark -p tcsm-server 1>&2
exec "$target/release/tcsm-benchmark" "$@"
