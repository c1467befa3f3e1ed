#!/usr/bin/env bash
# Builds the provider (`aq2pnn-serve`, from the repository's workspace) and
# the benchmark driver (this directory's own workspace) into one target
# directory, then runs the driver with the given arguments.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/.bench_build}"
cargo build --release --offline --quiet -p aq2pnn-server --bin aq2pnn-serve >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/aq2pnn-benchmark" "$@"
