#!/bin/bash
# The benchmark's one command. Builds both binaries from source, then
# runs `perf` with the arguments given:
#   --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run
#   (none) | --quick | --ab                                    the set
# Build output goes to $CARGO_TARGET_DIR, or target/perf when unset.
set -eu
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/perf}"
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perf" "$@"
