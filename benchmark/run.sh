#!/usr/bin/env bash
# Builds the benchmark offline in release mode and runs it from the
# repository root, passing every argument through:
#
#   benchmark/run.sh [run] [--workload <name>] [--seed <n>] [--seconds <s>]
#                    [--trace [0|1]] [--layers] [--out <file>]
#   benchmark/run.sh compare <a.json> <b.json>
#
# Exits non-zero if the build fails, an operation fails or an output check
# does not match.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/bam-benchmark" "$@"
