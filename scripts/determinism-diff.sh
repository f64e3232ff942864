#!/usr/bin/env bash
# determinism-diff.sh — run a bam-bench binary twice and fail on any drift.
#
# The repository's determinism contract says every harness binary is a pure
# function of its arguments: stdout (and any file it writes) must be
# byte-identical across runs. CI used to copy-paste the same
# run-twice-and-diff block for each binary; this helper is that block.
#
#   scripts/determinism-diff.sh <bin> [--out FILE] [-- ARGS...]
#
#   <bin>        binary name under `cargo run --release -p bam-bench --bin`
#   --out FILE   the binary writes FILE (a BENCH_*.json or an --*-out path);
#                snapshot it between runs and require byte-identity too
#   -- ARGS...   arguments passed through to the binary on both runs
#
# Exits non-zero if either diff fails (diff prints the divergence).
set -euo pipefail

usage() {
  echo "usage: $0 <bin> [--out FILE] [-- ARGS...]" >&2
  exit 2
}

[ $# -ge 1 ] || usage
bin=$1
shift
out=""
while [ $# -gt 0 ]; do
  case $1 in
    --out)
      out=${2:?--out needs a path}
      shift 2
      ;;
    --)
      shift
      break
      ;;
    *)
      usage
      ;;
  esac
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "determinism-diff: $bin${out:+ (tracking $out)} -- $*"
cargo run --release -p bam-bench --bin "$bin" -- "$@" | tee "$tmp/first.out"
if [ -n "$out" ]; then
  cp "$out" "$tmp/first.file"
fi
cargo run --release -p bam-bench --bin "$bin" -- "$@" >"$tmp/second.out"

diff "$tmp/first.out" "$tmp/second.out" || {
  echo "determinism-diff: $bin stdout differs between runs" >&2
  exit 1
}
if [ -n "$out" ]; then
  diff "$tmp/first.file" "$out" || {
    echo "determinism-diff: $bin output file $out differs between runs" >&2
    exit 1
  }
fi
echo "determinism-diff: $bin OK"
