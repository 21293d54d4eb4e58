#!/usr/bin/env bash
# The one command of the serve-plane benchmark (see README.md).
#
#   benchmark/run.sh                      all four workloads, untraced
#   benchmark/run.sh --workload image_tcp --seed 2 --trace 1
#   benchmark/run.sh --smoke              1/20 of the steps: plumbing check,
#                                         its numbers are never compared
#   benchmark/run.sh --manifest           prints BENCHMARK.json
#
# Builds offline (into benchmark/target, or $CARGO_TARGET_DIR when set),
# then runs each workload in a fresh process. Every run prints one line per
# metric, `<workload> <metric> <value> <unit>`, an `attempted/failed/correct`
# line and, last, the result JSON. Exit code is non-zero if any delivery
# failed, any oracle check mismatched, or a run outlived its time limit.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"

# Build output goes to stderr: the last line of stdout is the result JSON.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/msd_benchmark"

all_workloads=1
for arg in "$@"; do
  case "$arg" in --workload | --manifest) all_workloads=0 ;; esac
done

# 170 s: inside the 180 s a run may take; a wedged run is killed, not waited for.
run() { timeout 170 "$bin" --trace-dir "$here/target/msd_trace" "$@"; }

if [ "$all_workloads" -eq 0 ]; then
  run "$@"
  exit
fi

status=0
digests=()
for w in image_tcp image_local text_loopback manysrc_loopback; do
  out="$(run --workload "$w" "$@")" || status=1
  printf '%s\n' "$out"
  digests+=("$(sed -n 's/.* stream_digest=\([0-9a-f]*\).*/\1/p' <<<"$out")")
done
# image_tcp and image_local share inputs: what they delivered must be equal.
if [ -n "${digests[0]}" ] && [ "${digests[0]}" != "${digests[1]}" ]; then
  echo "image_tcp and image_local delivered different streams: ${digests[0]} vs ${digests[1]}" >&2
  status=1
fi
exit "$status"
