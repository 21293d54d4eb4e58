#!/usr/bin/env bash
# A/A harness: runs of the *same* code compared with themselves, so that
# every bound in BENCHMARK.json rests on a measured disagreement.
#
#   benchmark/aa.sh            three sets, each five full untraced runs of
#                              every workload, interleaved (w1 w2 w3 w4,
#                              repeat), seed 1, sets two minutes apart
#   benchmark/aa.sh --spread   one set of ten runs per workload, seeds 1..10:
#                              the quartile spread the driver checks
#
# Prints, per workload × metric: each set's median and quartiles, and the
# largest pairwise relative difference between set medians. README.md has
# the rule that turns the two tables into bounds.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
sets=3 runs=5 spread=0
case "${1:-}" in
  "") ;;
  --spread) spread=1 sets=1 runs=10 ;;
  *) echo "aa.sh: unknown argument $1" >&2; exit 2 ;;
esac

mkdir -p "$here/target/aa"
log="$here/target/aa/$([ "$spread" -eq 1 ] && echo spread || echo aa)-$(date +%Y%m%d-%H%M%S).log"
for set in $(seq 1 "$sets"); do
  if [ "$set" -gt 1 ]; then sleep 120; fi
  for run in $(seq 1 "$runs"); do
    s=$([ "$spread" -eq 1 ] && echo "$run" || echo 1)
    for w in image_tcp image_local text_loopback manysrc_loopback; do
      # A failed run is tallied below, not fatal here.
      json="$("$here/run.sh" --workload "$w" --seed "$s" --trace 0 | tail -n 1)" || true
      echo "$set $w $json" >>"$log"
      echo "set $set run $run $w seed $s done" >&2
    done
  done
done
echo "runs logged in $log" >&2

python3 - "$log" <<'PY'
import json, statistics, sys
from collections import defaultdict

values = defaultdict(lambda: defaultdict(list))  # (workload, metric) -> set -> [values]
order, bad = [], 0
for line in open(sys.argv[1]):
    run_set, workload, result = line.split(" ", 2)
    try:
        result = json.loads(result)
    except ValueError:  # The run died before printing a result.
        bad += 1
        continue
    bad += result["failed"] + (not result["correct"])
    for metric, m in result["metrics"].items():
        key = (workload, metric)
        if key not in values:
            order.append(key)
        values[key][int(run_set)].append(m["value"])

print(f"{'workload':17} {'metric':23} {'max diff':>8}  per set: median [q1 .. q3] (iqr/median)")
for key in order:
    cells, medians = [], []
    for s in sorted(values[key]):
        v = values[key][s]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
        medians.append(med)
        cells.append(f"{med:.6g} [{q1:.6g} .. {q3:.6g}] ({(q3 - q1) / med:.2%})")
    diff = max(abs(a - b) / min(a, b) for a in medians for b in medians)
    print(f"{key[0]:17} {key[1]:23} {diff:8.2%}  " + "  |  ".join(cells))
print(f"failed deliveries or incorrect runs: {bad}")
sys.exit(1 if bad else 0)
PY
