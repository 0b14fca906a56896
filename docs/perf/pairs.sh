#!/usr/bin/env bash
# The ten-alternating-pairs protocol behind a performance claim
# (ROADMAP "How a perf claim is made here"), as one command:
#
#   docs/perf/pairs.sh <workload> <parent-checkout> <change-checkout> [out-prefix] [unseen-seed]
#
# Both checkouts are complete trees of this repository (`git clone` or
# `git archive` of the parent commit and of the change). Each is built
# once with the committed BENCHMARK.json command, then the workload runs
# from each checkout's own root: pairs 1..10 with seeds 101..110, odd
# pairs parent first, even pairs change first, then one more pair on a
# seed no run has used while the change was written (default: taken from
# the clock, printed in the output). Nothing is dropped or re-run.
#
# Writes  <out-prefix>_pairs.txt          one driver-format line per run:
#                                         "pair <i> <side> seed <n> <result JSON>"
#         <out-prefix>_pairs.summary.txt  per metric: each side's median and
#                                         quartiles over pairs 1..10, the
#                                         delta of the medians, wins/ties,
#                                         every value; then the unseen pair
# (default out-prefix: ./<workload>). Outside crates/bench/perf until a
# [benchmark] PR moves it into `perf pairs` (ROADMAP item 5b).
set -euo pipefail

if [ "$#" -lt 3 ]; then
    sed -n '2,22p' "$0" >&2
    exit 2
fi
workload=$1
parent=$(cd "$2" && pwd)
change=$(cd "$3" && pwd)
prefix=${4:-./$workload}
unseen=${5:-$(( $(date +%s) % 900000 + 1000 ))}
runs="${prefix}_pairs.txt"
summary="${prefix}_pairs.summary.txt"

perf() { # <checkout> <args...>: the BENCHMARK.json command, from that checkout's root
    local root=$1
    shift
    (cd "$root" && cargo run --release --quiet --offline \
        --manifest-path crates/bench/perf/Cargo.toml -- "$@")
}

for root in "$parent" "$change"; do
    (cd "$root" && cargo build --release --quiet --offline \
        --manifest-path crates/bench/perf/Cargo.toml)
done

one_run() { # <pair> <side> <seed>
    local root=$parent
    [ "$2" = change ] && root=$change
    local line
    line=$(perf "$root" --workload "$workload" --seed "$3" --seconds 20 --trace 0 | tail -n 1)
    echo "pair $1 $2 seed $3 $line" | tee -a "$runs"
}

: > "$runs"
for pair in 1 2 3 4 5 6 7 8 9 10 11; do
    seed=$((100 + pair))
    [ "$pair" = 11 ] && seed=$unseen
    if [ $((pair % 2)) = 1 ]; then
        one_run "$pair" parent "$seed"
        one_run "$pair" change "$seed"
    else
        one_run "$pair" change "$seed"
        one_run "$pair" parent "$seed"
    fi
done

python3 - "$runs" "$workload" > "$summary" <<'EOF'
import json, statistics, sys

runs, workload = sys.argv[1], sys.argv[2]
sides = {"parent": {}, "change": {}}  # side -> pair -> result
for line in open(runs):
    _, pair, side, _, seed, result = line.split(" ", 5)
    sides[side][int(pair)] = (int(seed), json.loads(result))

def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3

lower_is_better = {"norm_ops_per_s": False}
print(f"workload {workload}; pair i = seed 100+i, odd pairs run the parent first, "
      f"even pairs the change; spread (iqr) = q3 - q1 of a side's ten runs")
for side in ("parent", "change"):
    print(f"correct/failed/attempted {side:6}",
          [(r["correct"], r["failed"], r["attempted"])
           for pair, (_, r) in sorted(sides[side].items()) if pair <= 10])
for metric in sorted(sides["parent"][1][1]["metrics"]):
    rows = {side: [sides[side][p][1]["metrics"][metric]["value"] for p in range(1, 11)]
            for side in sides}
    better = (lambda a, b: a < b) if lower_is_better.get(metric, True) else (lambda a, b: a > b)
    wins = sum(better(c, p) for p, c in zip(rows["parent"], rows["change"]))
    ties = sum(c == p for p, c in zip(rows["parent"], rows["change"]))
    pm, cm = statistics.median(rows["parent"]), statistics.median(rows["change"])
    (pq1, pq3), (cq1, cq3) = quartiles(rows["parent"]), quartiles(rows["change"])
    print(f"{metric:20} parent med {pm:10.3f} [q1 {pq1:.3f} q3 {pq3:.3f}, iqr {pq3 - pq1:.3f}]  "
          f"change med {cm:10.3f} [q1 {cq1:.3f} q3 {cq3:.3f}]  "
          f"delta {100 * (cm - pm) / pm:+.1f}%  wins {wins}/10 ties {ties}")
    for side in ("parent", "change"):
        print(f"   {side:6}", [round(v, 3) for v in rows[side]])
seed = sides["parent"][11][0]
print(f"unseen seed {seed} (pair 11, parent first; not in the medians above)")
for metric in sorted(sides["parent"][11][1]["metrics"]):
    p = sides["parent"][11][1]["metrics"][metric]["value"]
    c = sides["change"][11][1]["metrics"][metric]["value"]
    print(f"   {metric:20} parent {p:10.3f}  change {c:10.3f}  delta {100 * (c - p) / p:+.1f}%")
EOF
cat "$summary"
