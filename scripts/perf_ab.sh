#!/usr/bin/env bash
# A/B the benchmark between two source trees, in alternating pairs.
#
#   scripts/perf_ab.sh PARENT_TREE CHANGE_TREE WORKLOAD PAIRS [FIRST_SEED]
#
# Builds perfbench in each tree into that tree's own target directory
# (TREE/perfbench/target), then runs PAIRS pairs of `--trace 0` runs of
# WORKLOAD, each from its tree's root, at the run length BENCHMARK.json
# sets (`run_seconds`). Pair i uses seed FIRST_SEED + i (default
# FIRST_SEED 1); even pairs run the parent first, odd pairs the change.
#
# Prints one line per run (side, seed, wall time, every end-to-end
# metric), then one row per end-to-end metric: both sides' medians and
# quartiles, the median ratio change/parent, and the pairs the change
# won (by the metric's `better` direction; ties count for neither side).
# Exits 1 if any run failed or reported anything but `"correct": true,
# "failed": 0`, 2 on bad usage. Killed by INT or TERM, it stops its
# running build or benchmark run, together with the processes that one
# started, and exits 130 or 143. Close other work while it runs: the
# benchmark pins its timed rounds to the machine's CPUs.
set -uo pipefail

if [ $# -lt 4 ] || [ $# -gt 5 ] || [ ! -d "$1/perfbench" ] || [ ! -d "$2/perfbench" ]; then
  echo "usage: scripts/perf_ab.sh PARENT_TREE CHANGE_TREE WORKLOAD PAIRS [FIRST_SEED]" >&2
  exit 2
fi
parent=$(realpath "$1")
change=$(realpath "$2")
workload=$3
pairs=$4
first_seed=${5:-1}

run_seconds() {
  python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$1/BENCHMARK.json"
}
seconds=$(run_seconds "$parent")
if [ "$seconds" != "$(run_seconds "$change")" ]; then
  echo "perf_ab: the trees' BENCHMARK.json set different run_seconds" >&2
  exit 2
fi

results=$(mktemp)
out=$(mktemp)
stderr=$(mktemp)
trap 'rm -f "$results" "$out" "$stderr"' EXIT

# Each child runs under `setsid`, in a session of its own, so a signal
# can stop it and whatever it started (cargo's rustc processes) without
# touching any process outside this script. The script waits with
# `wait`, which a trapped signal interrupts at once.
child=
# args: pid of the child just started; returns its exit status.
wait_child() {
  child=$1
  wait "$child"
  local status=$?
  child=
  return "$status"
}
# args: exit status; stops the running child and exits.
stop() {
  trap - INT TERM
  if [ -n "$child" ]; then
    kill -TERM -- "-$child" 2>/dev/null || kill -TERM "$child" 2>/dev/null
    wait "$child" 2>/dev/null
  fi
  echo "perf_ab: interrupted" >&2
  exit "$1"
}
trap 'stop 130' INT
trap 'stop 143' TERM

for tree in "$parent" "$change"; do
  echo "# building $tree/perfbench" >&2
  CARGO_TARGET_DIR="$tree/perfbench/target" setsid cargo build --release --quiet --offline \
    --manifest-path "$tree/perfbench/Cargo.toml" &
  wait_child $! || exit 1
done

# args: side tree seed; appends "side<TAB>seed<TAB>wall-ns<TAB>result-line".
# A run's stderr is shown only when it prints no result line.
run_one() {
  local side=$1 tree=$2 seed=$3 start line
  start=$(date +%s%N)
  cd "$tree" || exit 1
  setsid perfbench/target/release/sxv-perfbench --workload "$workload" \
    --seed "$seed" --seconds "$seconds" --trace 0 >"$out" 2>"$stderr" &
  wait_child $!
  line=$(tail -n 1 "$out")
  printf '%s\t%s\t%s\t%s\n' "$side" "$seed" "$(($(date +%s%N) - start))" "$line" >>"$results"
  case $line in
    '{'*) ;;
    *) tail -n 5 "$stderr" | sed "s/^/# $side seed $seed: /" >&2 ;;
  esac
}

for ((i = 0; i < pairs; i++)); do
  seed=$((first_seed + i))
  if ((i % 2 == 0)); then
    run_one parent "$parent" "$seed"
    run_one change "$change" "$seed"
  else
    run_one change "$change" "$seed"
    run_one parent "$parent" "$seed"
  fi
  echo "# $workload pair $((i + 1))/$pairs done" >&2
done

python3 - "$change/BENCHMARK.json" "$results" "$workload" <<'EOF'
import json, statistics, sys

bench, results, workload = sys.argv[1:]
metrics = json.load(open(bench))["end_to_end"]
runs, ok = {"parent": {}, "change": {}}, True
for row in open(results):
    side, seed, wall, line = row.rstrip("\n").split("\t", 3)
    try:
        out = json.loads(line)
    except ValueError:
        out = {}
    good = out.get("correct") is True and out.get("failed") == 0
    ok &= good
    values = {k: v["value"] for k, v in out.get("metrics", {}).items()}
    runs[side][seed] = values if good else None
    shown = " ".join(f"{m['name']}={values.get(m['name'])}" for m in metrics)
    print(f"run {workload} {side} seed={seed} wall_s={int(wall) / 1e9:.1f} "
          f"{'ok' if good else 'FAILED'} {shown}")

seeds = sorted(set(runs["parent"]) & set(runs["change"]), key=int)
pairs = [s for s in seeds if runs["parent"][s] and runs["change"][s]]

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

print(f"{workload}: {len(pairs)} complete pairs")
print(f"{'metric':<16} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30} "
      f"{'ratio':>7} {'won':>6}")
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    a = [runs["parent"][s].get(name) for s in pairs]
    b = [runs["change"][s].get(name) for s in pairs]
    if not pairs or None in a or None in b:
        print(f"{name:<16} missing")
        continue
    won = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
    (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
    ratio = bm / am if am else float("nan")
    print(f"{name:<16} {f'{am:.5g} [{a1:.5g}, {a3:.5g}]':>30} "
          f"{f'{bm:.5g} [{b1:.5g}, {b3:.5g}]':>30} {ratio:>6.3f}x {won:>3}/{len(a)}")
sys.exit(0 if ok else 1)
EOF
