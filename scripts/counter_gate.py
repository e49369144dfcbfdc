#!/usr/bin/env python3
"""Gate a fresh `eval --smoke` run on its work counters.

    python3 scripts/counter_gate.py FRESH_EVAL COMMITTED_EVAL FRESH_PLANS COMMITTED_PLANS

Plans and the work they do are deterministic, so every D1 row of the
fresh BENCH_eval.json must equal the committed row with the same
(query, dataset, approach, backend) on the result count, every work
counter, the plan's operator count and mix, and its estimated rows; and
the fresh PLANS_eval.json must equal the committed one byte for byte.
Timings are not compared here. Exits 1 naming every differing cell, and
prints a one-line summary otherwise. A change that alters a plan or its
work regenerates both files (`eval --smoke --json BENCH_eval.json
--plans PLANS_eval.json`) and explains each changed cell.
"""

import json
import sys

COLUMNS = (
    "result_count",
    "nodes_touched",
    "qualifier_checks",
    "index_lookups",
    "merge_steps",
    "interval_probes",
    "plan_ops",
    "plan_mix",
    "est_rows",
)


def key(row):
    return (row["query"], row["dataset"], row["approach"], row["backend"])


def main(fresh_eval, committed_eval, fresh_plans, committed_plans):
    fresh = [r for r in json.load(open(fresh_eval))["rows"] if r["dataset"] == "D1"]
    committed = {key(r): r for r in json.load(open(committed_eval))["rows"]}
    problems = []
    if not fresh:
        problems.append("the fresh run recorded no D1 rows")
    for row in fresh:
        base = committed.get(key(row))
        if base is None:
            problems.append(f"{key(row)}: no committed row")
            continue
        for col in COLUMNS:
            if row[col] != base[col]:
                problems.append(f"{key(row)} {col}: committed {base[col]!r}, fresh {row[col]!r}")
    fresh_keys = {key(r) for r in fresh}
    for k in sorted(k for k in committed if k[1] == "D1" and k not in fresh_keys):
        problems.append(f"{k}: committed row missing from the fresh run")
    if open(fresh_plans, "rb").read() != open(committed_plans, "rb").read():
        problems.append(f"{fresh_plans} differs from {committed_plans}")
    if problems:
        print(f"work-counter gate: {len(problems)} differences", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    print(
        f"work-counter gate: {len(fresh)} D1 rows match on all {len(COLUMNS)} columns; "
        f"{fresh_plans} is byte-identical"
    )
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 5:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        sys.exit(2)
    sys.exit(main(*sys.argv[1:]))
