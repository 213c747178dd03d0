#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and summarize them.

    python3 scripts/bench_pairs.py --parent REV --out BENCH_<n>.json \\
        [--change TEXT] [--host TEXT]

For each seed of `SEEDS`, and for each workload of `BENCHMARK.json` within
it, `bench/run.py --trace 0` runs for `BENCHMARK.json`'s `run_seconds` once
on the parent revision and once on the working tree, the parent first on
even seeds and the change first on odd ones, so a slow spell on the host
falls on both sides alike.  The parent is exported with `git archive` into
a temporary directory, which is removed afterwards.

The output file lists every pair's end-to-end values and, per workload and
metric, the parent's and the change's median, their quartiles
(`statistics.quantiles`, n=4) and `change_wins`, the number of pairs in
which the change reads better, with "better" taken from `BENCHMARK.json`.
Two verdicts follow from those:

- `claim_met`: the change wins at least 9 pairs in 10, and its median is
  better than the parent's by more than the parent's quartile distance;
- `within_bound`: the change's median is not worse than the parent's by
  more than the metric's `bound` in `BENCHMARK.json`, a fraction of the
  parent's median.

It is rewritten after every pair, so an interrupted run keeps the pairs it
finished, and each pair prints one progress line with every end-to-end
metric of both sides.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(101, 111)
DIGITS = 4


def summarize(pairs, end_to_end):
    """Per metric of `end_to_end` (BENCHMARK.json's list), the medians,
    quartiles, change wins and the two verdicts over `pairs`, each a dict
    with the `parent` and `change` runs' `{metric: value}`.  A metric that
    some run lacks is left out."""
    metrics = {}
    for spec in end_to_end:
        name = spec["name"]
        if not all(name in pair[side] for pair in pairs for side in ("parent", "change")):
            continue
        parent = [pair["parent"][name] for pair in pairs]
        change = [pair["change"][name] for pair in pairs]
        sign = 1 if spec["better"] == "higher" else -1  # > 0 where the change is better
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        parent_median, change_median = statistics.median(parent), statistics.median(change)
        gain = sign * (change_median - parent_median)
        q1, q3 = _quartiles(parent)
        metrics[name] = {
            "unit": spec["unit"],
            "parent": round(parent_median, DIGITS),
            "change": round(change_median, DIGITS),
            "parent_quartiles": [round(q, DIGITS) for q in (q1, q3)],
            "change_quartiles": [round(q, DIGITS) for q in _quartiles(change)],
            "change_wins": wins,
            "claim_met": 10 * wins >= 9 * len(pairs) and gain > q3 - q1,
            "within_bound": -gain <= spec["bound"] * parent_median,
        }
    return metrics


def _quartiles(values):
    if len(values) < 2:
        return [values[0]] * 2
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def run_bench(tree, workload, seed, seconds):
    """The last output line of one untraced `bench/run.py` run in `tree`."""
    command = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


@contextmanager
def parent_checkout(repo, revision):
    """The files of `revision` in the git repository `repo`, exported with
    `git archive` into a temporary directory that is removed on exit."""
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        tar = subprocess.run(["git", "-C", str(repo), "archive", "--format=tar", revision],
                             capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=tar, capture_output=True, check=True)
        yield Path(tmp)


def _values(metrics, wanted):
    """The values of the `wanted` metrics in a run's `metrics`."""
    return {name: metrics[name]["value"] for name in wanted if name in metrics}


def progress_line(workload, seed, sides, wanted):
    """One pair's line: each `wanted` metric's parent and change values,
    from the `sides` runs' `metrics`."""
    values = {side: _values(run["metrics"], wanted) for side, run in sides.items()}
    shown = [
        f"{name} {values['parent'][name]:.4g} -> {values['change'][name]:.4g}"
        for name in wanted
        if name in values["parent"] and name in values["change"]
    ]
    return f"{workload} seed {seed}: " + ", ".join(shown)


def record(args, seconds, end_to_end, results):
    """The `BENCH_<n>.json` document for the pairs run so far."""
    wanted = [spec["name"] for spec in end_to_end]
    workloads = {}
    for workload, runs in results.items():
        if not runs:
            continue
        values = [
            {side: _values(run["metrics"], wanted) for side, run in sides.items()}
            for _, sides in runs
        ]
        every = [run for _, sides in runs for run in sides.values()]
        workloads[workload] = {
            "seeds": [seed for seed, _ in runs],
            "correct": all(run["correct"] for run in every),
            "failed": sum(run["failed"] for run in every),
            "metrics": summarize(values, end_to_end),
            "pairs": [
                {"seed": seed, **{side: {name: round(value, DIGITS) for name, value in got.items()}
                                  for side, got in pair.items()}}
                for (seed, _), pair in zip(runs, values)
            ],
        }
    return {
        "change": args.change,
        "command": (
            f"python3 bench/run.py --workload W --seed S --seconds {seconds:g} --trace 0"
        ),
        "seconds": seconds,
        "order": "parent first on even seeds, change first on odd seeds",
        "host": args.host,
        "statistic": (
            "median over the pairs, with quartiles (statistics.quantiles, n=4); change_wins "
            "counts pairs where the change reads better; claim_met: at least 9 wins in 10 "
            "and a median gain over the parent's quartile distance; within_bound: the "
            "change's median no worse than the parent's by more than BENCHMARK.json's "
            "bound; pairs lists every pair's values"
        ),
        "workloads": workloads,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json file to write")
    parser.add_argument("--change", default="", help="what the change does, for the record")
    parser.add_argument("--host", default="", help="the machine and Python, for the record")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    workloads = [workload["name"] for workload in spec["workloads"]]
    wanted = [metric["name"] for metric in spec["end_to_end"]]
    out = Path(args.out)
    results = {workload: [] for workload in workloads}
    with parent_checkout(ROOT, args.parent) as parent:
        for seed in SEEDS:
            for workload in workloads:
                sides = {}
                order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
                for side in order:
                    tree = parent if side == "parent" else ROOT
                    sides[side] = run_bench(tree, workload, seed, seconds)
                results[workload].append((seed, {s: sides[s] for s in ("parent", "change")}))
                out.write_text(json.dumps(record(args, seconds, spec["end_to_end"], results),
                                          indent=1) + "\n", encoding="utf-8")
                print(progress_line(workload, seed, sides, wanted), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
