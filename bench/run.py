#!/usr/bin/env python3
"""fslat benchmark driver.

    python3 bench/run.py --workload short|long|reject --seed N --seconds S --trace 0|1

Runs fslat in-process from the checkout's `src/` tree, one workload per
process.  With `--trace 0` it measures the end-to-end metrics with tracing
off; with `--trace 1` it runs the separate traced pass and prints the
per-layer metrics, writing the spans and a report under `.bench_out/`.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
Metric names, units and bounds are in BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_harness():
    """Import the harness against the checkout's own fslat sources."""
    if not (SRC / "fslat" / "__init__.py").is_file():
        sys.exit(f"bench: no fslat sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import harness

    if Path(harness.fslat.__file__).resolve().parent != SRC / "fslat":
        sys.exit(f"bench: imported fslat from {harness.fslat.__file__}, not {SRC}")
    return harness


def parse_args(argv, harness, spec):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--max-sentences",
        type=int,
        default=None,
        help="keep only the N shortest sentences of the workload (smoke tests)",
    )
    return parser.parse_args(argv)


def main(argv=None):
    harness = load_harness()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse_args(argv, harness, spec)
    if args.trace:
        values, attempted, failed, report = harness.run_traced(
            args.workload, args.seed, args.seconds, args.max_sentences
        )
        print(f"# {args.workload} seed {args.seed}, traced: report in {report}")
    else:
        values, stats = harness.run_plain(
            args.workload, args.seed, args.seconds, args.max_sentences
        )
        attempted, failed = stats.attempted, stats.failed
        runs = sorted(len(times) for times in stats.times.values())
        print(
            f"# {args.workload} seed {args.seed}: {sum(runs)} timed runs of {len(runs)} sentences,"
            f" each sentence's best of {runs[0]} to {runs[-1]}; {attempted} outputs refereed"
        )
        # 0 by design, so not a bounded metric: the result line carries it as
        # `failed` over `attempted`.
        print(f"{'error_rate':34s} {failed / attempted:16.6f} ratio")
    unit = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in values.items():
        print(f"{name:34s} {value:16.6f} {unit[name]}")
    metrics = {name: {"value": value, "unit": unit[name]} for name, value in values.items()}
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
