"""Smoke tests of the benchmark itself: `python3 -m pytest bench -q`.

Every workload runs at a tiny size with a fixed seed through the real
command line; the printed metrics must be exactly those BENCHMARK.json
names, each with its unit, and no sentence may fail.  The referees must
count deliberately corrupted outputs as failures.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
META = json.loads((BENCH / "meta.json").read_text(encoding="utf-8"))
SEED = 7


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_tiny_run_prints_the_declared_metrics(workload, trace):
    proc = run_bench(
        ROOT, "--workload", workload, "--seed", str(SEED), "--seconds", "1",
        "--trace", trace, "--max-sentences", "1",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    human = [line.split() for line in proc.stdout.splitlines()[:-1] if not line.startswith("#")]
    printed = {fields[0]: fields[-1] for fields in human}
    if trace == "0":
        assert float(human[0][1]) == 0.0 and printed.pop("error_rate") == "ratio"
    assert printed == expected


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "short", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.fixture(scope="module")
def demo():
    workload = harness.make_workload("short")
    pipeline, _ = harness.timed_setups(workload, 1)
    return pipeline


def test_corrupted_table_is_counted_as_failed(demo, monkeypatch):
    workload = harness.make_workload("short", max_sentences=2)
    render = harness.cli.render_table
    monkeypatch.setattr(harness.cli, "render_table", lambda result: render(result) + "x")
    [stats] = harness.measure(demo, workload, SEED, 0)
    assert stats.attempted == 2 and stats.failed == 2


def test_raising_sentence_is_counted_as_failed(demo, monkeypatch):
    workload = harness.make_workload("short", max_sentences=1)

    def boom(result):
        raise RuntimeError("render failed")

    monkeypatch.setattr(harness.cli, "render_table", boom)
    [stats] = harness.measure(demo, workload, SEED, 0)
    assert stats.attempted == 1 and stats.failed == 1


def test_wrong_diagnosis_is_a_failure():
    workload = harness.make_workload("reject", max_sentences=1)
    pipeline, _ = harness.timed_setups(workload, 1)
    item = workload.items[0]
    tokens, result, out = harness.process(pipeline, item)
    assert harness.check(pipeline, item, tokens, result, out) == []
    blamed = dataclasses.replace(result, diagnosis=(pipeline.rules[0].name,))
    assert harness.check(pipeline, item, tokens, blamed, out)
    accepted = dataclasses.replace(result, status="ok")
    assert harness.check(pipeline, item, tokens, accepted, out)


def test_stress_referees_catch_corrupted_records(demo):
    item = next(i for i in harness.make_workload("long").items if i.name == "stress43")
    tokens, result, out = harness.process(demo, item)
    assert harness.check(demo, item, tokens, result, out) == []

    wrong_count = dataclasses.replace(item, survivors=item.survivors + 1)
    assert harness.check(demo, wrong_count, tokens, result, out)

    lines = out.splitlines()
    fields = lines[0].split("\t")
    fields[4] = "ADV"  # not a reading of the first word
    not_in_lattice = "\n".join(["\t".join(fields)] + lines[1:]) + "\n"
    assert harness.check(demo, item, tokens, result, not_in_lattice)

    first = [line for line in lines if line.split("\t")[1] == "1"]
    second = [line.replace("\t1\t", "\t2\t", 1) for line in first]
    rest = [line for line in lines if line.split("\t")[1] not in ("1", "2")]
    duplicated = "\n".join(first + second + rest) + "\n"
    assert harness.check(demo, item, tokens, result, duplicated)


def test_sentence_time_sums_the_best_of_each_part():
    # (rest, step 1, step 2) per run: each part's best comes from another run
    stats = harness.Measured(parts={"s": [(1.0, 2.0, 3.0), (2.0, 1.0, 4.0)]}, tokens={"s": 10})
    assert stats.best() == {"s": 5.0}
    assert stats.tokens_per_s() == 2.0


def test_meta_matches_the_benchmark():
    assert META["default_seed"] == harness.DEFAULT_SEED
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    assert workloads <= set(harness.WORKLOADS)
    for layer_metric, targets in META["layer_to_end_to_end"].items():
        assert layer_metric in per_layer, layer_metric
        for target in targets:
            assert target["metric"] in end_to_end | {"error_rate"}, target
            assert set(target["workloads"]) <= set(harness.WORKLOADS), target
