"""`scripts/bench_pairs.py`: its summary step on hand-made pairs, and its
parent export on a small git repository."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


END_TO_END = [
    {"name": "tokens_per_s", "unit": "tok/s", "better": "higher", "bound": 0.24},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def _pairs(parent_tps, change_tps, parent_setup, change_setup):
    return [
        {
            "parent": {"tokens_per_s": p, "setup_s": ps},
            "change": {"tokens_per_s": c, "setup_s": cs},
        }
        for p, c, ps, cs in zip(parent_tps, change_tps, parent_setup, change_setup)
    ]


def test_medians_quartiles_and_wins_follow_the_direction_of_better(bench_pairs):
    pairs = _pairs(
        [100, 110, 120, 130, 140], [150, 105, 125, 135, 160],
        [0.5, 0.4, 0.3, 0.2, 0.1], [0.6, 0.3, 0.3, 0.1, 0.05],
    )
    got = bench_pairs.summarize(pairs, END_TO_END)
    assert got["tokens_per_s"] == {
        "unit": "tok/s",
        "parent": 120,
        "change": 135,
        "parent_quartiles": [105.0, 135.0],  # statistics.quantiles, exclusive method
        "change_quartiles": [115.0, 155.0],
        "change_wins": 4,  # 105 < 110 is the one loss
        "claim_met": False,  # 4 wins in 5 is under 9 in 10
        "within_bound": True,
    }
    setup = got["setup_s"]
    assert (setup["parent"], setup["change"]) == (0.3, 0.3)
    assert setup["change_wins"] == 3  # lower is better; the tie at 0.3 is no win
    assert setup["parent_quartiles"] == [0.15, 0.45]


def test_values_are_rounded_and_missing_metrics_left_out(bench_pairs):
    pairs = _pairs([1.234567, 2.345678], [3.456789, 4.567891], [0.1, 0.2], [0.1, 0.2])
    del pairs[1]["change"]["setup_s"]
    got = bench_pairs.summarize(pairs, END_TO_END)
    assert set(got) == {"tokens_per_s"}
    assert got["tokens_per_s"]["parent"] == 1.7901
    assert got["tokens_per_s"]["change"] == 4.0123
    assert got["tokens_per_s"]["change_wins"] == 2


def test_one_pair_has_its_value_as_both_quartiles(bench_pairs):
    got = bench_pairs.summarize(_pairs([7.0], [8.0], [1.0], [2.0]), END_TO_END)
    assert got["tokens_per_s"]["parent_quartiles"] == [7.0, 7.0]
    assert got["setup_s"]["change_wins"] == 0


def test_parent_checkout_exports_the_revision_and_removes_it(bench_pairs, tmp_path):
    repo = tmp_path / "repo"
    (repo / "bench").mkdir(parents=True)
    run = repo / "bench" / "run.py"
    run.write_text("parent\n", encoding="utf-8")

    def git(*args):
        subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], check=True, capture_output=True)

    git("init", "-q")
    git("add", "bench/run.py")
    git("commit", "-q", "-m", "parent")
    run.write_text("change\n", encoding="utf-8")  # the working tree moves on
    with bench_pairs.parent_checkout(repo, "HEAD") as tree:
        assert (tree / "bench" / "run.py").read_text(encoding="utf-8") == "parent\n"
        assert not (tree / ".git").exists()
    assert not tree.exists()
    assert run.read_text(encoding="utf-8") == "change\n"


def test_claim_needs_nine_wins_in_ten_and_a_gain_over_the_parent_spread(bench_pairs):
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
    faster = [p - 0.5 for p in parent]
    got = bench_pairs.summarize(_pairs(parent, parent, parent, faster), END_TO_END)
    setup = got["setup_s"]
    assert setup["change_wins"] == 10
    assert setup["parent_quartiles"] == [1.175, 1.725]  # a distance of 0.55 > 0.5
    assert (setup["claim_met"], setup["within_bound"]) == (False, True)

    faster = [p - 0.7 for p in parent]
    faster[3] = parent[3] + 0.1  # one loss in ten
    setup = bench_pairs.summarize(_pairs(parent, parent, parent, faster), END_TO_END)["setup_s"]
    assert (setup["change_wins"], setup["claim_met"]) == (9, True)
    faster[4] = parent[4] + 0.1  # a second loss
    setup = bench_pairs.summarize(_pairs(parent, parent, parent, faster), END_TO_END)["setup_s"]
    assert (setup["change_wins"], setup["claim_met"]) == (8, False)
    # a tie reads as no gain
    assert not bench_pairs.summarize(_pairs(parent, parent, parent, parent),
                                     END_TO_END)["tokens_per_s"]["claim_met"]


def test_within_bound_is_a_fraction_of_the_parent_median_in_the_worse_direction(bench_pairs):
    parent = [100.0, 100.0, 100.0]
    # tokens_per_s: higher is better, bound 0.24
    at_bound = bench_pairs.summarize(_pairs(parent, [76.0] * 3, [1.0] * 3, [1.0] * 3),
                                     END_TO_END)
    assert at_bound["tokens_per_s"]["within_bound"]
    over = bench_pairs.summarize(_pairs(parent, [75.0] * 3, [1.0] * 3, [1.0] * 3), END_TO_END)
    assert not over["tokens_per_s"]["within_bound"]
    # setup_s: lower is better, bound 0.25
    slower = bench_pairs.summarize(_pairs(parent, parent, [0.4] * 3, [0.5] * 3), END_TO_END)
    assert slower["setup_s"]["within_bound"]
    slower = bench_pairs.summarize(_pairs(parent, parent, [0.4] * 3, [0.51] * 3), END_TO_END)
    assert not slower["setup_s"]["within_bound"]
    assert bench_pairs.summarize(_pairs(parent, [500.0] * 3, [0.4] * 3, [0.01] * 3),
                                 END_TO_END)["setup_s"]["within_bound"]


def test_progress_line_shows_every_end_to_end_metric(bench_pairs):
    def run(tps, setup):
        return {"metrics": {"tokens_per_s": {"value": tps}, "setup_s": {"value": setup},
                            "lattice.states": {"value": 9}}}

    sides = {"change": run(2053.25, 0.0448), "parent": run(1931.5, 0.0565)}
    line = bench_pairs.progress_line("short", 101, sides, ["tokens_per_s", "setup_s"])
    assert line == "short seed 101: tokens_per_s 1932 -> 2053, setup_s 0.0565 -> 0.0448"
