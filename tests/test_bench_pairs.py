"""The arithmetic of ``scripts/bench_pairs.py``, on made-up run results, and its
check that both sides hold the same benchmark: no benchmark runs here."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

PASS_S = {"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.2}


def result(pass_s, checks=1056, work=271676, failed=0, attempted=200):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {"pass_s": {"value": pass_s, "unit": "s"},
                        "checks_run": {"value": checks, "unit": "count"},
                        "work_units": {"value": work, "unit": "count"},
                        "layer.fincat.self_s": {"value": 0.05, "unit": "s"}}}


def test_summary_is_the_median_and_inclusive_quartiles():
    assert bench_pairs.summary([4.0, 1.0, 3.0, 2.0]) == {
        "median": 2.5, "q1": 1.75, "q3": 3.25, "runs": [4.0, 1.0, 3.0, 2.0]}
    assert bench_pairs.summary([1.0, 2.0, 3.0, 4.0, 100.0])["median"] == 3.0
    assert bench_pairs.summary([1 / 3, 2 / 3])["runs"] == [0.333333, 0.666667]


def test_a_win_is_a_pair_where_the_change_reads_better_and_ties_count_for_neither():
    parent, change = [1.0, 1.0, 1.0, 1.0], [0.9, 1.0, 1.1, 0.5]
    assert bench_pairs.wins_and_losses(parent, change, "lower") == (2, 1)
    assert bench_pairs.wins_and_losses(parent, change, "higher") == (1, 2)


def test_the_median_change_is_relative_to_the_parent_median():
    assert bench_pairs.median_change([0.2, 0.21, 0.19], [0.18, 0.19, 0.17]) == -0.1
    assert bench_pairs.median_change([2.0, 2.0], [2.0, 2.0]) == 0.0


def test_a_row_gathers_one_metric_over_the_pairs():
    parent = [result(0.21), result(0.20), result(0.22, failed=1)]
    change = [result(0.19), result(0.20), result(0.18)]
    row = bench_pairs.end_to_end_row("index-scale", PASS_S, [1, 2, 3], 30, parent, change)
    assert row["parent"]["median"] == 0.21 and row["change"]["median"] == 0.19
    assert (row["pairs"], row["change_wins"], row["change_losses"]) == (3, 2, 0)
    assert row["median_change"] == pytest.approx(-0.0952)
    assert row["checks_run"] == {"parent": [1056], "change": [1056]}
    assert row["work_units"] == {"parent": [271676], "change": [271676]}
    assert row["failed_over_attempted"] == {"parent": [1, 600], "change": [0, 600]}
    assert row["correct"] == {"parent": False, "change": True}
    assert (row["seeds"], row["seconds"], row["bound"]) == ([1, 2, 3], 30, 0.2)


def test_a_count_that_moves_shows_every_value_seen():
    parent = [result(0.2), result(0.2)]
    change = [result(0.2, checks=1000), result(0.2, checks=1056)]
    row = bench_pairs.end_to_end_row("index-scale", PASS_S, [1, 2], 30, parent, change)
    assert row["checks_run"] == {"parent": [1056], "change": [1000, 1056]}


def test_per_layer_rows_keep_the_metrics_a_traced_run_reports():
    specs = [{"name": "layer.fincat.self_s", "unit": "s"}, {"name": "cli.main.calls", "unit": "count"}]
    rows = bench_pairs.per_layer_rows("index-scale", specs, result(0.2), result(0.2))
    assert rows == [{"workload": "index-scale", "metric": "layer.fincat.self_s", "unit": "s",
                     "parent": [0.05], "change": [0.05]}]


def test_each_workload_gets_ten_pairs_and_no_seed_twice():
    pair_seeds, traced_seeds = bench_pairs.seeds(31, ["pcm-laws", "index-scale"])
    assert bench_pairs.PAIRS == 10
    assert pair_seeds == {"pcm-laws": list(range(31, 41)), "index-scale": list(range(41, 51))}
    assert traced_seeds == {"pcm-laws": 51, "index-scale": 52}
    runs = [result(0.2)] * bench_pairs.PAIRS
    row = bench_pairs.end_to_end_row("index-scale", PASS_S, pair_seeds["index-scale"], 30,
                                     runs, runs)
    assert row["pairs"] == bench_pairs.PAIRS


def git(repo, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=repo,
                   check=True, capture_output=True)


def test_the_benchmark_must_be_the_parents_with_no_untracked_file(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("pass\n")
    (tmp_path / "BENCHMARK.json").write_text("{}\n")
    (tmp_path / "README").write_text("x\n")
    git(tmp_path, "init", "-q")
    git(tmp_path, "add", ".")
    git(tmp_path, "commit", "-q", "-m", "parent")
    assert bench_pairs.same_bench("HEAD", tmp_path)
    (tmp_path / "README").write_text("y\n")
    (tmp_path / "notes.txt").write_text("y\n")
    assert bench_pairs.same_bench("HEAD", tmp_path)  # only the benchmark's files count
    (tmp_path / "perfbench" / "extra.py").write_text("pass\n")
    assert not bench_pairs.same_bench("HEAD", tmp_path)
    (tmp_path / "perfbench" / "extra.py").unlink()
    (tmp_path / "perfbench" / "run.py").write_text("pass  # changed\n")
    assert not bench_pairs.same_bench("HEAD", tmp_path)
