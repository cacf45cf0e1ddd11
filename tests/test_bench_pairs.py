"""Pair statistics of tools/bench_pairs.py, which writes the BENCH_*.json records."""

import importlib.util
import statistics
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)  # tools/ is not a package


def run(side, seed, cal, correct=True):
    return {"side": side, "seed": seed, "correct": correct, "failed": 0,
            "setup_s": 0.17, "pass_cal": cal, "peak_rss_mb": 44.0}


def pairs(parent_cal, change_cal):
    return [r for i, (p, c) in enumerate(zip(parent_cal, change_cal))
            for r in (run("parent", 9701 + i, p), run("change", 9701 + i, c))]


def test_spread_is_the_inclusive_quartiles():
    assert bench_pairs.spread([5.0, 1.0, 3.0, 2.0, 4.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "iqr": 2.0}


def test_summary_compares_the_medians_and_counts_ties_for_neither_side():
    parent, change = [470.0, 480.0, 460.0, 500.0], [450.0, 480.0, 470.0, 490.0]
    out = bench_pairs.summarize(pairs(parent, change), 4)
    assert out["correct_all"] and out["seeds"] == [9701, 9702, 9703, 9704]
    cal = out["metrics"]["pass_cal"]
    assert cal["change_lower_in_pairs"] == "2/4"  # pair 2 ties, pair 3 is the parent's
    assert cal["change_over_parent_median"] == statistics.median(change) / statistics.median(
        parent)
    assert cal["parent_runs"] == parent and cal["change_runs"] == change
    assert cal["parent"] == bench_pairs.spread(parent)
    assert out["metrics"]["setup_s"]["change_lower_in_pairs"] == "0/4"


@pytest.mark.parametrize("defect", ["incorrect_run", "missing_pair"])
def test_summary_writes_no_metrics_unless_every_run_is_correct_and_present(defect):
    runs = pairs([470.0, 480.0, 460.0], [450.0, 470.0, 455.0])
    if defect == "incorrect_run":  # a run that printed no result carries no metrics
        runs[3] = {"side": "change", "seed": 9702, "correct": False, "failed": None}
    else:
        runs = runs[:-2]
    out = bench_pairs.summarize(runs, 3)
    assert out["correct_all"] is False and out["metrics"] == {}


@pytest.mark.parametrize("value", ["1", None])
def test_machine_records_the_bytecode_setting(monkeypatch, value):
    # Runs without a bytecode cache compile src/ at every set-up.
    if value is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
    assert bench_pairs.machine()["PYTHONDONTWRITEBYTECODE"] == value
