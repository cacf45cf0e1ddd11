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
    return {"side": side, "seed": seed, "correct": correct, "failed": 0, "steal_ticks": 0,
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


def test_summary_gives_each_sides_steal_median_and_max():
    runs = pairs([470.0, 480.0, 460.0], [450.0, 470.0, 455.0])
    for r, ticks in zip(runs, [3, 0, 40, 2, 5, 1]):  # parent, change of each pair
        r["steal_ticks"] = ticks
    assert bench_pairs.summarize(runs, 3)["steal_ticks"] == {
        "parent": {"median": 5, "max": 40}, "change": {"median": 1, "max": 2}}
    runs[1]["steal_ticks"] = None  # /proc/stat unreadable around one change run
    assert bench_pairs.summarize(runs, 3)["steal_ticks"] == {
        "parent": {"median": 5, "max": 40}, "change": None}


@pytest.mark.parametrize("value", ["1", None])
def test_machine_records_the_bytecode_setting(monkeypatch, value):
    # Runs without a bytecode cache compile src/ at every set-up.
    if value is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
    assert bench_pairs.machine()["PYTHONDONTWRITEBYTECODE"] == value


LAYER = "leverage.optimal_beta_ms.quadratic.capped"


def test_summary_compares_layer_metrics_of_the_traced_runs_only():
    runs = pairs([470.0, 480.0, 460.0], [450.0, 470.0, 455.0])
    for i, (p, c) in enumerate([(3.0, 2.0), (3.4, 3.5), (2.9, 2.5)]):
        for side, ms in (("parent", p), ("change", c)):
            runs.append({"side": side, "seed": 9701 + i, "traced": True, "correct": True,
                         "failed": 0, "steal_ticks": 0, LAYER: ms})
    out = bench_pairs.summarize(runs, 3, (LAYER,))
    assert out["correct_all"] and out["seeds"] == [9701, 9702, 9703]
    layer = out["layers"][LAYER]
    assert layer["parent_runs"] == [3.0, 3.4, 2.9] and layer["change_runs"] == [2.0, 3.5, 2.5]
    assert layer["change_lower_in_pairs"] == "2/3"
    assert layer["change_over_parent_median"] == 2.5 / 3.0
    assert out["metrics"]["pass_cal"]["parent_runs"] == [470.0, 480.0, 460.0]


def test_summary_gives_no_ratio_for_a_layer_the_workload_does_not_exercise():
    runs = pairs([470.0, 480.0], [450.0, 470.0])
    runs += [{"side": side, "seed": 9701 + i, "traced": True, "correct": True, "failed": 0,
              LAYER: 0.0} for i in range(2) for side in ("parent", "change")]
    layer = bench_pairs.summarize(runs, 2, (LAYER,))["layers"][LAYER]
    assert layer["change_over_parent_median"] is None and layer["change_lower_in_pairs"] == "0/2"


def test_summary_needs_a_traced_run_of_each_side_per_pair_for_layers():
    runs = pairs([470.0, 480.0, 460.0], [450.0, 470.0, 455.0])
    runs.append({"side": "parent", "seed": 9701, "traced": True, "correct": True,
                 "failed": 0, LAYER: 3.0})
    out = bench_pairs.summarize(runs, 3, (LAYER,))
    assert out["correct_all"] is False and out["metrics"] == {} and out["layers"] == {}


def test_layer_runs_are_traced_and_read_the_layer_metrics(monkeypatch, tmp_path):
    args = bench_pairs.parse_args(["--workload", "analytic_quadratic:8", "--topic", "t",
                                   "--change", "c", "--out", "o.json",
                                   "--layer", LAYER, "--layer", "e2e.wall_s"])
    assert args.layer == [LAYER, "e2e.wall_s"]
    calls = []

    class Done:
        returncode, stderr = 0, ""
        stdout = 'x = 1\n{"correct": true, "failed": 0, "metrics": {"%s": {"value": 2.5}, ' \
                 '"e2e.wall_s": {"value": 0.2}}}\n' % LAYER

    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda cmd, **kw: calls.append(cmd) or Done)
    rec = bench_pairs.run_once(tmp_path, "analytic_quadratic", 9701, 32.0, tuple(args.layer))
    assert calls == [("python3 perfbench/run.py --workload analytic_quadratic --seed 9701 "
                      "--seconds 32 --trace 1").split()]
    assert rec[LAYER] == 2.5 and rec["e2e.wall_s"] == 0.2 and rec["correct"]
    assert "pass_cal" not in rec
