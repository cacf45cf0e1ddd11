"""The benchmark's own tests: smoke runs, failing checks, repeatable counts.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import copy
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import checks
import inputs
import run
import workloads
from letfgrowth.cli import run_figures
from letfgrowth.eigen import default_grid, eigenpair, generator_residual
from letfgrowth.growth import GrowthCurvePoint, growth_curve
from letfgrowth.leverage import optimal_beta
from letfgrowth.mc import MartingaleEstimate, desk_config
from letfgrowth.riccati import anti_stabilizing_riccati, solve_stabilizing_riccati
from tracing import NullTracer, Tracer

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload to seconds: fewer instances, short MC runs."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(inputs, "SEEDED_PER_KIND", 1)
    monkeypatch.setattr(inputs, "RICCATI_PER_DIM", 1)
    monkeypatch.setattr(inputs, "QUADRATIC_DIMS", (1, 2))
    monkeypatch.setattr(workloads, "DESK_PATHS", 1000)
    monkeypatch.setattr(workloads, "DESK_BLOCK", 500)
    monkeypatch.setattr(workloads, "GARCH_INF_T", 2.0)
    monkeypatch.setattr(workloads, "GARCH_INF_STEPS", 400)
    monkeypatch.setattr(workloads, "DENSE_PATHS", 2000)
    monkeypatch.setattr(workloads, "DENSE_CHECKPOINTS", 25)
    monkeypatch.setattr(workloads, "desk_config",
                        lambda vp, seed, n_paths: desk_config(vp, seed=seed, horizon=1.0,
                                                              n_paths=n_paths))
    return tmp_path


def one_pass(name, seed, scratch, tracer=None):
    wl = workloads.WORKLOADS[name](seed, scratch)
    wl.warmup()
    phase = run.run_phase(wl, tracer or NullTracer(), seconds=0.0)
    return wl, phase


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_smoke_run_completes(tiny, name):
    tracer = Tracer()
    wl, phase = one_pass(name, 3, tiny, tracer)
    wl.probes(tracer)
    assert len(phase.pass_walls) == 1
    assert phase.attempted == len(wl.ops)
    assert not [f for f in phase.failures if ": raised " in f]
    if name.startswith("analytic"):
        assert phase.failures == []
    spans = tracer.spans
    assert spans and all(s["end"] >= s["start"] for s in spans)
    assert all(s["parent"] is None or s["parent"] < s["id"] for s in spans)


def test_count_metrics_repeat_exactly(tiny, monkeypatch):
    # d = 4 brings the defect probe's curve points that raise a numpy LinAlgError.
    monkeypatch.setattr(inputs, "QUADRATIC_DIMS", (4,))
    for name in ("analytic_scalar", "analytic_quadratic", "oracle_desk"):
        first, _ = one_pass(name, 5, tiny)
        first.probes(NullTracer())
        second, _ = one_pass(name, 5, tiny)
        second.probes(NullTracer())
        assert first.counts == second.counts
        assert first.counts
    assert first.known_defects == second.known_defects
    gaps = [v for k, v in first.counts.items() if k.startswith("mc.slope_gap_se.")]
    assert len(gaps) > len(inputs.KINDS) and min(gaps) >= 0.0  # + gbm_dense
    vp = inputs.quadratic_problems(5)[1][2]
    evals = []
    for _ in range(2):
        with workloads.ObjectiveCounter() as counter:
            optimal_beta(vp, cap=inputs.CAP)
        evals.append(counter.n)
    assert evals[0] == evals[1] > 0


def test_inputs_follow_the_seed():
    a, b, c = (inputs.scalar_problems(s) for s in (1, 1, 2))
    assert [vp.problem for *_, vp in a] == [vp.problem for *_, vp in b]
    assert [vp.problem for *_, vp in a] != [vp.problem for *_, vp in c]
    ra, rb = inputs.riccati_instances(4), inputs.riccati_instances(4)
    assert all(np.array_equal(x[1], y[1]) for x, y in zip(ra, rb))


# ---------------------------------------------------------------------------
# Every check can fail, and a failing check is a failed operation
# ---------------------------------------------------------------------------

def test_perturbed_reference_fails_and_counts(tiny, monkeypatch):
    ref = copy.deepcopy(checks.load_reference())
    ref["gbm"]["curve"][30][1] *= 1.0 + 1e-6
    monkeypatch.setattr(checks, "load_reference", lambda: ref)
    wl, phase = one_pass("analytic_scalar", 3, tiny)
    assert len(phase.failures) == 1
    assert "gbm/catalog" in phase.failures[0] and "reference" in phase.failures[0]


def test_curve_check_error_points():
    vp = inputs.problem(inputs.CATALOG["gbm"])
    points = growth_curve(vp, inputs.BETA_GRID)
    assert checks.check_curve(points, 601, None) == []
    doc = list(points)
    doc[350] = GrowthCurvePoint(0.5, None, "NoStabilizingSolution: no branch")
    assert checks.error_points(doc) == (1, 0)
    assert checks.check_curve(doc, 601, None) == []
    undoc = list(points)
    undoc[500] = GrowthCurvePoint(2.0, None, "LinAlgError: Singular matrix")
    assert checks.error_points(undoc) == (0, 1)
    assert "undocumented" in checks.check_curve(undoc, 601, None)[0]
    assert checks.check_curve(points[:-1], 601, None)


def test_optimum_check_rejects_a_non_maximizer():
    for kind in ("heston_sv", "quadratic"):
        vp = inputs.problem(inputs.CATALOG[kind])
        opt = optimal_beta(vp, cap=inputs.CAP)
        assert checks.check_optimum(vp, opt, inputs.CAP, None) == []
        wrong = replace(opt, beta_star=opt.beta_star + 0.1, rate_at_star=None)
        assert "not a maximizer" in checks.check_optimum(vp, wrong, inputs.CAP, None)[0]
        ref = checks.optimum_summary(opt)
        assert checks.check_optimum(vp, opt, inputs.CAP, ref) == []
        ref["beta_star"] += 1e-3
        assert checks.check_optimum(vp, opt, inputs.CAP, ref)


def test_residual_check_fails_on_residual_and_eigenvalue():
    vp = inputs.problem(inputs.CATALOG["heston_sv"])
    pair = eigenpair(vp)
    res = generator_residual(vp, pair, default_grid(vp))
    assert checks.check_residual(res, pair, pair.lam) == []
    assert checks.check_residual(replace(res, max_abs_residual=2e-9), pair, None)
    assert checks.check_residual(res, pair, pair.lam * (1.0 + 1e-6))


def test_riccati_check_fails_on_residual_and_stability():
    d, a, B, q = inputs.riccati_instances(0)[3]
    sol = solve_stabilizing_riccati(a, B, q)
    assert checks.check_riccati(sol, a) == []
    assert "residual" in checks.check_riccati(replace(sol, residual=1.0), a)[0]
    assert "Hurwitz" in checks.check_riccati(anti_stabilizing_riccati(a, B, q), a)[-1]


def test_figure_check_reads_back_the_maximizers(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_figures(1, Path("out"))
    assert checks.check_figure(1, Path("out")) == []
    summary = Path("out/figure1_summary.csv")
    rows = summary.read_text().splitlines()
    mu, beta, rate = rows[1].split(",")
    rows[1] = ",".join([mu, str(float(beta) + 0.05), rate])
    summary.write_text("\n".join(rows) + "\n")
    assert "beta*=" in checks.check_figure(1, Path("out"))[0]


def test_verdict_and_martingale_checks_fail():
    assert checks.check_verdict("PASS", "PASS") == []
    assert checks.check_verdict("FAIL", "PASS")
    assert checks.check_verdict("PASS", "DIVERGED")
    assert checks.check_martingale(MartingaleEstimate(1.0, 1.004, 0.002, 1000)) == []
    assert checks.check_martingale(MartingaleEstimate(1.0, 1.1, 0.01, 1000))


def test_forced_wrong_verdict_is_a_failed_operation(tiny, monkeypatch):
    monkeypatch.setattr(workloads, "verdict_for", lambda est, analytic: "FAIL")
    wl, phase = one_pass("oracle_desk", 3, tiny)
    assert len(phase.failures) == len(wl.ops) == 12
    assert "verify gbm_dense: verdict FAIL, want PASS" in phase.failures
    assert "verify garch_infinite: verdict FAIL, want DIVERGED" in phase.failures


def test_quadratic_defects_are_measured_not_gated(tiny, monkeypatch):
    # Seed 9 at d = 4: at the criterion-7 scale curve points raise a numpy
    # LinAlgError and the capped optimum lands where the objective is -inf;
    # the catalog-scale model of the same seed passes every check.
    monkeypatch.setattr(inputs, "QUADRATIC_DIMS", (4,))
    wl, phase = one_pass("analytic_quadratic", 9, tiny)
    assert phase.failures == []
    wl.probes(NullTracer())
    assert wl.counts["defect_probe.curve_error_points.undocumented"] > 0
    assert wl.counts["defect_probe.failed_optima"] >= 1
    assert "LinAlgError" in wl.known_defects[0]
    assert any("below 0.005 at beta=0" in f for f in wl.known_defects)
    # The same outputs as timed operations are failed operations.
    (label, d, vp), = inputs.defect_probe_problems(9)
    wl.ops = [workloads._curve_op(wl, label, "quadratic", vp, {}, None),
              workloads._optimum_op(label, "quadratic", vp, True, {}, None)]
    phase = run.run_phase(wl, NullTracer(), seconds=0.0)
    assert [f.split(":")[0] for f in phase.failures] == [
        "growth_curve quadratic/criterion7_d4", "optimal_beta quadratic/criterion7_d4/capped"]
    assert run.workload_metrics(phase, {"samples": {}})["e2e.failed_fraction"] == 1.0


def test_seeded_quadratic_models_keep_their_riccati_branch():
    q = -inputs.ALPHA / 2.0
    for seed in range(20):
        for _, d, vp in inputs.quadratic_problems(seed)[1:]:
            m = vp.model
            assert inputs.hamiltonian_margin(m.a, m.Bmat, q) >= inputs.HAMILTONIAN_MARGIN
    probe = [inputs.hamiltonian_margin(vp.model.a, vp.model.Bmat, q)
             for seed in range(5) for _, _, vp in inputs.defect_probe_problems(seed)]
    assert sum(m < 1e-9 for m in probe) > len(probe) // 2


def test_raising_operation_is_a_failed_operation():
    def boom(tracer):
        raise np.linalg.LinAlgError("Singular matrix")

    phase = run.Phase()
    op = workloads.Op("growth_curve", "x", boom, lambda r: [])
    run.run_op(op, NullTracer(), phase)
    assert phase.attempted == 1 and "LinAlgError: Singular matrix" in phase.failures[0]


def test_tail_keeps_ten_samples_beyond():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90)
    assert run.tail([float(i) for i in range(40)]) == (29.0, 75)
    assert run.tail([float(i) for i in range(39)]) is None


def test_host_speed_kernel_is_reused_within_its_interval():
    speed = run.HostSpeed()
    first = speed.current()
    assert first > 0.0 and speed.current() == first and speed.samples == [first]


def test_span_cost_is_positive():
    assert 0.0 < run.span_cost_s() < 1e-3


# ---------------------------------------------------------------------------
# Command line contract
# ---------------------------------------------------------------------------

def test_command_prints_metrics_and_a_result_line(tmp_path):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analytic_scalar", "--seed", "2",
         "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_command_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analytic_scalar", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
