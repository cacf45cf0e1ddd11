"""Correctness checks on every output the benchmark times.

Each check returns a list of failure messages; an empty list passes.
Tolerances are tied to the acceptance criteria:

* closed-form values against the stored reference: 1e-9 absolute plus
  1e-9 relative (criterion 3 certifies eigenpairs at 1e-9);
* optimal leverage against the stored reference: 1e-4 in beta, a hundredth
  of the criterion 1/2 maximizer tolerance (0.01);
* generator residuals <= 1e-9 (criterion 3);
* Riccati scaled residuals <= 1e-10 with Hurwitz closed loops (criterion 7);
* reference-scenario maximizers within 0.01, grid argmax within 0.02
  (criteria 1 and 2);
* Monte Carlo verdicts PASS, or DIVERGED on the infinite branch
  (criteria 5 and 6), martingale means within 3 stderr (criterion 4).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import letfgrowth.errors as lg_errors
from letfgrowth.leverage import objective_value

VALUE_TOL = 1e-9
BETA_TOL = 1e-4
RESIDUAL_TOL = 1e-9
RICCATI_TOL = 1e-10
MAXIMIZER_STEP = 1e-3
REFERENCE_STRIDE = 10  # every 10th point of the 601-point curve is stored

FIGURE_WANT = {1: {0.05: 1.93, 0.01: 0.00, -0.05: -1.95},
               2: {0.05: 3.65, 0.01: 1.52, -0.05: -1.68}}
FIGURE_TOL = 0.01
FIGURE_GRID_TOL = 0.02

REFERENCE_PATH = Path(__file__).with_name("reference.json")

DOCUMENTED_ERRORS = frozenset(
    name for name, obj in vars(lg_errors).items()
    if isinstance(obj, type) and issubclass(obj, lg_errors.LetfGrowthError))


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def close(x, ref, tol=VALUE_TOL) -> bool:
    if x is None or ref is None:
        return x is None and ref is None
    return x == ref or abs(x - ref) <= tol * (1.0 + abs(ref))


# ---------------------------------------------------------------------------
# Summaries shared by the checks and by make_reference.py
# ---------------------------------------------------------------------------

def curve_summary(points) -> list:
    """[beta, rate or None, error type or None] at every stored grid point."""
    out = []
    for p in points[::REFERENCE_STRIDE]:
        rate = p.growth.rate if p.growth is not None and p.growth.is_finite else None
        err = p.error.split(":", 1)[0] if p.error else None
        out.append([p.beta, rate, err])
    return out


def optimum_summary(opt) -> dict:
    return {"beta_star": opt.beta_star, "rate_at_star": opt.rate_at_star,
            "method": opt.method, "boundary_side": opt.boundary_side}


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def error_points(points) -> tuple[int, int]:
    """(documented, undocumented) error points of a growth curve.

    Documented: a library error (``LetfGrowthError``) at a beta inside
    (0, 1), where the killing coefficient is negative and the docstrings
    allow the stabilizing branch to be missing.  Everything else, such as
    a numpy ``LinAlgError`` swallowed by the per-point collection, is
    undocumented and counts as a failure.
    """
    documented = undocumented = 0
    for p in points:
        if p.error is None:
            continue
        if p.error.split(":", 1)[0] in DOCUMENTED_ERRORS and 0.0 < p.beta < 1.0:
            documented += 1
        else:
            undocumented += 1
    return documented, undocumented


def check_curve(points, n_expected: int, reference: list | None) -> list[str]:
    msgs = []
    if len(points) != n_expected:
        msgs.append(f"curve has {len(points)} points, expected {n_expected}")
    _, undocumented = error_points(points)
    if undocumented:
        bad = next(p for p in points if p.error and not (
            p.error.split(":", 1)[0] in DOCUMENTED_ERRORS and 0.0 < p.beta < 1.0))
        msgs.append(f"{undocumented} undocumented error points, e.g. beta={bad.beta:g}: "
                    f"{bad.error}")
    for p in points:
        if p.growth is not None and p.growth.is_finite and not math.isfinite(p.growth.rate):
            msgs.append(f"finite classification with rate {p.growth.rate} at beta={p.beta:g}")
            break
    if reference is not None:
        for (b, rate, err), (rb, rrate, rerr) in zip(curve_summary(points), reference):
            if b != rb or err != rerr or not close(rate, rrate):
                msgs.append(f"curve at beta={rb:g}: got ({rate}, {err}), "
                            f"reference ({rrate}, {rerr})")
                break
    return msgs


def check_optimum(vp, opt, cap, reference: dict | None) -> list[str]:
    """The returned leverage must be a local maximizer of the objective and
    no worse than holding cash (beta = 0, inside every cap)."""
    msgs = []
    if opt.beta_star is not None:
        f_star = objective_value(vp, opt.beta_star)
        if opt.rate_at_star is not None and not close(opt.rate_at_star, f_star):
            msgs.append(f"rate_at_star {opt.rate_at_star} != objective {f_star}")
        f_cash = objective_value(vp, 0.0)
        if not f_star >= f_cash - VALUE_TOL * (1.0 + abs(f_cash)):
            msgs.append(f"beta*={opt.beta_star:.6g} is not a maximizer: objective "
                        f"{f_star:.10g} below {f_cash:.10g} at beta=0")
        for b in (opt.beta_star - MAXIMIZER_STEP, opt.beta_star + MAXIMIZER_STEP):
            if cap is not None and not cap[0] <= b <= cap[1]:
                continue
            f = objective_value(vp, b)
            if f > f_star + VALUE_TOL * (1.0 + abs(f_star)):
                msgs.append(f"beta*={opt.beta_star:.6g} is not a maximizer: "
                            f"objective {f:.10g} at {b:.6g} > {f_star:.10g}")
    elif opt.method != "boundary" or opt.boundary_side not in ("+inf", "-inf"):
        msgs.append(f"no maximizer returned (method {opt.method})")
    if reference is not None:
        got = optimum_summary(opt)
        if (got["method"] != reference["method"]
                or got["boundary_side"] != reference["boundary_side"]
                or not close(got["beta_star"], reference["beta_star"], BETA_TOL)
                or not close(got["rate_at_star"], reference["rate_at_star"])):
            msgs.append(f"optimum {got} differs from reference {reference}")
    return msgs


def check_residual(res, pair, ref_lam: float | None) -> list[str]:
    msgs = []
    if not res.max_abs_residual <= RESIDUAL_TOL:
        msgs.append(f"generator residual {res.max_abs_residual:.3e} > {RESIDUAL_TOL:g}")
    if ref_lam is not None and not close(pair.lam, ref_lam):
        msgs.append(f"eigenvalue {pair.lam!r} differs from reference {ref_lam!r}")
    return msgs


def riccati_scaled_residual(sol, a) -> float:
    """Criterion-7 scaling of the Riccati residual."""
    scale = max(1.0, float(np.max(np.abs(a))) * max(1.0, float(np.max(np.abs(sol.V)))) ** 2)
    return sol.residual / scale


def check_riccati(sol, a) -> list[str]:
    msgs = []
    scaled = riccati_scaled_residual(sol, a)
    if not scaled <= RICCATI_TOL:
        msgs.append(f"scaled Riccati residual {scaled:.3e} > {RICCATI_TOL:g}")
    max_re = float(np.max(np.linalg.eigvals(sol.closed_loop).real))
    if not max_re < 0.0:
        msgs.append(f"closed loop not Hurwitz (max real part {max_re:.3e})")
    return msgs


def check_figure(figure_id: int, out_dir: Path) -> list[str]:
    """Criterion 1/2 maximizers read back from the written CSV files."""
    msgs = []
    want = FIGURE_WANT[figure_id]
    with open(out_dir / f"figure{figure_id}_summary.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(want):
        return [f"figure {figure_id} summary has {len(rows)} rows"]
    for row in rows:
        mu, beta_star = float(row["mu"]), float(row["beta_star"])
        target = want[round(mu, 2)]
        if not abs(beta_star - target) <= FIGURE_TOL:
            msgs.append(f"figure {figure_id} mu={mu:+.2f}: beta*={beta_star:.4f}, "
                        f"want {target} +- {FIGURE_TOL}")
        if figure_id == 1:
            curve = out_dir / f"figure1_mu_{row['mu']}.csv"
            with open(curve, encoding="utf-8") as fh:
                pts = [(float(r["beta"]), float(r["rate"])) for r in csv.DictReader(fh)]
            b_grid = max(pts, key=lambda p: p[1])[0]
            if not abs(b_grid - target) <= FIGURE_GRID_TOL:
                msgs.append(f"figure 1 mu={mu:+.2f}: grid argmax {b_grid:.2f}, "
                            f"want {target} +- {FIGURE_GRID_TOL}")
    return msgs


def check_verdict(verdict: str, want: str) -> list[str]:
    return [] if verdict == want else [f"verdict {verdict}, want {want}"]


def check_martingale(est) -> list[str]:
    if est.within_three_se:
        return []
    return [f"E[M_t] = {est.mean:.5f} is more than 3 se ({est.stderr:.5f}) from 1"]
