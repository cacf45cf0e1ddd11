"""Command-line front end.

Subcommands
-----------
eigenpair   print lambda, kappa, family, residual for one configured problem
growth      tabulate the growth rate at one beta or over a beta grid
optimal     optimal leverage ratio, with the shape profile
riccati     stabilizing Riccati solution and convergence-test verdicts
verify      Monte Carlo oracle against the closed form (exit 4 on FAIL)
figures     reproduce the bundled reference scenarios (1: Heston drift
            sweep, 2: Vasicek-rate drift sweep)

Exit codes: 0 success, 2 configuration/validation error, 3 numerical
failure, 4 verification failure.  Every CSV gets a JSON manifest sidecar
``<out>.manifest.json``; numbers are serialized with 12 significant digits
and LF line endings so identical manifests reproduce identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, LetfGrowthError, NumericalError
from .eigen import default_grid, eigenpair, generator_residual
from .growth import GrowthCurvePoint, growth_curve, growth_rate
from .leverage import optimal_beta
from .mc import SimConfig, _scheme_for, desk_config, simulate_growth, verdict_for
from .models import (
    ConstantRate,
    GbmVasicek,
    HestonSV,
    Leverage,
    Preference,
    Problem,
    Quadratic,
    load_problem,
    problem_to_config,
    validate,
)
from .riccati import solve_quadratic_model

# --sim path limit, 500 times the desk count: a call's time grows with paths.
MAX_SIM_PATHS = 10 ** 8

# Reference scenarios (regression targets; not user-editable): the model
# class, its parameters besides the swept drift mu, alpha, the constant rate
# (None for a stochastic-rate model) and the validation mode.  Scenario 1
# sits outside the Feller bound on purpose, so it must validate relaxed.
_FIGURE_MUS = (0.05, 0.01, -0.05)
_FIGURES = {
    1: (HestonSV, {"theta": 0.16, "a": 3.1, "delta": 0.89, "rho": -0.5, "v0": 0.16 / 3.1},
        0.5, 0.01, True),
    2: (GbmVasicek, {"sigma": 0.3, "theta": 0.16, "a": 3.0, "delta": 0.89, "rho": -0.5,
                     "r0": 0.01}, 0.8, None, False),
}


def _fmt(x) -> str:
    """12 significant digits, '.' decimal separator, locale independent."""
    if isinstance(x, float):
        return f"{x:.12g}"
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def _write_csv(out_path: Path | str | None, header: list[str], rows: list[list],
               subcommand: str, config_path: str | None, problems,
               extra: dict | None = None) -> None:
    """Write the CSV and its ``<out>.manifest.json`` sidecar; nothing without a path."""
    if not out_path:
        return
    out_path = Path(out_path)
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])
    doc = {
        "tool": "letfgrowth",
        "version": __version__,
        "subcommand": subcommand,
        "config_path": config_path,
        "problems": [problem_to_config(vp) for vp in problems],
        "out": str(out_path),
        "relax": any(vp.relaxed for vp in problems),
        "warnings": [w for vp in problems for w in vp.warnings],
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
                     .replace(microsecond=0).isoformat(),
    }
    if extra:
        doc.update(extra)
    manifest = Path(str(out_path) + ".manifest.json")
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_beta_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, step = (float(p) for p in spec.split(":"))
    except ValueError as exc:
        raise ConfigError(f"--beta-grid expects lo:hi:step, got {spec!r}") from exc
    if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or hi < lo:
        raise ConfigError("--beta-grid needs finite values with step > 0 and hi >= lo")
    try:
        # numpy refuses an array too large to build before allocating it.
        return lo + step * np.arange(int(math.floor((hi - lo) / step + 1e-9)) + 1)
    except (OverflowError, MemoryError) as exc:
        raise ConfigError(f"--beta-grid {spec!r} has too many points: {exc}") from exc


def _parse_cap(spec: str) -> tuple[float, float]:
    try:
        lo, hi = (float(p) for p in spec.split(":"))
    except ValueError as exc:
        raise ConfigError(f"--cap expects lo:hi, got {spec!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ConfigError(f"--cap needs finite bounds with lo <= hi, got {spec!r}")
    return (lo, hi)


def _parse_sim(spec: str | None, kind: str) -> SimConfig:
    base = desk_config(kind)
    if not spec:
        return base
    fields = {}
    for part in spec.split(","):
        if not part:
            continue
        try:
            key, val = part.split("=")
        except ValueError as exc:
            raise ConfigError(f"--sim expects k=v pairs, got {part!r}") from exc
        fields[key.strip()] = val.strip()
    known = {"t", "steps", "paths", "seed"}
    unknown = set(fields) - known
    if unknown:
        raise ConfigError(f"unknown --sim keys: {sorted(unknown)}")
    try:
        horizon = float(fields.get("t", base.horizon))
        # Without steps, the desk density at that horizon: a stepped kind's
        # steps per year, an exact kind's one step per checkpoint gap.
        n_steps = (int(fields["steps"]) if "steps" in fields
                   else desk_config(kind, horizon=horizon).n_steps)
        n_paths = int(fields.get("paths", base.n_paths))
        if n_paths > MAX_SIM_PATHS:
            raise ConfigError(f"--sim {spec!r}: at most {MAX_SIM_PATHS:,} paths")
        sim_seed = int(fields.get("seed", base.seed))
        cfg = SimConfig(horizon=horizon, n_steps=n_steps, n_paths=n_paths,
                        seed=sim_seed)
        _scheme_for(kind, cfg)  # a stepped kind below its floor raises
        return cfg
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"--sim {spec!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _load(args):
    """The ``--config`` problem; each relaxed-mode warning goes to stderr."""
    vp = load_problem(args.config, relax=args.relax)
    for w in vp.warnings:
        print(f"warning={w}", file=sys.stderr)
    return vp


def _cmd_eigenpair(args) -> int:
    vp = _load(args)
    pair = eigenpair(vp)
    res = generator_residual(vp, pair, default_grid(vp))
    print(f"lambda={_fmt(pair.lam)}")
    print(f"kappa={_fmt(pair.kappa)}")
    print(f"family={pair.phi.describe()}")
    print(f"residual={_fmt(res.max_abs_residual)}")
    return 0


def _cmd_growth(args) -> int:
    vp = _load(args)
    if args.beta is not None and args.beta_grid is not None:
        raise ConfigError("--beta and --beta-grid are mutually exclusive")
    if args.beta_grid is not None:
        points = growth_curve(vp, _parse_beta_grid(args.beta_grid))
    else:
        # One beta: a library error is the answer, so it propagates.
        p = vp if args.beta is None else vp.with_beta(args.beta)
        points = [GrowthCurvePoint(p.beta, growth_rate(p))]
    rows = []
    for pt in points:
        if pt.growth is None:
            rows.append([pt.beta, "nan", 0, "nan", "nan"])
            continue
        g = pt.growth
        rows.append([pt.beta, g.rate if g.is_finite else math.inf,
                     1 if g.is_finite else 0,
                     g.condition.lhs, g.condition.threshold])
    if args.beta_grid is None:
        beta, rate, finite = rows[0][:3]
        print(f"beta={_fmt(beta)} rate={_fmt(rate)} finite={finite}")
    _write_csv(args.out, ["beta", "rate", "finite", "condition_lhs", "condition_threshold"],
               rows, "growth", args.config, [vp],
               {"beta": args.beta, "beta_grid": args.beta_grid})
    return 0


def _cmd_optimal(args) -> int:
    vp = _load(args)
    cap = _parse_cap(args.cap) if args.cap else None
    opt = optimal_beta(vp, cap=cap)
    method = opt.method if opt.boundary_side is None \
        else f"{opt.method}({opt.boundary_side})"
    prof = opt.profile
    mu = getattr(vp.model, "mu", None)
    row = [mu, opt.beta_star, opt.rate_at_star, method,
           None if prof is None else prof.C1,
           None if prof is None else prof.C2,
           None if prof is None else prof.C3,
           None if prof is None else prof.D]
    print(f"beta_star={_fmt(opt.beta_star)} rate_at_star={_fmt(opt.rate_at_star)} "
          f"method={method}")
    for note in opt.notes:
        print(f"note={note}", file=sys.stderr)
    _write_csv(args.out, ["mu", "beta_star", "rate_at_star", "method", "C1", "C2", "C3", "D"],
               [row], "optimal", args.config, [vp], {"cap": args.cap})
    return 0


def _cmd_riccati(args) -> int:
    vp = _load(args)
    if not isinstance(vp.model, Quadratic):
        raise ConfigError("the riccati subcommand needs a quadratic model config")
    sol = solve_quadratic_model(vp.model, vp.alpha, vp.beta)
    d = vp.model.d
    rows: list[list] = []
    for i in range(d):
        for j in range(d):
            rows.append([f"V_{i}{j}", sol.V[i, j]])
    for i in range(d):
        rows.append([f"u_{i}", sol.u[i]])
    rows.append(["lambda", sol.lam])
    eigs = np.linalg.eigvals(sol.riccati.closed_loop)
    order = np.argsort(eigs.real)
    for k, idx in enumerate(order):
        rows.append([f"closed_loop_eig_{k}_real", eigs[idx].real])
        rows.append([f"closed_loop_eig_{k}_imag", eigs[idx].imag])
    rows.append(["riccati_residual", sol.riccati.residual])
    rows.append(["c_covariance_negdef", sol.convergence.all_negative_covariance])
    rows.append(["c_precision_negdef", sol.convergence.all_negative_precision])
    for name, val in rows:
        print(f"{name}={_fmt(val)}")
    _write_csv(args.out, ["name", "value"], rows, "riccati", args.config, [vp])
    return 0


def _cmd_verify(args) -> int:
    vp = _load(args)
    cfg = _parse_sim(args.sim, vp.model.kind)
    analytic = growth_rate(vp)
    est = simulate_growth(vp, cfg)
    verdict = verdict_for(est, analytic)
    rate = analytic.rate if analytic.is_finite else math.inf
    gap = (abs(est.slope - analytic.rate) / max(abs(analytic.rate), 1e-300)
           if analytic.is_finite else math.nan)
    rows = []
    for k, t in enumerate(est.t):
        rows.append([t, est.log_mean_utility[k], est.stderr[k], est.slope,
                     est.slope_stderr, rate, gap, verdict])
    print(f"slope={_fmt(est.slope)} stderr={_fmt(est.slope_stderr)} "
          f"analytic={_fmt(rate)} verdict={verdict}")
    for reason in est.divergence_reasons:
        print(f"divergence: {reason}", file=sys.stderr)
    _write_csv(args.out, ["checkpoint_t", "log_mean_utility", "stderr", "slope",
                          "slope_stderr", "analytic_rate", "abs_rel_gap", "verdict"],
               rows, "verify", args.config, [vp],
               {"sim": args.sim,
                "sim_resolved": {"t": cfg.horizon, "steps": cfg.n_steps,
                                 "paths": cfg.n_paths, "seed": cfg.seed},
                "tail_acceleration_se": (None if math.isnan(est.tail_acceleration_se)
                                         else est.tail_acceleration_se)})
    ok = verdict == "PASS" or (verdict == "DIVERGED" and not analytic.is_finite)
    return 0 if ok else 4


def figure_problems(figure_id: int):
    """The bundled reference scenarios, one validated problem per drift value."""
    if figure_id not in _FIGURES:
        raise ConfigError(f"unknown figure id {figure_id}; expected 1 or 2")
    cls, params, alpha, r, relax = _FIGURES[figure_id]
    rate = None if r is None else ConstantRate(r)
    return [validate(Problem(cls(mu=mu, **params), Preference(alpha), Leverage(2.0), rate),
                     relax=relax)
            for mu in _FIGURE_MUS]


def run_figures(figure_id: int, out_dir: Path) -> dict:
    """Write one (beta, rate) curve CSV per drift plus a summary CSV.

    The curves cover beta in [-3, 3] at step 0.01 (601 rows); the summary
    holds the unconstrained maximizer of each curve's closed form, which for
    scenario 2 can exceed the plotted range.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    problems = figure_problems(figure_id)
    betas = -3.0 + 0.01 * np.arange(601)
    summary = []
    for vp in problems:
        mu = vp.model.mu
        if vp.model.stochastic_rate:
            rates = vp.model.display(vp.alpha, betas)
        else:
            rates = [pt.growth.rate if pt.growth.is_finite else math.inf
                     for pt in growth_curve(vp, betas)]
        rows = list(zip(betas, rates))
        curve_path = out_dir / f"figure{figure_id}_mu_{_fmt(mu)}.csv"
        _write_csv(curve_path, ["beta", "rate"], rows, "figures", None, [vp],
                   {"figure": figure_id})
        opt = optimal_beta(vp, cap=None)
        summary.append([mu, opt.beta_star, opt.rate_at_star])
    summary_path = out_dir / f"figure{figure_id}_summary.csv"
    _write_csv(summary_path, ["mu", "beta_star", "rate_at_star"], summary, "figures", None,
               problems, {"figure": figure_id})
    return {"summary": summary_path, "betas": betas}


def _cmd_figures(args) -> int:
    res = run_figures(args.figure, Path(args.out_dir))
    print(f"wrote {res['summary']}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="letfgrowth",
        description="Long-term growth rates of expected power utility for "
                    "leveraged funds under diffusion models.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON problem config")
        p.add_argument("--relax", action="store_true",
                       help="downgrade parameter-bound violations to warnings")

    def writes_csv(p):
        common(p)
        p.add_argument("--out", help="CSV output path")

    p = sub.add_parser("eigenpair", help="eigenvalue/eigenfunction and residual")
    common(p)
    p.set_defaults(fn=_cmd_eigenpair)

    p = sub.add_parser("growth", help="growth rate at one beta or over a grid")
    writes_csv(p)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--beta-grid", default=None, metavar="LO:HI:STEP")
    p.set_defaults(fn=_cmd_growth)

    p = sub.add_parser("optimal", help="optimal leverage ratio")
    writes_csv(p)
    p.add_argument("--cap", default=None, metavar="LO:HI",
                   help="restrict to a leverage interval, e.g. -3:3")
    p.set_defaults(fn=_cmd_optimal)

    p = sub.add_parser("riccati", help="stabilizing Riccati solution")
    writes_csv(p)
    p.set_defaults(fn=_cmd_riccati)

    p = sub.add_parser("verify", help="Monte Carlo oracle vs closed form")
    writes_csv(p)
    p.add_argument("--sim", default=None, metavar="t=20,steps=2000,paths=200000,seed=42",
                   help=f"simulation settings; at most {MAX_SIM_PATHS:,} paths")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("figures", help="reproduce the bundled reference scenarios")
    p.add_argument("figure", type=int, choices=(1, 2))
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=_cmd_figures)

    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (LetfGrowthError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, NumericalError) else 2


if __name__ == "__main__":
    raise SystemExit(main())
