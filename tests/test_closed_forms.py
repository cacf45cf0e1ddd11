"""Closed-form golden: every catalog formula pinned in float.hex.

Two parameter sets per model kind, alpha in {0.3, 0.8, 1.0} and seven
leverage ratios.  For each point the file stores the eigenpair, the
classified growth rate with its condition and components (in order), the
leverage derivative (exact, then by central differences of the objective),
the published stochastic-rate curve and the generator residual; per
(set, alpha) the growth curve over the seven betas and the optimal leverage
uncapped and under two caps; and the sha256 of every CSV written by
``figures 1`` and ``figures 2``.  Errors are recorded as
"<type>: <message>", so a moved formula must also fail the same way.

Record with ``python tests/test_closed_forms.py --record``, or only some
entries with ``--record NAME...``.
"""

import hashlib
import json
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from letfgrowth.cli import run_figures
from letfgrowth.eigen import default_grid, eigenpair, generator_residual
from letfgrowth.growth import display_growth_value, growth_curve, growth_rate
from letfgrowth.leverage import lambda_derivative, objective_value, optimal_beta
from letfgrowth.models import (
    ExtendedCir,
    Garch,
    Gbm,
    GbmInverseGarchRate,
    GbmVasicek,
    HestonSV,
    InverseGarch,
    Quadratic,
    ThreeHalves,
    ThreeHalvesSV,
    validate,
)

from test_models import BASE_MODELS, prob

GOLDEN_FILE = Path(__file__).with_name("closed_form_golden.json")
ALPHAS = (0.3, 0.8, 1.0)
BETAS = (-2.5, -0.5, 0.0, 0.5, 1.0, 1.7, 3.0)
CAPS = {"uncapped": None, "market": (-3.0, 3.0), "inside": (0.2, 0.9)}

# Second set per kind: (model, r), validated relaxed.  Each one reaches a
# branch the base set does not: flat objectives (mu = r), carved finite
# regions, a complex exponent, the decreasing 3/2 branch, the published
# scenario parameters and a one-dimensional quadratic state.
SECOND_SETS = {
    "gbm": (Gbm(mu=0.01, sigma=0.3), 0.01),
    "garch": (Garch(theta=0.08, a=0.1, sigma=0.6), 0.01),
    "inverse_garch": (InverseGarch(theta=0.1, a=0.5, sigma=0.3), 0.01),
    "extended_cir": (ExtendedCir(theta=0.01, mu=0.01, sigma=0.2), 0.01),
    "three_halves": (ThreeHalves(theta=0.008, a=0.2, sigma=0.4), 0.01),
    "heston_sv": (HestonSV(mu=0.05, theta=0.16, a=3.1, delta=0.89, rho=-0.5,
                           v0=0.16 / 3.1), 0.01),
    "three_halves_sv": (ThreeHalvesSV(mu=-0.05, theta=0.5, a=2.0, delta=0.8,
                                      rho=0.4, v0=0.3), 0.03),
    "gbm_vasicek": (GbmVasicek(mu=-0.05, sigma=0.3, theta=0.16, a=3.0,
                               delta=0.89, rho=-0.5, r0=0.01), None),
    "gbm_inverse_garch_rate": (GbmInverseGarchRate(mu=0.08, sigma=0.3, theta=0.26,
                                                   a=1.0, delta=0.5, rho=-0.5,
                                                   r0=0.05), None),
    "quadratic": (Quadratic(b=[0.05], Bmat=[[-0.5]], sigma=[[0.4]]), 0.02),
}


def fd_derivative(vp, beta):
    """Central difference of the leverage objective, step 1e-6 * max(1, |beta|):
    the independent check of ``lambda_derivative``."""
    h = 1e-6 * max(1.0, abs(beta))
    return (objective_value(vp, beta + h) - objective_value(vp, beta - h)) / (2.0 * h)


def _hex(x):
    if x is None or isinstance(x, (bool, str)):
        return x
    if isinstance(x, np.ndarray):
        return [_hex(v) for v in x.ravel().tolist()]
    return float(x).hex()


def _guard(fn):
    """fn() recorded, or the error it raises as '<type>: <message>'."""
    try:
        return fn()
    except Exception as exc:  # the failure mode is part of the record
        return f"{type(exc).__name__}: {exc}"


def _eigen(vp):
    pair = eigenpair(vp)
    return [_hex(pair.lam), _hex(pair.kappa), pair.phi.name,
            [_hex(getattr(pair.phi, f.name)) for f in fields(pair.phi)]]


def _growth(g):
    c = g.condition
    return [g.classification, _hex(g.rate), _hex(c.lhs), _hex(c.threshold),
            c.satisfied, c.near_boundary,
            [[k, _hex(v)] for k, v in g.components.items()]]


def _optimum(vp, cap):
    o = optimal_beta(vp, cap=cap)
    p = o.profile
    prof = None if p is None else [p.shape, _hex(p.C1), _hex(p.C2), _hex(p.C3),
                                   _hex(p.D), _hex(p.const)]
    return [_hex(o.beta_star), _hex(o.rate_at_star), o.method, o.boundary_side,
            prof, list(o.notes)]


def _problems(kind):
    r = 0.01 if kind not in ("gbm_vasicek", "gbm_inverse_garch_rate") else None
    yield "base", BASE_MODELS[kind], r
    model, r2 = SECOND_SETS[kind]
    yield "second", model, r2


def kind_records(kind) -> dict:
    out = {}
    for name, model, r in _problems(kind):
        for alpha in ALPHAS:
            vp = validate(prob(model, alpha=alpha, beta=1.0, r=r), relax=True)
            tag = f"{kind}/{name}/a{alpha}"
            for beta in BETAS:
                p = vp.with_beta(beta)
                out[f"{tag}/b{beta}"] = {
                    "eig": _guard(lambda: _eigen(p)),
                    "growth": _guard(lambda: _growth(growth_rate(p))),
                    "deriv": [_guard(lambda: _hex(lambda_derivative(vp, beta))),
                              _guard(lambda: _hex(fd_derivative(vp, beta)))],
                    "display": _guard(lambda: _hex(display_growth_value(p))),
                    "resid": [_guard(lambda: _hex(generator_residual(
                        p, eigenpair(p), default_grid(p)).max_abs_residual))],
                }
            out[f"{tag}/curve"] = [
                [pt.beta, pt.error] if pt.growth is None
                else [pt.beta, pt.growth.classification, _hex(pt.growth.rate)]
                for pt in growth_curve(vp, BETAS)]
            for cap_name, cap in CAPS.items():
                out[f"{tag}/optimal/{cap_name}"] = _guard(lambda: _optimum(vp, cap))
    return out


def figure_records() -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for fig in (1, 2):
            run_figures(fig, Path(tmp))
        for path in sorted(Path(tmp).glob("*.csv")):
            out[f"figures/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def _compare(got: dict, want: dict) -> None:
    assert sorted(got) == sorted(want)
    bad = [name for name in sorted(got) if got[name] != want[name]]
    assert not bad, "\n".join(
        f"{n}:\n  got  {json.dumps(got[n])}\n  want {json.dumps(want[n])}" for n in bad[:5])


def _golden(prefix: str) -> dict:
    return {k: v for k, v in json.loads(GOLDEN_FILE.read_text()).items()
            if k.startswith(prefix + "/")}


@pytest.mark.parametrize("kind", sorted(BASE_MODELS))
def test_closed_forms_match_golden(kind):
    # Recorded before the closed forms moved into the model classes; every
    # value must match bit for bit, including the errors raised.
    _compare(kind_records(kind), _golden(kind))


def test_figure_csvs_match_golden():
    _compare(figure_records(), _golden("figures"))


def _records_for(prefixes) -> dict:
    records = figure_records() if "figures" in prefixes else {}
    for kind in sorted(BASE_MODELS):
        if kind in prefixes:
            records.update(kind_records(kind))
    return records


if __name__ == "__main__":
    # ``--record`` re-records every entry; ``--record NAME...`` only the
    # named ones.
    if sys.argv[1:2] == ["--record"]:
        names = sys.argv[2:]
        if names:
            fresh = _records_for({n.split("/")[0] for n in names})
            unknown = sorted(set(names) - set(fresh))
            if unknown:
                sys.exit(f"unknown golden entries: {', '.join(unknown)}")
            records = json.loads(GOLDEN_FILE.read_text())
            records.update({n: fresh[n] for n in names})
        else:
            records = _records_for({"figures", *BASE_MODELS})
        GOLDEN_FILE.write_text("{\n" + ",\n".join(
            f"{json.dumps(k)}: {json.dumps(records[k])}"
            for k in sorted(records)) + "\n}\n")
