"""Catalog validation, the fund's log-price assembly, and config round-trips."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from letfgrowth.errors import (
    ConfigError,
    ExtraneousRate,
    MissingRate,
    ParameterViolation,
)
from letfgrowth.mc import SimConfig, _Draw, _growth_ou, _log_utility, _ou
from letfgrowth.models import (
    ConstantRate,
    ExtendedCir,
    Garch,
    Gbm,
    GbmInverseGarchRate,
    GbmVasicek,
    HestonSV,
    InverseGarch,
    Leverage,
    Preference,
    Problem,
    Quadratic,
    ThreeHalves,
    ThreeHalvesSV,
    load_problem,
    problem_to_config,
    validate,
)


def prob(model, alpha=0.5, beta=2.0, r=0.01):
    rate = None if model.kind in ("gbm_vasicek", "gbm_inverse_garch_rate") \
        else ConstantRate(r)
    return Problem(model, Preference(alpha), Leverage(beta), rate)


BASE_MODELS = {
    "gbm": Gbm(mu=0.05, sigma=0.2),
    "garch": Garch(theta=0.08, a=1.0, sigma=0.2),
    "inverse_garch": InverseGarch(theta=0.54, a=0.52, sigma=0.2),
    "extended_cir": ExtendedCir(theta=0.05, mu=0.15, sigma=0.2),
    "three_halves": ThreeHalves(theta=0.5, a=0.5, sigma=0.5),
    "heston_sv": HestonSV(mu=0.05, theta=0.16, a=3.1, delta=0.4, rho=-0.5,
                          v0=0.16 / 3.1),
    "three_halves_sv": ThreeHalvesSV(mu=0.05, theta=1.0, a=4.0, delta=1.0,
                                     rho=-0.5, v0=0.25),
    "gbm_vasicek": GbmVasicek(mu=0.05, sigma=0.2, theta=0.06, a=3.0,
                              delta=0.05, rho=-0.3, r0=0.02),
    "gbm_inverse_garch_rate": GbmInverseGarchRate(mu=0.05, sigma=0.2,
                                                  theta=0.27, a=5.0,
                                                  delta=0.2, rho=-0.3,
                                                  r0=0.05),
    "quadratic": Quadratic(b=[0.1, -0.05], Bmat=[[-1.0, 0.2], [0.0, -0.8]],
                           sigma=[[0.3, 0.0], [0.1, 0.25]]),
}


def test_valid_baseline_problems():
    for model in BASE_MODELS.values():
        vp = validate(prob(model))
        assert vp.warnings == ()


def test_validate_idempotent():
    vp = validate(prob(BASE_MODELS["gbm"]))
    assert validate(vp) is vp
    # Relaxing a strict problem re-validates it; a relaxed one is returned as is.
    relaxed = validate(vp, relax=True)
    assert relaxed.relaxed and relaxed.problem is vp.problem
    assert validate(relaxed, relax=True) is relaxed


def test_heston_feller_violation():
    bad = HestonSV(mu=0.05, theta=0.16, a=3.1, delta=0.89, rho=-0.5, v0=0.05)
    with pytest.raises(ParameterViolation) as exc:
        validate(prob(bad))
    assert "2*theta > delta^2" in str(exc.value)
    relaxed = validate(prob(bad), relax=True)
    assert any("2*theta > delta^2" in w for w in relaxed.warnings)


def test_inverse_garch_theta_bound():
    with pytest.raises(ParameterViolation) as exc:
        validate(prob(InverseGarch(theta=0.03, a=1.0, sigma=0.2)))
    assert exc.value.field == "theta"


def test_rate_presence_rules():
    with pytest.raises(MissingRate):
        validate(Problem(BASE_MODELS["gbm"], Preference(0.5), Leverage(2.0), None))
    with pytest.raises(ExtraneousRate):
        validate(Problem(BASE_MODELS["gbm_vasicek"], Preference(0.5),
                         Leverage(2.0), ConstantRate(0.01)))


# Perturbing exactly one parameter over its bound must flip valid -> violation
# naming that parameter.
VIOLATIONS = [
    ("garch", Garch(theta=-0.08, a=1.0, sigma=0.2), "theta"),
    ("garch", Garch(theta=0.08, a=0.0, sigma=0.2), "a"),
    ("garch", Garch(theta=0.08, a=1.0, sigma=0.0), "sigma"),
    ("inverse_garch", InverseGarch(theta=0.039, a=1.0, sigma=0.2), "theta"),
    ("inverse_garch", InverseGarch(theta=0.08, a=-1.0, sigma=0.2), "a"),
    ("extended_cir", ExtendedCir(theta=0.0399, mu=0.05, sigma=0.2), "theta"),
    ("extended_cir", ExtendedCir(theta=0.05, mu=0.0, sigma=0.2), "mu"),
    ("three_halves", ThreeHalves(theta=0.5, a=0.5, sigma=-0.5), "sigma"),
    ("heston_sv", HestonSV(mu=0.05, theta=0.16, a=3.1, delta=0.4, rho=-1.5,
                           v0=0.05), "rho"),
    ("heston_sv", HestonSV(mu=0.05, theta=0.16, a=3.1, delta=0.4, rho=-0.5,
                           v0=0.0), "v0"),
    ("gbm_inverse_garch_rate",
     GbmInverseGarchRate(mu=0.05, sigma=0.2, theta=0.039, a=1.0, delta=0.2,
                         rho=-0.3, r0=0.05), "theta"),
    ("gbm_vasicek",
     GbmVasicek(mu=0.05, sigma=0.2, theta=0.06, a=-3.0, delta=0.05, rho=-0.3,
                r0=0.02), "a"),
]


@pytest.mark.parametrize("kind,model,field", VIOLATIONS,
                         ids=[f"{k}-{f}" for k, _, f in VIOLATIONS])
def test_single_parameter_flip(kind, model, field):
    with pytest.raises(ParameterViolation) as exc:
        validate(prob(model))
    assert exc.value.field == field


def test_quadratic_requires_spd_diffusion():
    singular = Quadratic(b=[0.0, 0.0], Bmat=[[-1.0, 0.0], [0.0, -1.0]],
                         sigma=[[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ParameterViolation):
        validate(prob(singular))


@pytest.mark.parametrize("b, Bmat, sigma", [
    (np.zeros((2, 2)), -np.eye(2), np.eye(2)),
    ([[0.1], [-0.05]], -np.eye(2), np.eye(2)),
    ([0.1, -0.05], -np.eye(3), np.eye(2)),
    ([0.1, -0.05], -np.eye(2), np.eye(2)[:, :1]),
], ids=["b_matrix", "b_column", "Bmat_3x3", "sigma_2x1"])
def test_quadratic_shapes_are_structural(b, Bmat, sigma):
    # A b that is not a vector, or a Bmat or sigma that is not d x d, is
    # refused in strict and relaxed mode alike.
    for relax in (False, True):
        with pytest.raises(ParameterViolation) as exc:
            validate(prob(Quadratic(b=b, Bmat=Bmat, sigma=sigma)), relax=relax)
        assert exc.value.field == "b/Bmat/sigma"


def test_rate_positive_unless_relaxed():
    with pytest.raises(ParameterViolation):
        validate(prob(BASE_MODELS["gbm"], r=0.0))
    relaxed = validate(prob(BASE_MODELS["gbm"], r=0.0), relax=True)
    assert relaxed.warnings


# Every bound row of the nine scalar kinds, written out: the parameters
# changed from BASE_MODELS and the (field, constraint, detail) of each bound
# they break, in check order.  Strict validation raises the first; relaxed
# validation warns for each.  The last case per kind breaks every row, so a
# reordered row fails too.
BOUND_CASES = [
    ("gbm", dict(sigma=0.0),
     [("sigma", "sigma != 0", "got 0.0")]),
    ("garch", dict(theta=-0.08),
     [("theta", "theta > 0", "got -0.08")]),
    ("garch", dict(a=0.0),
     [("a", "a > 0", "got 0.0")]),
    ("garch", dict(sigma=-0.2),
     [("sigma", "sigma > 0", "got -0.2")]),
    ("garch", dict(theta=-1.0, a=-1.0, sigma=-1.0),
     [("theta", "theta > 0", "got -1.0"),
      ("a", "a > 0", "got -1.0"),
      ("sigma", "sigma > 0", "got -1.0")]),
    ("inverse_garch", dict(a=-0.52),
     [("a", "a > 0", "got -0.52")]),
    ("inverse_garch", dict(sigma=-0.2),
     [("sigma", "sigma > 0", "got -0.2")]),
    ("inverse_garch", dict(theta=0.04),
     [("theta", "theta > sigma^2", "0.04 <= 0.04000000000000001")]),
    ("inverse_garch", dict(theta=-1.0, a=-1.0, sigma=-1.0),
     [("a", "a > 0", "got -1.0"),
      ("sigma", "sigma > 0", "got -1.0"),
      ("theta", "theta > sigma^2", "-1.0 <= 1.0")]),
    ("extended_cir", dict(mu=0.0),
     [("mu", "mu > 0", "got 0.0")]),
    ("extended_cir", dict(sigma=0.0),
     [("sigma", "sigma > 0", "got 0.0")]),
    ("extended_cir", dict(theta=0.03),
     [("theta", "theta >= sigma^2", "0.03 < 0.04000000000000001")]),
    ("extended_cir", dict(theta=-1.0, mu=-1.0, sigma=-1.0),
     [("mu", "mu > 0", "got -1.0"),
      ("sigma", "sigma > 0", "got -1.0"),
      ("theta", "theta >= sigma^2", "-1.0 < 1.0")]),
    ("three_halves", dict(theta=0.0),
     [("theta", "theta > 0", "got 0.0")]),
    ("three_halves", dict(a=-1.0),
     [("a", "a > 0", "got -1.0")]),
    ("three_halves", dict(sigma=0.0),
     [("sigma", "sigma > 0", "got 0.0")]),
    ("three_halves", dict(theta=-1.0, a=-1.0, sigma=-1.0),
     [("theta", "theta > 0", "got -1.0"),
      ("a", "a > 0", "got -1.0"),
      ("sigma", "sigma > 0", "got -1.0")]),
    ("heston_sv", dict(mu=-0.05),
     [("mu", "mu > 0", "got -0.05")]),
    ("heston_sv", dict(theta=0.0),
     [("theta", "theta > 0", "got 0.0"),
      ("delta", "2*theta > delta^2", "0.0 <= 0.16000000000000003")]),
    ("heston_sv", dict(a=0.0),
     [("a", "a > 0", "got 0.0")]),
    ("heston_sv", dict(delta=-0.4),
     [("delta", "delta > 0", "got -0.4")]),
    ("heston_sv", dict(v0=0.0),
     [("v0", "v0 > 0", "got 0.0")]),
    ("heston_sv", dict(rho=1.5),
     [("rho", "-1 <= rho <= 1", "got 1.5")]),
    ("heston_sv", dict(delta=0.89),
     [("delta", "2*theta > delta^2", "0.32 <= 0.7921")]),
    ("heston_sv", dict(mu=-1.0, theta=-1.0, a=-1.0, delta=-1.0, v0=-1.0, rho=2.0),
     [("mu", "mu > 0", "got -1.0"),
      ("theta", "theta > 0", "got -1.0"),
      ("a", "a > 0", "got -1.0"),
      ("delta", "delta > 0", "got -1.0"),
      ("v0", "v0 > 0", "got -1.0"),
      ("rho", "-1 <= rho <= 1", "got 2.0"),
      ("delta", "2*theta > delta^2", "-2.0 <= 1.0")]),
    ("three_halves_sv", dict(theta=0.0),
     [("theta", "theta > 0", "got 0.0")]),
    ("three_halves_sv", dict(a=-4.0),
     [("a", "a > 0", "got -4.0")]),
    ("three_halves_sv", dict(delta=0.0),
     [("delta", "delta > 0", "got 0.0")]),
    ("three_halves_sv", dict(v0=-0.25),
     [("v0", "v0 > 0", "got -0.25")]),
    ("three_halves_sv", dict(rho=-1.01),
     [("rho", "-1 <= rho <= 1", "got -1.01")]),
    ("three_halves_sv", dict(theta=-1.0, a=-1.0, delta=-1.0, v0=-1.0, rho=2.0),
     [("theta", "theta > 0", "got -1.0"),
      ("a", "a > 0", "got -1.0"),
      ("delta", "delta > 0", "got -1.0"),
      ("v0", "v0 > 0", "got -1.0"),
      ("rho", "-1 <= rho <= 1", "got 2.0")]),
    ("gbm_vasicek", dict(sigma=0.0),
     [("sigma", "sigma > 0", "got 0.0")]),
    ("gbm_vasicek", dict(theta=-0.06),
     [("theta", "theta > 0", "got -0.06")]),
    ("gbm_vasicek", dict(a=0.0),
     [("a", "a > 0", "got 0.0")]),
    ("gbm_vasicek", dict(delta=-0.05),
     [("delta", "delta > 0", "got -0.05")]),
    ("gbm_vasicek", dict(rho=1.2),
     [("rho", "-1 <= rho <= 1", "got 1.2")]),
    ("gbm_vasicek", dict(sigma=-1.0, theta=-1.0, a=-1.0, delta=-1.0, rho=2.0),
     [("sigma", "sigma > 0", "got -1.0"),
      ("theta", "theta > 0", "got -1.0"),
      ("a", "a > 0", "got -1.0"),
      ("delta", "delta > 0", "got -1.0"),
      ("rho", "-1 <= rho <= 1", "got 2.0")]),
    ("gbm_inverse_garch_rate", dict(mu=0.0),
     [("mu", "mu > 0", "got 0.0")]),
    ("gbm_inverse_garch_rate", dict(a=-5.0),
     [("a", "a > 0", "got -5.0")]),
    ("gbm_inverse_garch_rate", dict(delta=-0.2),
     [("delta", "delta > 0", "got -0.2")]),
    ("gbm_inverse_garch_rate", dict(sigma=0.0),
     [("sigma", "sigma > 0", "got 0.0")]),
    ("gbm_inverse_garch_rate", dict(theta=0.03),
     [("theta", "theta > delta^2", "0.03 <= 0.04000000000000001")]),
    ("gbm_inverse_garch_rate", dict(r0=0.0),
     [("r0", "r0 > 0", "got 0.0")]),
    ("gbm_inverse_garch_rate", dict(rho=-2.0),
     [("rho", "-1 <= rho <= 1", "got -2.0")]),
    ("gbm_inverse_garch_rate", dict(mu=-1.0, a=-1.0, delta=-1.0, sigma=-1.0, theta=-1.0, r0=-1.0, rho=2.0),
     [("mu", "mu > 0", "got -1.0"),
      ("a", "a > 0", "got -1.0"),
      ("delta", "delta > 0", "got -1.0"),
      ("sigma", "sigma > 0", "got -1.0"),
      ("theta", "theta > delta^2", "-1.0 <= 1.0"),
      ("r0", "r0 > 0", "got -1.0"),
      ("rho", "-1 <= rho <= 1", "got 2.0")]),

]


@pytest.mark.parametrize("kind,changes,broken", BOUND_CASES,
                         ids=[f"{k}-{'+'.join(c)}" for k, c, _ in BOUND_CASES])
def test_bound_rows_messages_and_warnings(kind, changes, broken):
    model = dataclasses.replace(BASE_MODELS[kind], **changes)
    field, constraint, detail = broken[0]
    with pytest.raises(ParameterViolation) as exc:
        validate(prob(model))
    assert (exc.value.field, exc.value.constraint) == (field, constraint)
    assert str(exc.value) == f"{constraint} fails: {detail}"
    assert validate(prob(model), relax=True).warnings == tuple(
        f"{f}: relaxed check failed: {c} ({d})" for f, c, d in broken)


def test_every_scalar_kind_bounds_tested():
    assert {k for k, _, _ in BOUND_CASES} == set(BASE_MODELS) - {"quadratic"}


# ---------------------------------------------------------------------------
# Log-price assembly: alpha log L_t from the Monte Carlo path functionals
# ---------------------------------------------------------------------------

def test_log_price_unleveraged_tracks_reference():
    vp = validate(prob(BASE_MODELS["gbm"], alpha=0.3, beta=1.0))
    logx = np.array([0.37, -1.2, 4.5])
    np.testing.assert_array_equal(_log_utility(vp, 3.0, logx, 0.77), 0.3 * logx)
    vp = validate(prob(BASE_MODELS["gbm_vasicek"], alpha=0.3, beta=1.0))
    np.testing.assert_array_equal(_log_utility(vp, 3.0, logx, 0.77, 0.05), 0.3 * logx)


def test_log_price_double_leverage_constant_vol():
    # beta=2, constant sigma, constant r: log L = 2 log X - r t - sigma^2 t.
    vp = validate(prob(BASE_MODELS["gbm"], alpha=0.5, beta=2.0, r=0.01))
    t, sigma, r = 3.0, 0.2, 0.01
    logx = 0.37
    val = _log_utility(vp, t, logx, sigma ** 2 * t)
    assert val == pytest.approx(0.5 * (2 * logx - r * t - sigma ** 2 * t), abs=1e-15)


def test_log_price_money_market_at_beta_zero():
    # The fund is the money-market account: alpha log L = alpha r t exactly,
    # whatever the state and variance functionals read.
    vp = validate(prob(BASE_MODELS["garch"], alpha=0.7, beta=0.0, r=0.03))
    val = _log_utility(vp, 5.0, np.array([1.23, -0.4]), np.array([0.77, 2.5]))
    np.testing.assert_array_equal(val, 0.7 * (0.03 * 5.0))


def test_log_price_quadratic_coefficient():
    # The quadratic path hands the assembly |sigma_s|^2 = 4 |sigma^T Y_s|^2
    # integrated, so log L = beta |Y|^2 - r (beta-1) t
    # - 2 beta (beta-1) int |sigma^T Y|^2 du.
    vp = validate(prob(BASE_MODELS["quadratic"], alpha=0.5, beta=-1.7, r=0.01))
    cfg = SimConfig(horizon=1.0, n_steps=100, n_paths=1000, seed=3, t_checkpoints=(1.0,))
    got = {}

    def emit(row, t, state, volint):
        got.update(t=t, state=state, logu=_log_utility(vp, t, state, volint))

    _growth_ou(vp.model, cfg, {cfg.n_steps: 0}, _Draw(cfg, 0, cfg.n_paths), emit, False)
    qint = 0.0
    for Y, s_prev, s in _ou(_Draw(cfg, 0, cfg.n_paths), cfg, vp.model):
        qint += 0.5 * (s_prev + s) * cfg.dt
    np.testing.assert_array_equal(got["state"], np.sum(Y * Y, axis=0))
    beta = -1.7
    want = 0.5 * (beta * got["state"] - 0.01 * (beta - 1.0) * got["t"]
                  - 2.0 * beta * (beta - 1.0) * qint)
    np.testing.assert_allclose(got["logu"], want, rtol=1e-13)


# ---------------------------------------------------------------------------
# JSON configuration
# ---------------------------------------------------------------------------

def test_load_problem_round_trip():
    for model in BASE_MODELS.values():
        vp = validate(prob(model))
        doc = problem_to_config(vp)
        vp2 = load_problem(doc)
        assert vp2.model == vp.model
        assert vp2.alpha == vp.alpha and vp2.beta == vp.beta and vp2.r == vp.r
    assert BASE_MODELS["quadratic"] != 3  # Quadratic.__eq__ defers to the other side


def test_unknown_keys_rejected():
    doc = {"model": {"kind": "gbm", "mu": 0.05, "sigma": 0.2, "nu": 3},
           "alpha": 0.5, "beta": 2.0, "r": 0.01}
    with pytest.raises(ConfigError, match="nu"):
        load_problem(doc)
    doc2 = {"model": {"kind": "gbm", "mu": 0.05, "sigma": 0.2},
            "alpha": 0.5, "beta": 2.0, "r": 0.01, "horizon": 10}
    with pytest.raises(ConfigError, match="horizon"):
        load_problem(doc2)


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError, match="kind"):
        load_problem({"model": {"kind": "jump_diffusion"},
                      "alpha": 0.5, "beta": 2.0, "r": 0.01})


def test_quadratic_dimension_cross_check():
    doc = {"model": {"kind": "quadratic", "d": 3, "b": [0.0, 0.0],
                     "Bmat": [[-1.0, 0.0], [0.0, -1.0]],
                     "sigma": [[1.0, 0.0], [0.0, 1.0]]},
           "alpha": 0.5, "beta": 2.0, "r": 0.01}
    with pytest.raises(ConfigError, match="d=3"):
        load_problem(doc)


@given(alpha=st.floats(0.01, 1.0), beta=st.floats(-10.0, 10.0))
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
def test_preference_leverage_accept_valid_ranges(alpha, beta):
    vp = validate(prob(BASE_MODELS["gbm"], alpha=alpha, beta=beta))
    assert vp.alpha == alpha and vp.beta == beta


def test_preference_rejects_bad_alpha():
    for bad in (0.0, -0.2, 1.2):
        with pytest.raises(ParameterViolation):
            Preference(bad)


def test_with_beta_preserves_certification():
    vp = validate(prob(BASE_MODELS["heston_sv"]))
    vp2 = vp.with_beta(-3.0)
    assert vp2.beta == -3.0 and vp2.model is vp.model
