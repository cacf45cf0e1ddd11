"""Eigenpair closed forms, generator-residual certificates, Q-dynamics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from letfgrowth.eigen import (
    Constant,
    Eigenpair,
    ExpLinear,
    Power,
    default_grid,
    eigenpair,
    generator_residual,
    q_dynamics,
)
from letfgrowth.errors import GridOutsideDomain
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
    validate,
)

from test_models import BASE_MODELS, prob


def vp_of(model, alpha=0.5, beta=2.0, r=0.01):
    return validate(prob(model, alpha=alpha, beta=beta, r=r))


def test_gbm_eigenpair_values():
    vp = vp_of(Gbm(mu=0.05, sigma=0.2))
    pair = eigenpair(vp)
    # -alpha beta mu + alpha (1-alpha) beta^2 sigma^2 / 2 = -0.05 + 0.02 = -0.03
    assert pair.lam == pytest.approx(-0.03, abs=1e-15)
    assert isinstance(pair.phi, Power) and pair.phi.p == pytest.approx(1.0)
    res = generator_residual(vp, pair, np.array([0.5, 1.0, 2.0]))
    assert res.max_abs_residual < 1e-12


def test_gbm_risk_neutral_unleveraged():
    vp = vp_of(Gbm(mu=0.05, sigma=0.2), alpha=1.0, beta=1.0)
    pair = eigenpair(vp)
    assert pair.lam == pytest.approx(-0.05, abs=1e-15)  # E[X_t] = exp(mu t)
    assert isinstance(pair.phi, Power) and pair.phi.p == 1.0


def test_garch_family_constant_eigenfunction():
    vp = vp_of(Garch(theta=0.08, a=1.0, sigma=0.2))
    pair = eigenpair(vp)
    assert pair.lam == pytest.approx(0.5 * 0.5 * 2.0 * 1.0 * 0.04)
    assert isinstance(pair.phi, Constant)
    # inverse GARCH shares the eigenvalue for identical (alpha, beta, sigma)
    pair2 = eigenpair(vp_of(InverseGarch(theta=0.08, a=1.0, sigma=0.2)))
    assert pair2.lam == pair.lam


def test_extended_cir_pair_and_residual():
    vp = vp_of(ExtendedCir(theta=0.05, mu=0.05, sigma=0.2))
    pair = eigenpair(vp)
    half_less = 0.5 - 0.05 / 0.04
    kappa = math.sqrt(half_less ** 2 + 0.5 * 2.0) + half_less
    assert pair.kappa == pytest.approx(kappa, rel=1e-15)
    assert pair.lam == pytest.approx(0.05 * kappa + 2 * 0.05 * 0.05 / 0.04)
    res = generator_residual(vp, pair, np.geomspace(0.1, 10.0, 40))
    assert res.max_abs_residual < 1e-10


def test_perturbed_eigenvalue_is_detected():
    vp = vp_of(Gbm(mu=0.05, sigma=0.2))
    pair = eigenpair(vp)
    broken = Eigenpair(lam=pair.lam + 0.01, phi=pair.phi, kappa=pair.kappa)
    res = generator_residual(vp, broken, np.array([0.5, 1.0, 2.0]))
    # |L phi/phi + lam + 0.01| / (|lam + 0.01|) = 0.01 / 0.02
    assert res.max_abs_residual > 1e-3


ALPHAS = (0.3, 0.7, 1.0)
BETAS = (-3.0, 2.0, 3.0)


@pytest.mark.parametrize("kind", sorted(BASE_MODELS))
def test_residual_sweep_all_variants(kind):
    for alpha in ALPHAS:
        for beta in BETAS:
            vp = vp_of(BASE_MODELS[kind], alpha=alpha, beta=beta)
            pair = eigenpair(vp)
            res = generator_residual(vp, pair, default_grid(vp))
            assert res.max_abs_residual < 1e-9, (kind, alpha, beta)


@pytest.mark.parametrize("kind", ["gbm", "extended_cir", "heston_sv",
                                  "gbm_vasicek", "quadratic"])
def test_finite_difference_mode_agrees(kind):
    vp = vp_of(BASE_MODELS[kind])
    pair = eigenpair(vp)
    res = generator_residual(vp, pair, default_grid(vp), mode="fd")
    assert res.max_abs_residual < 5e-4


def test_exponent_branch_signs():
    # extended CIR: kappa >= 2 (1/2 - theta/sigma^2); 3/2: kappa >= -(1/2 + a/sigma^2)
    vp = vp_of(ExtendedCir(theta=0.05, mu=0.05, sigma=0.2), beta=-3.0)
    k = eigenpair(vp).kappa
    assert k >= 2 * (0.5 - 0.05 / 0.04)
    vp2 = vp_of(ThreeHalves(theta=0.5, a=0.5, sigma=0.5), beta=-3.0)
    k2 = eigenpair(vp2).kappa
    assert k2 >= -(0.5 + 0.5 / 0.25)
    # Heston: kappa delta^2 + (a - alpha beta delta rho) equals the square root
    m = BASE_MODELS["heston_sv"]
    vp3 = vp_of(m, alpha=0.7, beta=3.0)
    k3 = eigenpair(vp3).kappa
    a_t = m.a - 0.7 * 3.0 * m.delta * m.rho
    assert k3 * m.delta ** 2 + a_t >= abs(a_t) - 1e-12


def test_no_killing_exponents_vanish():
    # beta in {0, 1}: extended CIR and 3/2 exponents are zero (theta >= sigma^2
    # puts the branch at |x| + x = 0 with x <= -1/2).
    for beta in (0.0, 1.0):
        k = eigenpair(vp_of(ExtendedCir(theta=0.05, mu=0.05, sigma=0.2),
                            beta=beta)).kappa
        assert abs(k) < 1e-12
        pair = eigenpair(vp_of(ThreeHalves(theta=0.5, a=0.5, sigma=0.5), beta=beta))
        assert abs(pair.kappa) < 1e-12 and abs(pair.lam) < 1e-12
    # and the extended CIR eigenvalue reduces to 2 theta mu / sigma^2
    pair = eigenpair(vp_of(ExtendedCir(theta=0.05, mu=0.05, sigma=0.2), beta=1.0))
    assert pair.lam == pytest.approx(2 * 0.05 * 0.05 / 0.04, rel=1e-12)


def test_vasicek_pair_satisfies_generator():
    # The growing-exponential branch is the one that satisfies the killing
    # equation; the decaying branch fails it by a factor linear in r.
    m = BASE_MODELS["gbm_vasicek"]
    vp = vp_of(m)
    pair = eigenpair(vp)
    assert isinstance(pair.phi, ExpLinear)
    s = vp.alpha * (1.0 - vp.beta) / m.a
    assert pair.phi.c == pytest.approx(-s)
    res = generator_residual(vp, pair, np.linspace(-5, 5, 50))
    assert res.max_abs_residual < 1e-9
    flipped = Eigenpair(lam=pair.lam, phi=ExpLinear(s), kappa=None)
    res_bad = generator_residual(vp, flipped, np.linspace(-5, 5, 50))
    assert res_bad.max_abs_residual > 1e-2


def test_q_dynamics_extended_cir():
    m = ExtendedCir(theta=0.05, mu=0.05, sigma=0.2)
    vp = vp_of(m)
    pair = eigenpair(vp)
    qd = q_dynamics(vp, pair)
    x = np.geomspace(0.1, 10, 20)
    want = m.theta + pair.kappa * m.sigma ** 2 - m.mu * x
    assert np.allclose(qd.drift(x), want, rtol=1e-12)


def test_q_dynamics_garch_measure_unchanged():
    m = Garch(theta=0.08, a=1.0, sigma=0.2)
    vp = vp_of(m)
    qd = q_dynamics(vp, eigenpair(vp))
    x = np.geomspace(0.1, 10, 20)
    assert np.allclose(qd.drift(x), m.theta - m.a * x)


def test_q_dynamics_heston_reversion_speed():
    m = BASE_MODELS["heston_sv"]
    vp = vp_of(m)
    qd = q_dynamics(vp, eigenpair(vp))
    v = np.geomspace(0.01, 1.0, 20)
    a_t = m.a - vp.alpha * vp.beta * m.delta * m.rho
    speed = math.sqrt(a_t ** 2 + vp.alpha * (1 - vp.alpha) * vp.beta ** 2 * m.delta ** 2)
    assert np.allclose(qd.drift(v), m.theta - speed * v, rtol=1e-12)


def test_q_dynamics_quadratic():
    m = BASE_MODELS["quadratic"]
    vp = vp_of(m)
    pair = eigenpair(vp)
    qd = q_dynamics(vp, pair)
    y = np.array([[0.3, -0.2], [0.0, 0.0], [1.0, 2.0]])
    a = m.a
    want = (m.b - a @ pair.phi.u)[None, :] + y @ (m.Bmat - 2 * a @ pair.phi.V).T
    assert np.allclose(qd.drift(y), want, rtol=1e-10, atol=1e-12)


def test_grid_domain_check():
    # Every scalar state but the Vasicek rate lives on (0, inf).
    for kind in sorted(set(BASE_MODELS) - {"gbm_vasicek", "quadratic"}):
        vp = vp_of(BASE_MODELS[kind])
        with pytest.raises(GridOutsideDomain):
            generator_residual(vp, eigenpair(vp), np.array([-1.0, 1.0]))


def test_real_state_accepts_negative_grid():
    vp = vp_of(BASE_MODELS["gbm_vasicek"])
    res = generator_residual(vp, eigenpair(vp), np.array([-2.0, -0.5, 1.0]))
    assert res.max_abs_residual < 1e-12


@given(alpha=st.floats(0.05, 1.0),
       beta=st.one_of(st.floats(-6.0, 0.0), st.floats(1.0, 6.0)),
       sigma=st.floats(0.05, 0.8), a=st.floats(0.05, 4.0))
@settings(max_examples=40, deadline=None)
def test_three_halves_residual_property(alpha, beta, sigma, a):
    vp = vp_of(ThreeHalves(theta=0.4, a=a, sigma=sigma), alpha=alpha, beta=beta)
    pair = eigenpair(vp)
    res = generator_residual(vp, pair, default_grid(vp))
    assert res.max_abs_residual < 1e-9
