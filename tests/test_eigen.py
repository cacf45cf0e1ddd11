"""Eigenpair closed forms, eigenfunction derivative ratios, generator-residual
certificates."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from letfgrowth.eigen import (
    Constant,
    Eigenpair,
    ExpLinear,
    ExpLinearPower,
    ExpQuadratic,
    Power,
    default_grid,
    eigenpair,
    generator_residual,
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


def test_eigenpair_record_fields_defaults_and_immutability():
    assert Eigenpair._fields == ("lam", "phi", "kappa")
    assert Eigenpair._field_defaults == {"kappa": None}
    pair = Eigenpair(-0.03, Power(1.0))
    assert pair.kappa is None
    assert pair == Eigenpair(lam=-0.03, phi=Power(1.0), kappa=None)
    assert Eigenpair(0.1, Constant(), 0.5).kappa == 0.5
    for name in Eigenpair._fields:
        with pytest.raises(AttributeError):
            setattr(pair, name, 0.0)


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


class _FdRatios:
    """Derivative ratios from central differences of the family's own log_phi,
    so the residual certificate runs on numbers independent of the
    closed-form ratios."""

    def _step(self, x):
        # Keep the exponentiated increment near 2e-3: steep exponential
        # eigenfunctions would otherwise lose the second ratio to truncation.
        h0 = 1e-5 * np.maximum(1.0, np.abs(x))
        probe = (self.log_phi(x + h0) - self.log_phi(x)) / h0
        return np.minimum(h0, 2e-3 / (np.abs(probe) + 1.0))

    def _ratio(self, x, s):
        return np.exp(self.log_phi(x + s) - self.log_phi(x))

    def d1_ratio(self, x):
        h = self._step(x)
        return (self._ratio(x, h) - self._ratio(x, -h)) / (2.0 * h)

    def d2_ratio(self, x):
        h = self._step(x)
        return (self._ratio(x, h) - 2.0 + self._ratio(x, -h)) / (h * h)

    def grad_ratio(self, y):
        h, e = 1e-4, 1e-4 * np.eye(y.shape[1])
        return np.stack([(self._ratio(y, ei) - self._ratio(y, -ei)) / (2.0 * h)
                         for ei in e], axis=-1)

    def hess_ratio(self, y):
        h, e = 1e-4, 1e-4 * np.eye(y.shape[1])
        r = lambda s: self._ratio(y, s)  # noqa: E731
        return np.array([[(r(ei + ej) - r(ei - ej) - r(ej - ei) + r(-ei - ej)) / (4.0 * h * h)
                          for ej in e] for ei in e]).transpose(2, 0, 1)


def _with_fd_ratios(phi):
    cls = type("Fd" + type(phi).__name__, (_FdRatios, type(phi)), {})
    return cls(**{f.name: getattr(phi, f.name) for f in dataclasses.fields(phi)})


@pytest.mark.parametrize("kind", ["gbm", "extended_cir", "heston_sv",
                                  "gbm_vasicek", "quadratic"])
def test_finite_difference_mode_agrees(kind):
    vp = vp_of(BASE_MODELS[kind])
    pair = eigenpair(vp)
    fd_pair = Eigenpair(lam=pair.lam, phi=_with_fd_ratios(pair.phi), kappa=pair.kappa)
    res = generator_residual(vp, fd_pair, default_grid(vp))
    assert res.max_abs_residual < 5e-4


def test_exp_quadratic_requires_symmetric_v():
    with pytest.raises(ValueError, match="V must be symmetric"):
        ExpQuadratic(u=[0.0, 0.0], V=[[0.7, 0.2], [0.1, -0.3]])


def test_derivative_ratios_match_log_phi():
    # The residual certificate reads each family's exact ratios; here they
    # meet central differences of the family's own log_phi = l, through
    # phi'/phi = l' and phi''/phi = l'' + l'^2 (grad and Hess on R^d).
    h = 1e-4
    x = np.array([0.3, 1.0, 2.5])
    for phi in (Constant(), Power(1.7), Power(-0.6), ExpLinear(0.8), ExpLinear(-1.3),
                ExpLinearPower(c=0.9, p=1.4), ExpLinearPower(c=-0.5, p=-0.7)):
        lm, l0, lp = phi.log_phi(x - h), phi.log_phi(x), phi.log_phi(x + h)
        d1 = (lp - lm) / (2.0 * h)
        d2 = (lp - 2.0 * l0 + lm) / (h * h) + d1 * d1
        assert np.allclose(phi.d1_ratio(x), d1, rtol=1e-6, atol=1e-8), phi
        assert np.allclose(phi.d2_ratio(x), d2, rtol=1e-5, atol=1e-6), phi
    phi = ExpQuadratic(u=[0.4, -1.1], V=[[0.7, 0.2], [0.2, -0.3]])
    y = np.array([[0.3, -0.2], [1.0, 0.5], [-1.5, 2.0]])
    lp, e = phi.log_phi, h * np.eye(2)
    grad = np.stack([(lp(y + e[i]) - lp(y - e[i])) / (2.0 * h) for i in range(2)], axis=-1)
    hess = np.array([[(lp(y + e[i] + e[j]) - lp(y + e[i] - e[j])
                       - lp(y - e[i] + e[j]) + lp(y - e[i] - e[j])) / (4.0 * h * h)
                      for j in range(2)] for i in range(2)]).transpose(2, 0, 1)
    assert np.allclose(phi.grad_ratio(y), grad, rtol=1e-6, atol=1e-8)
    assert np.allclose(phi.hess_ratio(y), hess + np.einsum("ni,nj->nij", grad, grad),
                       rtol=1e-5, atol=1e-6)


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


def test_grid_domain_check():
    # Every scalar state but the Vasicek rate lives on (0, inf).
    for kind in sorted(set(BASE_MODELS) - {"gbm_vasicek", "quadratic"}):
        vp = vp_of(BASE_MODELS[kind])
        with pytest.raises(GridOutsideDomain):
            generator_residual(vp, eigenpair(vp), np.array([-1.0, 1.0]))
    # A non-finite point, or a grid of the wrong shape for the state, is
    # rejected too instead of reading as a nan or a zero residual.
    for kind, grid in (("gbm", np.array([1.0, np.nan])), ("gbm", np.ones((3, 2))),
                       ("quadratic", np.array([[0.0, np.nan]])),
                       ("quadratic", np.ones((3, 3)))):
        vp = vp_of(BASE_MODELS[kind])
        with pytest.raises(GridOutsideDomain):
            generator_residual(vp, eigenpair(vp), grid)


def test_scalar_default_grids_are_shared_and_read_only():
    want = {"positive": np.geomspace(0.01, 100.0, 50), "real": np.linspace(-5.0, 5.0, 50)}
    for kind, model in BASE_MODELS.items():
        if kind == "quadratic":
            continue
        grid = default_grid(vp_of(model))
        assert grid.tobytes() == want[model.domain].tobytes()
        assert grid is model.grid()
        with pytest.raises(ValueError):
            grid[0] = 1.0


def test_real_state_accepts_negative_grid():
    vp = vp_of(BASE_MODELS["gbm_vasicek"])
    res = generator_residual(vp, eigenpair(vp), np.array([-2.0, -0.5, 1.0]))
    assert res.max_abs_residual < 1e-12


@given(alpha=st.floats(0.05, 1.0),
       beta=st.one_of(st.floats(-6.0, 0.0), st.floats(1.0, 6.0)),
       sigma=st.floats(0.05, 0.8), a=st.floats(0.05, 4.0))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_three_halves_residual_property(alpha, beta, sigma, a):
    vp = vp_of(ThreeHalves(theta=0.4, a=a, sigma=sigma), alpha=alpha, beta=beta)
    pair = eigenpair(vp)
    res = generator_residual(vp, pair, default_grid(vp))
    assert res.max_abs_residual < 1e-9
