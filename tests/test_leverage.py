"""Optimal leverage: closed forms, case logic, derivative certificates."""

import math

import numpy as np
import pytest

from letfgrowth.errors import NoFiniteRegion
from letfgrowth.growth import growth_rate
from letfgrowth.leverage import (
    golden_section_max,
    lambda_derivative,
    objective_value,
    optimal_beta,
)
from letfgrowth.models import (
    ConstantRate,
    ExtendedCir,
    Garch,
    Gbm,
    GbmVasicek,
    HestonSV,
    InverseGarch,
    Leverage,
    Preference,
    Problem,
    Quadratic,
    ThreeHalves,
    validate,
)

from test_models import BASE_MODELS, prob


def vp_of(model, alpha=0.5, beta=2.0, r=0.01, relax=False):
    return validate(prob(model, alpha=alpha, beta=beta, r=r), relax=relax)


def search_max(vp, lo=-50.0, hi=50.0):
    grid = np.linspace(lo, hi, 2001)
    vals = [objective_value(vp, float(b)) for b in grid]
    i = int(np.argmax(vals))
    return golden_section_max(lambda b: objective_value(vp, b),
                              grid[max(0, i - 1)], grid[min(len(grid) - 1, i + 1)])


def test_gbm_closed_form_and_search_agree():
    vp = vp_of(Gbm(mu=0.05, sigma=0.2))
    opt = optimal_beta(vp)
    assert opt.method == "closed_form"
    assert opt.beta_star == pytest.approx(2.0, abs=1e-12)
    assert abs(opt.beta_star - search_max(vp)) <= 1e-3
    assert opt.rate_at_star == pytest.approx(growth_rate(vp.with_beta(2.0)).rate)


@pytest.mark.parametrize("mu,positive", [(0.05, True), (0.003, False)])
def test_gbm_sign_matches_excess_return(mu, positive):
    opt = optimal_beta(vp_of(Gbm(mu=mu, sigma=0.2)))
    assert (opt.beta_star > 0) == positive


def test_gbm_risk_neutral_is_boundary():
    opt = optimal_beta(vp_of(Gbm(mu=0.05, sigma=0.2), alpha=1.0), cap=(-3, 3))
    assert opt.method == "boundary" and opt.boundary_side == "+cap"
    assert opt.beta_star == 3.0
    opt_unc = optimal_beta(vp_of(Gbm(mu=0.05, sigma=0.2), alpha=1.0))
    assert opt_unc.boundary_side == "+inf" and opt_unc.beta_star is None


def test_garch_quarter_and_alpha_independence():
    want = 0.5 - 0.01 / 0.04
    for alpha in (0.3, 0.7, 1.0):
        opt = optimal_beta(vp_of(Garch(theta=0.08, a=1.0, sigma=0.2), alpha=alpha))
        assert opt.beta_star == pytest.approx(want, abs=1e-12)
        assert opt.method == "closed_form"
    vp = vp_of(Garch(theta=0.08, a=1.0, sigma=0.2))
    assert abs(want - search_max(vp)) <= 1e-3


def test_inverse_garch_vertex_outside_finite_region():
    # theta barely above sigma^2 pushes the finite region's left edge above
    # the concave vertex; infinite growth beyond the edge dominates.
    m = InverseGarch(theta=0.0101, a=1.0, sigma=0.1)
    vp = vp_of(m, alpha=0.9, r=0.02)
    opt = optimal_beta(vp, cap=(-3.0, 3.0))
    assert opt.method == "boundary" and opt.boundary_side == "-cap"
    assert any("infinite" in n for n in opt.notes)


def test_extended_cir_boundary_cases():
    m = ExtendedCir(theta=0.05, mu=0.05, sigma=0.2)
    opt = optimal_beta(vp_of(m), cap=(-3.0, 3.0))
    assert opt.method == "boundary" and opt.boundary_side == "+cap"
    assert opt.beta_star == 3.0
    opt_unc = optimal_beta(vp_of(m))
    assert opt_unc.boundary_side == "+inf" and opt_unc.beta_star is None
    bear = optimal_beta(vp_of(ExtendedCir(theta=0.05, mu=0.004, sigma=0.2), r=0.01),
                        cap=(-3.0, 3.0))
    assert bear.boundary_side == "-cap" and bear.beta_star == -3.0


def test_three_halves_cases():
    # theta = r (1 + 2a/sigma^2) makes the maximizer exactly zero.
    a, sigma, r = 0.5, 0.5, 0.01
    theta = r * (1.0 + 2.0 * a / sigma ** 2)
    opt = optimal_beta(vp_of(ThreeHalves(theta=theta, a=a, sigma=sigma), r=r))
    assert opt.beta_star == pytest.approx(0.0, abs=1e-12)
    # alpha >= theta^2 / r^2: decreasing, most negative leverage preferred.
    m = ThreeHalves(theta=0.05, a=0.5, sigma=0.5)
    opt2 = optimal_beta(vp_of(m, alpha=0.5, r=0.1), cap=(-3.0, 3.0))
    assert opt2.boundary_side == "-cap" and opt2.beta_star == -3.0
    for b in np.linspace(-3, 3, 7):
        assert lambda_derivative(vp_of(m, r=0.1).with_beta(b), float(b)) < 0.0
    # generic interior case agrees with the search
    m3 = ThreeHalves(theta=0.5, a=0.5, sigma=0.5)
    opt3 = optimal_beta(vp_of(m3))
    assert abs(opt3.beta_star - search_max(vp_of(m3))) <= 1e-3


HESTON_FIG = dict(theta=0.16, a=3.1, delta=0.89, rho=-0.5, v0=0.16 / 3.1)


@pytest.mark.parametrize("mu,want", [(0.05, 1.93), (0.01, 0.00), (-0.05, -1.95)])
def test_heston_reference_scenario(mu, want):
    vp = vp_of(HestonSV(mu=mu, **HESTON_FIG), relax=True)
    opt = optimal_beta(vp, cap=(-3.0, 3.0))
    assert opt.method == "closed_form"
    assert opt.beta_star == pytest.approx(want, abs=0.01)
    assert opt.profile.C1 > opt.profile.D ** 2  # interior case
    # grid argmax within 0.02
    grid = -3.0 + 0.01 * np.arange(601)
    vals = [growth_rate(vp.with_beta(float(b))).rate for b in grid]
    assert abs(grid[int(np.argmax(vals))] - want) <= 0.02


def test_heston_monotone_case_boundaries():
    # alpha = 1 and rho = 0 collapse C1 to zero: the rate is linear in the
    # square-root argument and the sign of D decides the side.
    m = HestonSV(mu=0.08, theta=0.16, a=3.1, delta=0.4, rho=0.0, v0=0.05)
    opt = optimal_beta(vp_of(m, alpha=1.0), cap=(-3.0, 3.0))
    assert opt.boundary_side == "+cap" and opt.beta_star == 3.0
    m2 = HestonSV(mu=0.001, theta=0.16, a=3.1, delta=0.4, rho=0.0, v0=0.05)
    opt2 = optimal_beta(vp_of(m2, alpha=1.0), cap=(-3.0, 3.0))
    assert opt2.boundary_side == "-cap" and opt2.beta_star == -3.0


VASICEK_FIG = dict(sigma=0.3, theta=0.16, a=3.0, delta=0.89, rho=-0.5, r0=0.01)


@pytest.mark.parametrize("mu,want", [(0.05, 3.65), (0.01, 1.52), (-0.05, -1.68)])
def test_vasicek_reference_scenario(mu, want):
    vp = vp_of(GbmVasicek(mu=mu, **VASICEK_FIG), alpha=0.8)
    opt = optimal_beta(vp)  # the mu = 0.05 vertex lies beyond the market cap
    assert opt.method == "quadratic_vertex"
    assert opt.profile.C1 < 0.0
    assert opt.beta_star == pytest.approx(want, abs=0.01)
    assert opt.beta_star == pytest.approx(-opt.profile.C2 / (2 * opt.profile.C1),
                                          rel=1e-12)


def test_first_order_and_local_max_certificates():
    cases = [
        vp_of(Gbm(mu=0.05, sigma=0.2)),
        vp_of(Garch(theta=0.08, a=1.0, sigma=0.2)),
        vp_of(ThreeHalves(theta=0.5, a=0.5, sigma=0.5)),
        vp_of(HestonSV(mu=0.05, **HESTON_FIG), relax=True),
        vp_of(GbmVasicek(mu=0.01, **VASICEK_FIG), alpha=0.8),
    ]
    for vp in cases:
        opt = optimal_beta(vp)
        assert opt.method in ("closed_form", "quadratic_vertex")
        b = opt.beta_star
        val = objective_value(vp, b)
        deriv = lambda_derivative(vp, b)
        assert abs(deriv) <= 1e-8 * (1.0 + abs(val))
        h = 1e-3
        assert val >= objective_value(vp, b + h) - 1e-12
        assert val >= objective_value(vp, b - h) - 1e-12


def test_exact_vs_fd_derivative():
    cases = [
        (vp_of(Gbm(mu=0.05, sigma=0.2)), 1.3),
        (vp_of(Garch(theta=0.08, a=1.0, sigma=0.2)), -2.0),
        (vp_of(ExtendedCir(theta=0.05, mu=0.05, sigma=0.2)), 2.5),
        (vp_of(ThreeHalves(theta=0.5, a=0.5, sigma=0.5)), -1.2),
        (vp_of(HestonSV(mu=0.05, **HESTON_FIG), relax=True), 1.3),
        (vp_of(GbmVasicek(mu=0.05, **VASICEK_FIG), alpha=0.8), 2.2),
    ]
    for vp, b in cases:
        exact = lambda_derivative(vp, b)
        fd = lambda_derivative(vp, b, mode="fd")
        assert fd == pytest.approx(exact, rel=1e-6, abs=1e-9)


def test_heston_derivative_zero_at_flat_drift():
    vp = vp_of(HestonSV(mu=0.01, **HESTON_FIG), relax=True)
    assert abs(lambda_derivative(vp, 0.0)) < 1e-12


def test_quadratic_concave_search():
    vp = vp_of(BASE_MODELS["quadratic"])
    opt = optimal_beta(vp, cap=(-3.0, 3.0))
    assert opt.method == "concave_search"
    b = opt.beta_star
    val = objective_value(vp, b)
    assert val >= objective_value(vp, b + 1e-3) - 1e-12
    assert val >= objective_value(vp, b - 1e-3) - 1e-12


def test_quadratic_optimum_no_worse_than_cash():
    # The objective rises until beta ~ 0.047, where it becomes infinite and
    # then the stabilizing branch ends; a refinement that walks past that
    # edge must not report the -inf side as the optimum.
    vp = vp_of(Quadratic(b=[0.0], Bmat=[[-0.3]], sigma=[[1.0]]))
    cash = objective_value(vp, 0.0)
    assert cash == pytest.approx(0.005, abs=1e-15)
    for cap in ((-3.0, 3.0), None):
        opt = optimal_beta(vp, cap=cap)
        b = opt.beta_star
        val = objective_value(vp, b)
        assert math.isfinite(val) and opt.rate_at_star == val
        assert val >= cash
        assert val >= objective_value(vp, b + 1e-3) - 1e-12
        assert val >= objective_value(vp, b - 1e-3) - 1e-12


def test_quadratic_no_finite_region():
    m = Quadratic(b=[0.0], Bmat=[[-0.5]], sigma=[[1.0]])
    vp = vp_of(m, alpha=1.0)
    with pytest.raises(NoFiniteRegion):
        optimal_beta(vp, cap=(1.5, 2.5))


def test_cap_validation():
    vp = vp_of(Gbm(mu=0.05, sigma=0.2))
    with pytest.raises(ValueError):
        optimal_beta(vp, cap=(3.0, -3.0))
