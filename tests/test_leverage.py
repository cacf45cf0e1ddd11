"""Optimal leverage: closed forms, case logic, derivative certificates."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from letfgrowth import leverage, models, riccati
from letfgrowth.errors import ComplexKappa, NoFiniteRegion
from letfgrowth.growth import growth_rate
from letfgrowth.leverage import lambda_derivative, objective_value, optimal_beta
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

from test_closed_forms import SECOND_SETS, fd_derivative
from test_models import BASE_MODELS, prob
from test_riccati import SWEEP_RECIPES


def vp_of(model, alpha=0.5, beta=2.0, r=0.01, relax=False):
    return validate(prob(model, alpha=alpha, beta=beta, r=r), relax=relax)


def search_max(vp, lo=-50.0, hi=50.0):
    """Argmax of the objective on a grid of step 0.05, refined on a second
    grid of step 5e-4 around it: independent of the library's search."""
    def argmax(grid):
        return float(grid[int(np.argmax([objective_value(vp, float(b)) for b in grid]))])

    coarse = np.linspace(lo, hi, 2001)
    step = coarse[1] - coarse[0]
    b = argmax(coarse)
    return argmax(np.linspace(max(lo, b - step), min(hi, b + step), 201))


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


@pytest.mark.parametrize("cap", [None, (-100.0, 100.0)])
def test_heston_alpha_one_vertex_on_the_finite_edge(cap):
    # At alpha = 1 growth is infinite for beta >= a/(delta*rho) = 15.5, and
    # the concave profile's vertex (C1*C3 = C2^2) sits exactly on that edge:
    # the optimum is the boundary there, not a vertex with a -inf objective.
    m = HestonSV(mu=0.05, theta=0.16, a=3.1, delta=0.4, rho=0.5, v0=0.05)
    assert m.interval(1.0)[:2] == (-math.inf, 15.5)
    opt = optimal_beta(vp_of(m, alpha=1.0), cap=cap)
    assert opt.method == "boundary" and opt.rate_at_star is None
    assert (opt.boundary_side, opt.beta_star) == (("+inf", None) if cap is None
                                                  else ("+cap", 100.0))
    assert "growth is infinite beyond the + edge" in opt.notes[-1]


@pytest.mark.parametrize("rho", [0.5, -0.5])
def test_heston_alpha_one_interval_agrees_with_growth_condition(rho):
    m = HestonSV(mu=0.05, theta=0.16, a=3.1, delta=0.4, rho=rho, v0=0.05)
    lo, hi, _ = m.interval(1.0)
    edge = lo if rho < 0.0 else hi
    assert edge == pytest.approx(3.1 / (0.4 * rho), rel=1e-15)
    for b in (edge - 1e-6, edge + 1e-6, 0.0, 2.0 * edge, -2.0 * edge):
        assert growth_rate(vp_of(m, alpha=1.0, beta=b)).is_finite == (lo < b < hi)
    assert m.interval(0.9) == (-math.inf, math.inf, None)


def test_three_halves_sv_alpha_one_vertex_is_the_kink():
    # At alpha = 1, C1*C3 - C2^2 is zero and rounds below it here; the
    # vertex is the kink of the square root, a - beta*delta*rho + delta^2/2
    # = 0, where the piecewise-linear objective peaks.
    m = ThreeHalvesSV(mu=0.05, theta=0.6, a=3.0, delta=0.4, rho=0.5, v0=0.05)
    vp = vp_of(m, alpha=1.0)
    opt = optimal_beta(vp)
    assert opt.method == "closed_form"
    assert opt.beta_star == pytest.approx((3.0 + 0.08) / 0.2, rel=1e-12)
    grid = np.linspace(-50.0, 50.0, 2001)
    assert max(objective_value(vp, float(g)) for g in grid) <= opt.rate_at_star + 1e-12


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
        vp_of(BASE_MODELS["quadratic"]),
    ]
    for vp in cases:
        opt = optimal_beta(vp)
        assert opt.method in ("closed_form", "quadratic_vertex", "concave_search")
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
        (vp_of(BASE_MODELS["quadratic"]), -1.7),
        (vp_of(BASE_MODELS["quadratic"], alpha=1.0), 0.3),
        (vp_of(SECOND_SETS["quadratic"][0], alpha=0.3, r=0.02), 2.5),
    ]
    for vp, b in cases:
        exact = lambda_derivative(vp, b)
        fd = fd_derivative(vp, b)
        assert fd == pytest.approx(exact, rel=1e-6, abs=1e-9)


def test_three_halves_derivative_reads_the_closed_forms_root(monkeypatch):
    # The slope at beta takes the square root that the exponent kappa there
    # rests on, so the two cannot sit on roots one ulp apart.
    roots = []
    stable_root = models._stable_root_minus

    def recorded(h, q, context):
        roots.append(stable_root(h, q, context)[1])
        return stable_root(h, q, context)
    monkeypatch.setattr(models, "_stable_root_minus", recorded)
    m, r = BASE_MODELS["three_halves"], 0.01
    for alpha in (0.3, 0.5, 0.8, 1.0):
        for beta in np.linspace(-3.0, 3.0, 601).tolist():
            roots.clear()
            m.closed_form(alpha, beta)
            want = -r * alpha - m.theta * alpha * (2.0 * beta - 1.0) / (2.0 * roots[0])
            assert m.derivative(alpha, beta, r).hex() == want.hex(), (alpha, beta)


@pytest.mark.parametrize("d", range(1, 7))
def test_exact_quadratic_slope_matches_fd(d):
    # The Riccati-sensitivity slope against central differences of the
    # objective, on criterion-7 and catalog-scale (a / 10d) models, at betas
    # outside (0, 1) and inside it wherever the objective is finite.
    rng = np.random.default_rng(7100 + d)
    outside = inside = 0
    for recipe in ("criterion7", "catalog_scale"):
        for alpha in (0.3, 0.5, 1.0):
            a, B = SWEEP_RECIPES[recipe](rng, d)
            vp = vp_of(Quadratic(b=rng.normal(scale=0.1, size=d), Bmat=B,
                                 sigma=np.linalg.cholesky(a)), alpha=alpha)
            for beta in (-2.0, -0.6, -0.1, 0.05, 0.2, 0.5, 0.8, 1.05, 1.4, 2.5):
                exact = lambda_derivative(vp, beta)
                if math.isnan(exact):
                    assert objective_value(vp, beta) == -math.inf
                    continue
                fd = fd_derivative(vp, beta)
                assert exact == pytest.approx(fd, rel=1e-6, abs=1e-9)
                inside += 0.0 < beta < 1.0
                outside += not 0.0 < beta < 1.0
    assert inside >= 6 and outside >= 12


@pytest.mark.parametrize("d", range(1, 7))
def test_exact_quadratic_curvature_matches_fd(d):
    # The second-order Riccati sensitivity against central differences of
    # the exact slope, on the models and betas of the slope test above.
    rng = np.random.default_rng(7100 + d)
    outside = inside = 0
    for recipe in ("criterion7", "catalog_scale"):
        for alpha in (0.3, 0.5, 1.0):
            a, B = SWEEP_RECIPES[recipe](rng, d)
            vp = vp_of(Quadratic(b=rng.normal(scale=0.1, size=d), Bmat=B,
                                 sigma=np.linalg.cholesky(a)), alpha=alpha)
            for beta in (-2.0, -0.6, -0.1, 0.05, 0.2, 0.5, 0.8, 1.05, 1.4, 2.5):
                ((_, slope, curvature),) = vp.model.rate_and_slope(alpha, [beta], vp.r)
                if math.isnan(slope):
                    assert math.isnan(curvature)
                    continue
                h = 1e-6 * max(1.0, abs(beta))
                fd = (lambda_derivative(vp, beta + h) - lambda_derivative(vp, beta - h)) / (2 * h)
                assert curvature == pytest.approx(fd, rel=1e-6, abs=1e-8)
                inside += 0.0 < beta < 1.0
                outside += not 0.0 < beta < 1.0
    assert inside >= 6 and outside >= 12


@pytest.mark.parametrize("vp, beta", [
    pytest.param(vp_of(Garch(theta=0.08, a=0.1, sigma=0.6), alpha=1.0, relax=True), 1.7,
                 id="garch_infinite"),
    pytest.param(vp_of(ExtendedCir(theta=0.01, mu=0.01, sigma=0.2), alpha=0.3, relax=True),
                 0.5, id="extended_cir_complex_kappa"),
])
def test_exact_derivative_is_nan_off_the_finite_region(vp, beta):
    # Where the objective is -inf (infinite growth, or a complex exponent)
    # there is no slope to report; central differences read nan there too.
    assert objective_value(vp, beta) == -math.inf
    assert math.isnan(lambda_derivative(vp, beta))
    assert math.isnan(fd_derivative(vp, beta))


@pytest.mark.parametrize("model", [
    HestonSV(mu=-0.05, theta=0.16, a=3.1, delta=0.4, rho=0.3, v0=0.16 / 3.1),
    ThreeHalvesSV(mu=-0.05, theta=0.5, a=2.0, delta=0.8, rho=0.4, v0=0.3),
])
def test_sv_vertex_with_negative_d(model):
    # D < 0 puts the vertex on the other side of -C2/C1 from D > 0.
    vp = vp_of(model, alpha=0.3, r=0.03, relax=True)
    opt = optimal_beta(vp)
    assert opt.method == "closed_form" and opt.profile.D < 0.0
    b = opt.beta_star
    assert abs(lambda_derivative(vp, b)) <= 1e-10
    best = objective_value(vp, b)
    grid = np.linspace(-10.0, 10.0, 2001)
    assert max(objective_value(vp, float(g)) for g in grid) <= best + 1e-12


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


@pytest.mark.parametrize("alpha", [0.3, 0.8, 1.0])
@pytest.mark.parametrize("name", ["base", "second"])
def test_quadratic_optimum_does_not_depend_on_the_bracket(name, alpha):
    # The same maximizer from the uncapped, market and inside brackets: the
    # root of the exact slope, not wherever a bracketing search stopped.
    model, r = (BASE_MODELS["quadratic"], 0.01) if name == "base" else SECOND_SETS["quadratic"]
    vp = vp_of(model, alpha=alpha, r=r, relax=True)
    betas = [optimal_beta(vp, cap=cap).beta_star for cap in (None, (-3.0, 3.0), (0.2, 0.9))]
    assert max(betas) - min(betas) <= 1e-10


@pytest.mark.parametrize("cap", [None, (-3.0, 3.0)], ids=["uncapped", "capped"])
def test_quadratic_refinement_solves_few_chains(monkeypatch, cap):
    # The scan solves no stationary law; after it, whole Riccati chains are
    # solved for the scan maximum with its neighbours, the Hermite start and
    # one Newton point.
    count = {"scanned": False, "chains": 0, "scan_stationary": 0}
    solve_chunk, stationary, rates = riccati._solve_chunk, riccati._stationary_stage, Quadratic.rates

    def counted_chunk(*args):
        count["chains"] += count["scanned"]
        return solve_chunk(*args)

    def counted_stationary(chain):
        count["scan_stationary"] += not count["scanned"]
        return stationary(chain)

    def counted_rates(*args):
        out = rates(*args)
        count["scanned"] = True
        return out

    monkeypatch.setattr(riccati, "_solve_chunk", counted_chunk)
    monkeypatch.setattr(riccati, "_stationary_stage", counted_stationary)
    monkeypatch.setattr(Quadratic, "rates", counted_rates)
    opt = optimal_beta(vp_of(BASE_MODELS["quadratic"]), cap=cap)
    assert opt.method == "concave_search" and count["scanned"]
    assert count["scan_stationary"] == 0
    assert 0 < count["chains"] <= 3


@pytest.mark.parametrize("cap", [None, (-3.0, 3.0)], ids=["uncapped", "capped"])
def test_infinite_scan_maximum_classifies_the_whole_grid(monkeypatch, cap):
    # The scan's maximum moved to the left end of the grid and classified
    # infinite there: the optimizer classifies the whole grid with
    # growth_curve and finds the same optimum as without the patch.
    vp = vp_of(BASE_MODELS["quadratic"])
    want = optimal_beta(vp, cap=cap)
    lo = (cap or leverage.UNCAPPED_BRACKET)[0]
    rates, rate_and_slope, curve = Quadratic.rates, Quadratic.rate_and_slope, leverage.growth_curve
    curves = []

    def classified(self, alpha, betas, r):
        return [(-math.inf, math.nan, math.nan) if b == lo else rs
                for b, rs in zip(betas, rate_and_slope(self, alpha, betas, r))]

    monkeypatch.setattr(Quadratic, "rates", lambda *args: [math.inf] + rates(*args)[1:])
    monkeypatch.setattr(Quadratic, "rate_and_slope", classified)
    monkeypatch.setattr(leverage, "growth_curve", lambda *args: curves.append(args) or curve(*args))
    assert optimal_beta(vp, cap=cap) == want
    assert len(curves) == 1


def test_quadratic_derivative_solves_one_chain(monkeypatch):
    # The slope from the chain is nan wherever the objective is -inf, so no
    # second chain is solved to check the objective first.
    count = {"chains": 0}
    solve_chunk = riccati._solve_chunk

    def counted_chunk(*args):
        count["chains"] += 1
        return solve_chunk(*args)

    monkeypatch.setattr(riccati, "_solve_chunk", counted_chunk)
    assert math.isfinite(lambda_derivative(vp_of(BASE_MODELS["quadratic"]), 1.5))
    assert count["chains"] == 1


def recorded(slope):
    """``slope`` and the list of the points it is evaluated at, in order."""
    seen = []

    def f(x):
        seen.append(x)
        return slope(x)

    return f, seen


def test_slope_root_at_a_zero_slope_is_the_scan_maximum():
    assert leverage._slope_root(lambda x: (1.0 - x, -1.0), [0.0, 1.0, 2.0], 1) == 1.0


def test_slope_root_without_a_sign_change_at_the_neighbour_is_none():
    # Rising at grid[1] and at grid[2], the neighbour it rises towards.
    slope, seen = recorded(lambda x: (1.0 + x, 1.0))
    assert leverage._slope_root(slope, [0.0, 1.0, 2.0], 1) is None
    assert seen == [1.0, 2.0]


def test_slope_root_newton_converges_from_the_hermite_start():
    # A smooth slope with its exact curvature and its root at 0.3: Newton
    # points from the Hermite start, each error about the square of the last,
    # until the step is within ROOT_TOL.
    slope, seen = recorded(lambda x: ((0.3 - x) * math.exp(x), (-0.7 - x) * math.exp(x)))
    root = leverage._slope_root(slope, [0.0, 0.25, 0.5], 1)
    assert abs(root - 0.3) <= leverage.ROOT_TOL and root == seen[-1]
    errors = [abs(x - 0.3) for x in seen[2:]]
    assert seen[:2] == [0.25, 0.5] and len(errors) == 3 and errors[0] < 1e-4
    assert errors[1] <= 2.0 * errors[0] ** 2


def test_slope_root_bisects_where_the_newton_point_leaves_the_bracket():
    # A curvature of the wrong sign sends every Newton point out of the
    # bracket, so each point after the Hermite start halves the bracket.
    slope, seen = recorded(lambda x: (0.25 - x, 1.0))
    root = leverage._slope_root(slope, [0.0, 1.0], 0)
    assert abs(root - 0.25) <= leverage.ROOT_TOL and root == seen[-1]
    for k in range(3, len(seen)):
        lo = max(x for x in seen[:k] if x < 0.25)
        hi = min(x for x in seen[:k] if x > 0.25)
        assert seen[k] == 0.5 * (lo + hi)


@pytest.mark.parametrize("above", [-1e-3, -1e3])
def test_slope_root_reaches_a_kinked_slopes_root(above):
    # A slope of 1 below 0.3 and of ``above`` from there, with zero
    # curvature: no Newton step exists, and the bracket is bisected until it
    # is within ROOT_TOL of the kink.
    root = leverage._slope_root(lambda x: (1.0 if x < 0.3 else above, 0.0), [0.0, 1.0], 0)
    assert abs(root - 0.3) <= leverage.ROOT_TOL


def test_slope_root_stops_at_float_resolution():
    # Near beta = 1e5 adjacent floats are 1.5e-11 apart, wider than
    # ROOT_TOL: the bisection ends when the bracket cannot be halved.
    seen = []

    def slope(x):
        seen.append(x)
        assert len(seen) < 60, "bisection past float resolution"
        return 1.0 if x < 1e5 + 0.3 else -1.0, 0.0

    root = leverage._slope_root(slope, [1e5, 1e5 + 1.0], 0)
    assert abs(root - (1e5 + 0.3)) <= math.ulp(1e5)


def test_slope_root_stops_once_the_bracket_is_within_root_tol():
    # A bracket of ROOT_TOL / 2 from the start: the last point is taken.
    x1 = 0.5 * leverage.ROOT_TOL
    slope, seen = recorded(lambda x: (1e-300 if x == 0.0 else -1.0, 0.0))
    assert leverage._slope_root(slope, [0.0, x1], 0) == x1
    assert seen == [0.0, x1]


def test_quadratic_no_finite_region():
    m = Quadratic(b=[0.0], Bmat=[[-0.5]], sigma=[[1.0]])
    vp = vp_of(m, alpha=1.0)
    with pytest.raises(NoFiniteRegion):
        optimal_beta(vp, cap=(1.5, 2.5))


def test_cap_validation():
    vp = vp_of(Gbm(mu=0.05, sigma=0.2))
    with pytest.raises(ValueError):
        optimal_beta(vp, cap=(3.0, -3.0))


_POSITIVE = st.floats(0.01, 5.0)
_HALF_LINE_MODELS = st.one_of(
    st.builds(Garch, theta=_POSITIVE, a=_POSITIVE, sigma=_POSITIVE),
    # theta > sigma^2 and theta > delta^2 are drawn as sigma^2 (1 + excess).
    st.builds(lambda a, sigma, excess: InverseGarch(theta=sigma ** 2 * (1.0 + excess),
                                                    a=a, sigma=sigma),
              _POSITIVE, _POSITIVE, _POSITIVE),
    st.builds(lambda mu, sigma, a, delta, excess, rho: GbmInverseGarchRate(
                  mu=mu, sigma=sigma, theta=delta ** 2 * (1.0 + excess), a=a,
                  delta=delta, rho=rho, r0=0.05),
              _POSITIVE, _POSITIVE, _POSITIVE, _POSITIVE, _POSITIVE,
              st.floats(-1.0, 1.0)),
)


@given(model=_HALF_LINE_MODELS, alpha=st.floats(0.01, 1.0), beta=st.floats(-20.0, 20.0))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_finite_interval_agrees_with_growth_condition(model, alpha, beta):
    # The optimizer's finite region and growth_rate's finiteness condition
    # code the same inequality twice; off the boundary they must agree, at
    # the drawn beta and just inside and outside each finite edge.
    lo, hi, _ = model.interval(alpha)
    edges = [e + side * 1e-6 * max(1.0, abs(e))
             for e in (lo, hi) if math.isfinite(e) for side in (-1.0, 1.0)]
    for b in [beta] + edges:
        g = growth_rate(vp_of(model, alpha=alpha, beta=b))
        if not g.condition.near_boundary:
            assert g.is_finite == (lo < b < hi)


_RHO = st.floats(-1.0, 1.0)
_WHOLE_LINE_MODELS = st.one_of(
    st.builds(Gbm, mu=st.floats(-1.0, 1.0), sigma=_POSITIVE),
    # theta >= sigma^2 and 2 theta > delta^2 are drawn as multiples (1 + excess).
    st.builds(lambda mu, sigma, excess: ExtendedCir(theta=sigma ** 2 * (1.0 + excess), mu=mu,
                                                    sigma=sigma),
              _POSITIVE, _POSITIVE, _POSITIVE),
    st.builds(ThreeHalves, theta=_POSITIVE, a=_POSITIVE, sigma=_POSITIVE),
    st.builds(lambda mu, a, delta, excess, rho: HestonSV(
                  mu=mu, theta=0.5 * delta ** 2 * (1.0 + excess), a=a, delta=delta, rho=rho,
                  v0=0.1),
              _POSITIVE, _POSITIVE, _POSITIVE, _POSITIVE, _RHO),
    st.builds(ThreeHalvesSV, mu=st.floats(-1.0, 1.0), theta=_POSITIVE, a=_POSITIVE,
              delta=_POSITIVE, rho=_RHO, v0=st.just(0.1)),
    st.builds(GbmVasicek, mu=st.floats(-1.0, 1.0), sigma=_POSITIVE, theta=_POSITIVE,
              a=_POSITIVE, delta=_POSITIVE, rho=_RHO, r0=st.just(0.02)),
)


@given(model=_WHOLE_LINE_MODELS, alpha=st.floats(0.01, 1.0), beta=st.floats(-20.0, 20.0))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_whole_line_interval_agrees_with_growth_condition(model, alpha, beta):
    # These kinds give the whole line as the optimizer's finite region (Heston
    # only below alpha = 1), so growth_rate's condition must hold at every
    # admissible point whose exponent is real.
    assume(alpha < 1.0 or model.kind != "heston_sv")
    assert model.interval(alpha)[:2] == (-math.inf, math.inf)
    try:
        g = growth_rate(vp_of(model, alpha=alpha, beta=beta))
    except ComplexKappa:
        return
    assert g.is_finite, (model, alpha, beta, g.condition)


# Branches of the closed-form optimizer that no catalog problem reaches.

def test_gigr_region_when_the_edge_slope_vanishes():
    # s = alpha*(2*sigma*rho/delta - 1/a) is exactly 0 here, so the finite
    # region is the whole line when theta puts c0 above 1 and empty otherwise.
    kw = dict(mu=0.05, sigma=1.0, a=1.0, delta=0.25, rho=0.125, r0=0.05)
    m = GbmInverseGarchRate(theta=0.1, **kw)
    assert m.interval(0.5) == (-math.inf, math.inf, None)
    opt = optimal_beta(vp_of(m, alpha=0.5))
    assert opt.method == "quadratic_vertex" and opt.notes == ()
    assert opt.beta_star == -opt.profile.C2 / (2.0 * opt.profile.C1)
    bad = GbmInverseGarchRate(theta=0.01, **kw)
    assert all(math.isnan(x) for x in bad.interval(0.5)[:2])
    with pytest.raises(NoFiniteRegion, match="infinite for all beta"):
        optimal_beta(vp_of(bad, alpha=0.5, relax=True))


@pytest.mark.parametrize("cap", [None, (-3.0, 3.0)], ids=["uncapped", "capped"])
def test_side_optimum_with_no_finite_region_raises(cap):
    # rho = 1 makes the edge slope s vanish and c0 = 0.9 < 1 leaves no finite
    # beta; the closed form still names a side (C1 > 0), which must not be
    # returned as a boundary optimum.
    m = GbmInverseGarchRate(mu=0.05, sigma=0.5, theta=0.2, a=1.0, delta=1.0, rho=1.0, r0=0.05)
    assert all(math.isnan(x) for x in m.interval(0.5)[:2])
    vp = validate(Problem(m, Preference(0.5), Leverage(2.0)), relax=True)
    assert m.optimum(0.5, vp.r).side is not None
    with pytest.raises(NoFiniteRegion, match="infinite for all beta"):
        optimal_beta(vp, cap=cap)


def test_garch_cap_beyond_the_finite_region():
    m = Garch(theta=0.08, a=1.0, sigma=0.2)  # finite for beta < 51 at alpha = 1
    with pytest.raises(NoFiniteRegion, match="does not meet the cap"):
        optimal_beta(vp_of(m, alpha=1.0), cap=(60.0, 70.0))


@pytest.mark.parametrize("at", ["lo", "hi"])
def test_gbm_vertex_exactly_at_the_cap_edge(at):
    vp = vp_of(Gbm(mu=0.05, sigma=0.2))
    vertex = optimal_beta(vp).beta_star
    opt = optimal_beta(vp, cap=(vertex, 3.0) if at == "lo" else (-3.0, vertex))
    assert (opt.method, opt.beta_star) == ("closed_form", vertex)
    assert opt.notes == ("interior vertex exactly at the cap edge",)


@pytest.mark.parametrize("cap", [None, (-3.0, 3.0)])
def test_heston_alpha_one_flat_objective(cap):
    # alpha = 1, rho = 0 and mu = r make C1 = D = 0: beta = 0 is reported.
    m = HestonSV(mu=0.01, theta=0.16, a=3.1, delta=0.4, rho=0.0, v0=0.05)
    opt = optimal_beta(vp_of(m, alpha=1.0, r=0.01), cap=cap)
    assert (opt.method, opt.beta_star, opt.rate_at_star) == ("closed_form", 0.0, 0.01)
    assert opt.notes == ("degenerate flat objective (C1 <= D^2 with D = 0)",)


def test_vasicek_reference_curve_without_curvature():
    # C1 = 1/2 - 1/2 = 0 exactly at alpha = 1; C2 = mu - 1/4.
    kw = dict(sigma=0.5, theta=0.25, a=1.0, delta=1.0, rho=-1.0, r0=0.02)
    flat = optimal_beta(vp_of(GbmVasicek(mu=0.25, **kw), alpha=1.0))
    assert (flat.profile.C1, flat.profile.C2) == (0.0, 0.0)
    assert (flat.method, flat.beta_star, flat.rate_at_star) == ("quadratic_vertex", 0.0, 0.25)
    assert flat.notes == ("reference curve constant in beta",)
    linear = vp_of(GbmVasicek(mu=0.3, **kw), alpha=1.0)
    for cap, want in [(None, ("+inf", None)), ((-3.0, 3.0), ("+cap", 3.0))]:
        opt = optimal_beta(linear, cap=cap)
        assert (opt.method, opt.boundary_side, opt.beta_star) == ("boundary", *want)
        assert opt.notes == ("reference curve linear in beta (C1 = 0)",)


def test_quadratic_scan_maximum_at_the_cap_edge():
    vp = vp_of(BASE_MODELS["quadratic"])
    opt = optimal_beta(vp, cap=(-1.0, -0.5))
    assert (opt.method, opt.boundary_side, opt.beta_star) == ("boundary", "+cap", -0.5)
    assert opt.rate_at_star == objective_value(vp, -0.5)
    assert opt.notes == ("refinement left the scan maximum; best evaluated point returned",
                         "scan maximum at the cap edge")
