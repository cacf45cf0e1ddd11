"""Growth-rate closed forms, classification conditions, appendix results."""

import math

import numpy as np
import pytest
from scipy import integrate

from letfgrowth.errors import ConditionUnmet, LetfGrowthError
from letfgrowth.growth import (
    _ALWAYS,
    FinitenessCondition,
    GrowthCurvePoint,
    GrowthRate,
    cir_exponential_moment_growth,
    display_growth_value,
    growth_curve,
    growth_rate,
    inverse_garch_discount_growth,
)
from letfgrowth import models
from letfgrowth.eigen import eigenpair
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
    validate,
)

from reference_laws import stationary_power_moment_garch
from test_models import BASE_MODELS, prob


def vp_of(model, alpha=0.5, beta=2.0, r=0.01):
    return validate(prob(model, alpha=alpha, beta=beta, r=r))


def test_gbm_growth_value_and_components():
    g = growth_rate(vp_of(Gbm(mu=0.05, sigma=0.2)))
    assert g.is_finite
    assert g.rate == pytest.approx(0.025, abs=1e-15)
    assert g.components["rate_term"] == pytest.approx(-0.005)
    assert g.components["eigenvalue_term"] == pytest.approx(0.03)
    assert sum(g.components.values()) == pytest.approx(g.rate)


def test_garch_infinite_branch():
    # alpha*beta = 10 >= 2a/sigma^2 + 1 = 9
    g = growth_rate(vp_of(Garch(theta=0.08, a=1.0, sigma=0.5), alpha=1.0, beta=10.0))
    assert not g.is_finite and g.rate is None
    assert not g.condition.satisfied
    assert g.condition.lhs == pytest.approx(9.0)
    # classification and condition stay structurally in sync
    g2 = growth_rate(vp_of(Garch(theta=0.08, a=1.0, sigma=0.5), alpha=1.0, beta=5.0))
    assert g2.is_finite == g2.condition.satisfied


def test_boundary_equality_is_infinite_and_flagged():
    # alpha*beta == 2a/sigma^2 + 1 exactly: the "otherwise" branch includes
    # equality, and the condition is marked near the boundary.
    g = growth_rate(vp_of(Garch(theta=0.08, a=1.0, sigma=0.5), alpha=1.0, beta=9.0))
    assert not g.is_finite
    assert g.condition.near_boundary


def test_money_market_exact_for_all_constant_rate_models():
    for kind, m in BASE_MODELS.items():
        if kind in ("gbm_vasicek", "gbm_inverse_garch_rate"):
            continue
        for alpha, r in ((0.5, 0.01), (0.3, 0.04), (1.0, 0.02)):
            g = growth_rate(vp_of(m, alpha=alpha, beta=0.0, r=r))
            assert g.rate == alpha * r  # exact, not approximate


def test_garch_inverse_garch_share_finite_value():
    for alpha, beta in ((0.5, 2.0), (0.8, -3.0), (1.0, 3.0)):
        g1 = growth_rate(vp_of(Garch(theta=0.08, a=1.0, sigma=0.2),
                               alpha=alpha, beta=beta))
        g2 = growth_rate(vp_of(InverseGarch(theta=0.08, a=1.0, sigma=0.2),
                               alpha=alpha, beta=beta))
        assert g1.is_finite and g2.is_finite
        assert g1.rate == pytest.approx(g2.rate, abs=1e-15)
        assert g1.condition.description != g2.condition.description


def test_extended_cir_value_and_parameter_independence():
    g = growth_rate(vp_of(ExtendedCir(theta=0.05, mu=0.05, sigma=0.2)))
    assert g.rate == pytest.approx(0.5 * 0.01 + 0.5 * 2.0 * 0.04, rel=1e-12)
    g2 = growth_rate(vp_of(ExtendedCir(theta=0.30, mu=0.05, sigma=0.4)))
    assert g2.rate == pytest.approx(g.rate, rel=1e-12)  # theta, sigma drop out
    assert g.condition.satisfied and g2.condition.satisfied


def test_heston_reduces_to_gbm_as_vol_of_vol_vanishes():
    theta, a = 0.16, 3.1
    m = HestonSV(mu=0.05, theta=theta, a=a, delta=1e-4, rho=0.0, v0=theta / a)
    gbm = Gbm(mu=0.05, sigma=math.sqrt(theta / a))
    for beta in (-3.0, -1.0, 2.0, 3.0):
        gh = growth_rate(vp_of(m, beta=beta))
        gg = growth_rate(vp_of(gbm, beta=beta))
        assert gh.rate == pytest.approx(gg.rate, abs=1e-6)


def test_heston_figure_scenario_rate():
    # Relaxed Feller parameters; rate from the closed form at beta = 1.93
    # has a critical point there (checked in the leverage tests).
    m = HestonSV(mu=0.05, theta=0.16, a=3.1, delta=0.89, rho=-0.5, v0=0.16 / 3.1)
    vp = validate(prob(m, alpha=0.5, beta=1.93), relax=True)
    g = growth_rate(vp)
    assert g.is_finite
    pair = eigenpair(vp)
    assert g.rate == pytest.approx(0.5 * 0.01 + 0.5 * 1.93 * 0.04 - pair.lam, rel=1e-12)


def test_vasicek_rate_is_eigenvalue_consistent():
    m = BASE_MODELS["gbm_vasicek"]
    vp = vp_of(m)
    g = growth_rate(vp)
    pair = eigenpair(vp)
    alpha, beta = vp.alpha, vp.beta
    want = alpha * beta * m.mu - 0.5 * alpha * (1 - alpha) * beta ** 2 * m.sigma ** 2 \
        - pair.lam
    assert g.rate == pytest.approx(want, rel=1e-14)
    # The published quadratic curve flips the sign of the financing-level
    # term: the two values differ by exactly 2 alpha (1-beta) theta_tilde / a.
    th_t = m.theta + alpha * beta * m.delta * m.sigma * m.rho
    gap = display_growth_value(vp) - g.rate
    assert gap == pytest.approx(-2.0 * alpha * (1 - beta) * th_t / m.a, rel=1e-10)


@pytest.mark.parametrize("kind", ["gbm_vasicek", "gbm_inverse_garch_rate"])
@pytest.mark.parametrize("alpha", [0.3, 0.8, 1.0])
def test_display_curve_matches_leverage_profile(kind, alpha):
    # The published curve is written out twice: as display_growth_value and
    # as the C1 b^2 + C2 b + const profile that optimal_beta maximizes.
    m = BASE_MODELS[kind]
    prof = m.profile(alpha)
    vp = vp_of(m, alpha=alpha)
    for b in np.linspace(-3.0, 3.0, 61):
        b = float(b)
        want = prof.C1 * b * b + prof.C2 * b + prof.const
        assert display_growth_value(vp.with_beta(b)) == pytest.approx(want, rel=1e-12)


def test_inverse_garch_rate_condition_flips():
    m = GbmInverseGarchRate(mu=0.05, sigma=0.2, theta=0.09, a=1.0, delta=0.2,
                            rho=-0.3, r0=0.05)
    g = growth_rate(vp_of(m, alpha=0.5, beta=2.0))
    assert g.is_finite
    # push beta until theta + alpha beta delta sigma rho drags the lhs under 1
    g2 = growth_rate(vp_of(m, alpha=0.5, beta=40.0))
    assert not g2.is_finite


def test_quadratic_growth_values():
    # beta = 1: V = 0, u = 0, rate term vanishes: growth 0.
    m = BASE_MODELS["quadratic"]
    g = growth_rate(vp_of(m, beta=1.0))
    assert g.is_finite and g.rate == pytest.approx(0.0, abs=1e-14)
    # d=1 worked case: a=1, B=-1, b=0, alpha=0.5, beta=2 -> q=2, V=(sqrt(5)-1)/2
    m1 = Quadratic(b=[0.0], Bmat=[[-1.0]], sigma=[[1.0]])
    g1 = growth_rate(vp_of(m1))
    v = (math.sqrt(5.0) - 1.0) / 2.0
    assert g1.rate == pytest.approx(0.5 * 0.01 * (-1.0) - v, rel=1e-12)
    assert set(g1.components) == {"rate_term", "half_uau", "trace_aV", "u_b"}


def test_quadratic_infinite_when_exponent_test_fails():
    m = Quadratic(b=[0.0], Bmat=[[-0.5]], sigma=[[1.0]])
    g = growth_rate(vp_of(m, alpha=1.0, beta=2.0))
    assert not g.is_finite


def test_growth_curve_parabola_and_error_collection():
    vp = vp_of(Gbm(mu=0.05, sigma=0.2))
    betas = np.linspace(-3, 3, 13)
    pts = growth_curve(vp, betas)
    rates = np.array([p.growth.rate for p in pts])
    # quadratic in beta: second difference / h^2 = -alpha (1-alpha) sigma^2
    second = np.diff(rates, 2) / (0.5 ** 2)
    assert np.allclose(second, -0.5 * 0.5 * 0.04, atol=1e-12)
    # infinite points flagged, not interpolated
    vg = vp_of(Garch(theta=0.08, a=1.0, sigma=0.5), alpha=1.0)
    pts = growth_curve(vg, np.array([5.0, 9.5, 12.0]))
    finites = [p.growth.is_finite for p in pts]
    assert finites == [True, False, False]


def criterion7_quadratic(seed, d):
    """Quadratic model from the criterion-7 recipe: SPD a, Hurwitz B."""
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(d, d))
    a = M @ M.T + d * np.eye(d)
    B = rng.normal(size=(d, d))
    B = B - (np.max(np.linalg.eigvals(B).real) + 0.5 + rng.uniform(0, 2)) * np.eye(d)
    return Quadratic(b=rng.normal(scale=0.1, size=d), Bmat=B, sigma=np.linalg.cholesky(a))


@pytest.mark.parametrize("model", [BASE_MODELS["quadratic"], criterion7_quadratic(24, 4)],
                         ids=["catalog", "criterion7_d4"])
def test_quadratic_curve_matches_pointwise_growth_rate(model):
    # The curve solves the Riccati chain for the whole grid in batches; each
    # point must be what growth_rate gives alone, errors included.  The d = 4
    # model loses its stabilizing branch on part of (0, 1), where the
    # Hamiltonian's spectrum does not split 4/4 or the subspace solution is
    # not symmetric.
    vp = vp_of(model)
    betas = np.linspace(-1.0, 2.0, 601)
    assert 0.0 in betas
    points = growth_curve(vp, betas)
    errors = 0
    for p in points:
        try:
            g, err = growth_rate(vp.with_beta(p.beta)), None
        except LetfGrowthError as exc:
            g, err = None, type(exc).__name__
        assert (p.error.split(":")[0] if p.error else None) == err
        if err is not None:
            errors += 1
            assert 0.0 < p.beta < 1.0
            continue
        assert p.growth.classification == g.classification
        if g.is_finite:
            assert p.growth.rate == pytest.approx(g.rate, rel=1e-12, abs=1e-15)
    assert errors == 0 if model is BASE_MODELS["quadratic"] else errors > 0


def test_growth_curve_input_validation():
    vp = vp_of(Gbm(mu=0.05, sigma=0.2))
    with pytest.raises(ValueError):
        growth_curve(vp, np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        growth_curve(vp, np.array([]))
    with pytest.raises(ValueError):
        growth_curve(vp, np.array([np.nan]))


@pytest.mark.parametrize("kind", list(BASE_MODELS))
def test_components_are_a_fresh_dict_per_result(kind):
    # A GrowthRate keeps its components dict uncopied, so each result must
    # get its own: mutating one never shows in another, across growth_rate
    # and growth_curve (beta = 0 is the money-market short-circuit).
    vp = vp_of(BASE_MODELS[kind], beta=1.5)
    betas = np.array([-1.0, 0.0, 1.5, 2.0])
    want_rate = dict(growth_rate(vp).components)
    want_curve = [dict(p.growth.components) for p in growth_curve(vp, betas)]
    results = [growth_rate(vp)] + [p.growth for p in growth_curve(vp, betas)]
    assert len({id(g.components) for g in results}) == len(results)
    for g in results:
        g.components["mutated"] = 1.0
    assert growth_rate(vp).components == want_rate
    assert [p.growth.components for p in growth_curve(vp, betas)] == want_curve


# ---------------------------------------------------------------------------
# Per-point records
# ---------------------------------------------------------------------------

RECORDS = [
    (FinitenessCondition, ("description", "lhs", "threshold", "satisfied", "near_boundary"),
     {"near_boundary": False}, ("x > 0", 1.0, 0.0, True)),
    (GrowthRate, ("classification", "rate", "condition", "components"), {},
     ("finite", 0.1, _ALWAYS, {"rate_term": 0.1})),
    (GrowthCurvePoint, ("beta", "growth", "error"), {"error": None}, (2.0, None)),
]


@pytest.mark.parametrize("cls, names, defaults, args", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_point_record_fields_defaults_and_immutability(cls, names, defaults, args):
    assert cls._fields == names
    assert cls._field_defaults == defaults
    rec = cls(*args)
    assert rec == cls(**dict(zip(names, args)))
    assert [getattr(rec, n) for n in names] == list(args) + list(defaults.values())
    for name in names:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)


def test_shared_always_finite_condition_is_read_only():
    with pytest.raises(AttributeError):
        _ALWAYS.satisfied = False


def test_growth_rate_is_finite_follows_classification():
    assert GrowthRate("finite", 0.1, _ALWAYS, {"rate_term": 0.1}).is_finite
    assert not GrowthRate("infinite", None, _ALWAYS, {}).is_finite


def _hexed(g):
    c = g.condition
    return (g.classification, None if g.rate is None else g.rate.hex(), c.description,
            float(c.lhs).hex(), float(c.threshold).hex(), c.satisfied, c.near_boundary,
            {k: float(v).hex() for k, v in g.components.items()})


@pytest.mark.parametrize("kind", [k for k in BASE_MODELS if k != "quadratic"])
def test_scalar_curve_points_equal_growth_rate_in_float_hex(kind):
    # At alpha = 1 the grid reaches past the finite region of four kinds;
    # it includes beta = 0.
    vp = vp_of(BASE_MODELS[kind], alpha=1.0)
    betas = np.linspace(-60.0, 60.0, 481)
    assert 0.0 in betas
    infinite = 0
    for p in growth_curve(vp, betas):
        try:
            g, err = growth_rate(vp.with_beta(p.beta)), None
        except LetfGrowthError as exc:
            g, err = None, f"{type(exc).__name__}: {exc}"
        assert p.error == err
        if err is None:
            assert _hexed(p.growth) == _hexed(g)
            infinite += not g.is_finite
        else:
            assert p.growth is None
    lo, hi, _ = vp.model.interval(vp.alpha)
    assert (infinite > 0) == (lo > betas[0] or hi < betas[-1])


SCALAR_SETS = {**{k: m for k, m in BASE_MODELS.items() if k != "quadratic"},
               # beta in (0, 1) takes this one's exponent root below zero.
               "extended_cir_complex": ExtendedCir(theta=0.01, mu=0.01, sigma=0.2)}


@pytest.mark.parametrize("alpha", [0.5, 1.0])
@pytest.mark.parametrize("name", sorted(SCALAR_SETS))
def test_eigenpair_and_growth_rate_agree_in_float_hex(name, alpha):
    # Both read the kind's one closed form: the growth rate's eigenvalue
    # term is minus eigenpair's lambda, and where the exponent's root is
    # complex both raise the same error.
    model = SCALAR_SETS[name]
    vp = validate(prob(model, alpha=alpha), relax=True)
    errors = 0
    for beta in np.linspace(-60.0, 60.0, 481).tolist():
        p = vp.with_beta(beta)
        try:
            pair = eigenpair(p)
        except LetfGrowthError as exc:
            errors += 1
            with pytest.raises(type(exc)) as again:
                growth_rate(p)
            assert str(again.value) == str(exc)
            continue
        g = growth_rate(p)
        if model.stochastic_rate or beta != 0.0:  # beta = 0 is the money market
            assert pair.lam.hex() == (-g.components["eigenvalue_term"]).hex()
        assert pair.kappa == model.closed_form(alpha, beta)[1]
    assert (errors > 0) == (name == "extended_cir_complex")


FAMILIES = ("Constant", "Power", "ExpLinear", "ExpLinearPower", "Eigenpair")


@pytest.mark.parametrize("kind", sorted(k for k in BASE_MODELS if k != "quadratic"))
def test_growth_path_builds_no_eigenfunction(monkeypatch, kind):
    # Counted like the quadratic optimizer's Riccati chains: every
    # eigenfunction family and Eigenpair that models builds is wrapped.
    count = dict.fromkeys(FAMILIES, 0)

    def counted(name):
        cls = getattr(models, name)

        def build(*args, **kwargs):
            count[name] += 1
            return cls(*args, **kwargs)
        return build

    for name in FAMILIES:
        monkeypatch.setattr(models, name, counted(name))
    vp = vp_of(BASE_MODELS[kind], alpha=0.5)
    growth_curve(vp, np.linspace(-3.0, 3.0, 61))
    growth_rate(vp)
    assert sum(count.values()) == 0
    pair = eigenpair(vp)
    assert count["Eigenpair"] == 1 and sum(count.values()) == 2
    assert pair.phi.name in ("constant", "power", "exp_linear", "exp_linear_power")


# ---------------------------------------------------------------------------
# Standalone growth results
# ---------------------------------------------------------------------------

def test_cir_exponential_moment_growth():
    g = cir_exponential_moment_growth(p=1.0, ell=0.04, mu=0.05, sigma=0.2)
    assert g.rate == pytest.approx(0.15, rel=1e-14)
    g0 = cir_exponential_moment_growth(p=0.0, ell=0.04, mu=0.07, sigma=0.2)
    assert g0.rate == pytest.approx(2.0 * 0.07, rel=1e-14)
    # boundary p = -2 ell / sigma^2 sits on the infinite branch
    gb = cir_exponential_moment_growth(p=-2.0, ell=0.04, mu=0.05, sigma=0.2)
    assert not gb.is_finite and gb.condition.near_boundary
    for mu, sigma in ((0.0, 0.2), (0.05, -0.2)):
        with pytest.raises(ValueError, match="mu and sigma must be positive"):
            cir_exponential_moment_growth(p=1.0, ell=0.04, mu=mu, sigma=sigma)


def test_inverse_garch_discount_growth():
    assert inverse_garch_discount_growth(c=0.0, theta=0.3, a=1.0, sigma=0.2).rate == 0.0
    g = inverse_garch_discount_growth(c=1.0, theta=0.3, a=1.0, sigma=0.2)
    assert g.rate == pytest.approx(-0.26, rel=1e-14)
    with pytest.raises(ConditionUnmet) as exc:
        inverse_garch_discount_growth(c=1.0, theta=0.08, a=1.0, sigma=0.2)
    assert exc.value.condition == "theta > (kappa+1)*sigma^2"
    assert str(exc.value) == ("assumption not met: theta > (kappa+1)*sigma^2 "
                              "(got 0.08 vs 0.08000000000000002)")
    for a, sigma in ((0.0, 0.2), (1.0, 0.0)):
        with pytest.raises(ValueError, match="a and sigma must be positive"):
            inverse_garch_discount_growth(c=1.0, theta=0.3, a=a, sigma=sigma)


def test_stationary_power_moment_garch():
    assert stationary_power_moment_garch(0.0, 0.08, 1.0, 0.2) == 1.0
    gamma = 2.0 / 0.04 + 1.0
    assert math.isinf(stationary_power_moment_garch(gamma, 0.08, 1.0, 0.2))
    val = stationary_power_moment_garch(1.0, 0.08, 1.0, 0.2)
    assert val == pytest.approx(0.08, rel=1e-12)  # (2theta/sigma^2) / (gamma-1)


def test_stationary_power_moment_against_quadrature():
    # Independent oracle: integrate y**(-p) against the Gamma(gamma) density
    # and rescale by (2 theta / sigma^2)**p.
    theta, a, sigma, p = 0.1, 1.5, 0.25, 1.7
    gamma = 2.0 * a / sigma ** 2 + 1.0
    dens = lambda y: math.exp((gamma - 1.0) * math.log(y) - y - math.lgamma(gamma))
    integral, _ = integrate.quad(lambda y: y ** (-p) * dens(y), 0.0, 200.0, limit=200)
    want = (2.0 * theta / sigma ** 2) ** p * integral
    assert stationary_power_moment_garch(p, theta, a, sigma) == pytest.approx(want, rel=1e-8)
