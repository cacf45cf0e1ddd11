"""Monte Carlo oracle: determinism, calibration, certificates, densities."""

import json
import math
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats

from letfgrowth import mc
from letfgrowth.eigen import eigenpair
from letfgrowth.errors import AllPathsDiverged, SchemeUnstable
from letfgrowth.growth import GrowthRate, FinitenessCondition, growth_rate
from letfgrowth.mc import (
    _SCHEMES,
    SimConfig,
    _Draw,
    desk_config,
    martingale_check,
    simulate_growth,
    verdict_for,
)
from letfgrowth.models import (
    Garch,
    Gbm,
    GbmVasicek,
    HestonSV,
    MODEL_KINDS,
    Quadratic,
    ThreeHalvesSV,
    validate,
)

from reference_laws import (
    cir_density,
    cir_log_density,
    cir_transition_mean,
    garch_stationary_density,
)
from test_models import BASE_MODELS, prob


def vp_of(model, alpha=0.5, beta=2.0, r=0.01, relax=False):
    return validate(prob(model, alpha=alpha, beta=beta, r=r), relax=relax)


SMALL = dict(n_paths=20000, seed=1234)


def cfg_for(horizon=10.0, steps_per_year=400, **kw):
    args = dict(SMALL)
    args.update(kw)
    return SimConfig(horizon=horizon, n_steps=int(steps_per_year * horizon), **args)


def mart_cfg(t, n_paths, seed=42):
    """martingale_check's default layout (400 steps/yr) at fewer paths."""
    return SimConfig(horizon=t, n_steps=int(round(400 * t)), n_paths=n_paths, seed=seed,
                     t_checkpoints=(t,))


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(horizon=0.0, n_steps=100, n_paths=2000, seed=1)
    with pytest.raises(ValueError, match="one step"):
        SimConfig(horizon=1.0, n_steps=0, n_paths=2000, seed=1)
    with pytest.raises(ValueError):
        SimConfig(horizon=1.0, n_steps=100, n_paths=500, seed=1)
    with pytest.raises(ValueError):
        SimConfig(horizon=1.0, n_steps=100, n_paths=2001, seed=1)  # odd: pairs need even
    for block_size in (1, 0, -2):  # 0 and below leave lanes no width
        with pytest.raises(ValueError):
            SimConfig(horizon=1.0, n_steps=100, n_paths=2000, seed=1, block_size=block_size)
    with pytest.raises(ValueError, match="step grid"):  # dt = 0.02 misses t = 0.05
        SimConfig(horizon=0.5, n_steps=25, n_paths=2000, seed=1)
    with pytest.raises(ValueError, match="step grid"):
        SimConfig(horizon=1.0, n_steps=100, n_paths=2000, seed=1, t_checkpoints=(0.005, 1.0))
    for ts in ((0.5, 0.2), (0.5, 0.5), (0.0, 1.0), (0.5, 1.5)):
        with pytest.raises(ValueError, match="sorted inside"):
            SimConfig(horizon=1.0, n_steps=100, n_paths=2000, seed=1, t_checkpoints=ts)
    with pytest.raises(ValueError, match="non-negative"):  # SeedSequence would refuse it
        SimConfig(horizon=1.0, n_steps=100, n_paths=2000, seed=-1)
    cfg = SimConfig(horizon=10.0, n_steps=500, n_paths=2000, seed=1)
    assert cfg.t_checkpoints[-1] == 10.0 and len(cfg.t_checkpoints) == 10
    # The step density is the scheme's concern, not the config's.
    assert SimConfig(horizon=10.0, n_steps=10, n_paths=2000, seed=1).dt == 1.0


STEPPED_KINDS = sorted(k for k, s in _SCHEMES.items() if s.steps_per_year is not None)


@pytest.mark.parametrize("kind", STEPPED_KINDS)
def test_stepped_kind_below_its_floor_raises(kind):
    vp = vp_of(BASE_MODELS[kind])
    cfg = SimConfig(horizon=10.0, n_steps=100, n_paths=2000, seed=1)  # 10/yr
    with pytest.raises(ValueError, match="at least 50 steps per year"):
        simulate_growth(vp, cfg)
    with pytest.raises(ValueError, match="at least 50 steps per year"):
        martingale_check(vp, eigenpair(vp), 10.0, cfg=replace(cfg, t_checkpoints=(10.0,)))


def test_exact_vasicek_runs_one_step_per_checkpoint_gap(monkeypatch):
    calls = []  # the step lengths of each lane's stepper
    vasicek = mc._vasicek

    def counted(draw, cfg, *args, **kw):
        calls.append([])
        for out in vasicek(draw, cfg, *args, **kw):
            calls[-1].append(cfg.dt)
            yield out

    monkeypatch.setattr(mc, "_vasicek", counted)
    vp = vp_of(BASE_MODELS["gbm_vasicek"])
    cfg = desk_config(vp, n_paths=20_000)
    assert cfg.n_steps == len(cfg.t_checkpoints) == 10
    est = simulate_growth(vp, cfg)
    assert len(calls) == 2 and all(c == [2.0] * 10 for c in calls)
    assert verdict_for(est, growth_rate(vp)) == "PASS"
    calls.clear()
    mart = martingale_check(vp, eigenpair(vp), 1.0)  # the default: one step over t
    assert calls and all(c == [1.0] for c in calls)
    assert mart.within_three_se, (mart.mean, mart.stderr)


class _BasisDraw:
    """Unit normals for ``_vasicek``: column 0 is all zeros (the mean path);
    column 1 + s d + i holds the i-th unit normal at step s and zeros at
    every other step, so each output is affine in the columns."""

    def __init__(self, d, n_steps):
        self.nb, self._step = 1 + d * n_steps, 0

    def normals_matrix(self, d):
        z = np.zeros((d, self.nb))
        z[:, 1 + self._step * d:1 + (self._step + 1) * d] = np.eye(d)
        self._step += 1
        return z


def vasicek_transition(m, level, joint, dt, n_steps):
    """Mean and covariance of (r, int r ds[, B]) after ``n_steps`` exact
    steps of length ``dt`` from r0, read off ``_vasicek``'s affine map."""
    horizon = n_steps * dt
    cfg = SimConfig(horizon=horizon, n_steps=n_steps, n_paths=1000, seed=0,
                    t_checkpoints=(horizon,))
    d = 3 if joint else 2
    b = 0.0
    for r, ri, db in mc._vasicek(_BasisDraw(d, n_steps), cfg, m, level, joint):
        if joint:
            b = b + db
    out = np.stack([r, ri, b][:d])
    lin = out[:, 1:] - out[:, :1]
    return out[:, 0], lin @ lin.T


@pytest.mark.parametrize("joint", [True, False], ids=["growth", "martingale"])
@pytest.mark.parametrize("dt", [2.0, 0.5])
def test_vasicek_step_is_exact_at_any_length(joint, dt):
    # The exact law composes: one step over 2 dt has the mean and covariance
    # of two dt steps (Chapman-Kolmogorov), to 1e-12 of their norms.  The
    # growth path draws (r, int r ds, dB); the martingale path (r, int r ds)
    # at its tilted level.  The second model starts away from its level.
    for m in (BASE_MODELS["gbm_vasicek"],
              GbmVasicek(mu=0.05, sigma=0.2, theta=0.015, a=0.5, delta=0.1,
                         rho=0.6, r0=0.08)):
        level = (m.theta if joint else m.theta + m.delta * m.sigma * m.rho) / m.a
        mean1, cov1 = vasicek_transition(m, level, joint, 2.0 * dt, 1)
        mean2, cov2 = vasicek_transition(m, level, joint, dt, 2)
        assert np.max(np.abs(mean1 - mean2)) <= 1e-12 * np.max(np.abs(mean1))
        assert np.max(np.abs(cov1 - cov2)) <= 1e-12 * np.max(np.abs(cov1))
        assert np.all(np.diag(cov1) > 0.0)


def test_seed_determinism_bit_identical():
    vp = vp_of(BASE_MODELS["heston_sv"])
    cfg = cfg_for(horizon=2.0, steps_per_year=100, n_paths=4000, seed=77)
    a = simulate_growth(vp, cfg)
    b = simulate_growth(vp, cfg)
    assert np.array_equal(a.log_mean_utility, b.log_mean_utility)
    assert a.slope == b.slope and a.slope_stderr == b.slope_stderr


def test_gbm_exact_scheme_calibration():
    # The oracle's own calibration case: log E[L^alpha] is exactly linear.
    vp = vp_of(Gbm(mu=0.05, sigma=0.2))
    est = simulate_growth(vp, cfg_for(steps_per_year=50))
    assert not est.diverged
    assert abs(est.slope - 0.025) <= 3.0 * est.slope_stderr
    assert est.slope_stderr < 1e-3


def test_money_market_beta_zero_is_deterministic():
    vp = vp_of(BASE_MODELS["garch"], beta=0.0, r=0.03)
    est = simulate_growth(vp, cfg_for(horizon=4.0, n_paths=2000))
    assert est.slope == pytest.approx(0.5 * 0.03, abs=1e-12)
    assert est.slope_stderr == pytest.approx(0.0, abs=1e-12)


def test_dt_bias_below_stderr_for_heston():
    vp = vp_of(BASE_MODELS["heston_sv"])
    coarse = simulate_growth(vp, cfg_for(horizon=5.0, steps_per_year=200,
                                         n_paths=40000))
    fine = simulate_growth(vp, cfg_for(horizon=5.0, steps_per_year=400,
                                       n_paths=40000))
    assert abs(coarse.slope - fine.slope) <= 3.0 * math.hypot(
        coarse.slope_stderr, fine.slope_stderr)


@pytest.mark.parametrize("seed", range(1, 6))
def test_heston_infinite_branch_flags_divergence(seed):
    # rho = +0.5 puts the edge at beta = a / (delta rho) = 15.5 for alpha = 1;
    # past it growth is infinite, and the conditional scheme, which draws no
    # reference normal, must still flag that on every seed.
    vp = vp_of(replace(BASE_MODELS["heston_sv"], rho=0.5), alpha=1.0, beta=20.0)
    analytic = growth_rate(vp)
    assert not analytic.is_finite
    cfg = SimConfig(horizon=20.0, n_steps=2000, n_paths=2048, seed=seed)
    est = simulate_growth(vp, cfg)
    assert verdict_for(est, analytic) == "DIVERGED", (est.slope, est.ess[-1])


def test_garch_infinite_branch_flags_divergence():
    vp = vp_of(Garch(theta=0.08, a=1.0, sigma=0.5), alpha=1.0, beta=10.0)
    analytic = growth_rate(vp)
    assert not analytic.is_finite
    est = simulate_growth(vp, cfg_for(horizon=15.0, n_paths=40000,
                                      steps_per_year=200))
    assert est.diverged
    assert verdict_for(est, analytic) == "DIVERGED"


def test_quadratic_divergence_flag():
    m = Quadratic(b=[0.0], Bmat=[[-0.5]], sigma=[[1.0]])
    vp = vp_of(m, alpha=1.0, beta=2.0)
    est = simulate_growth(vp, cfg_for(horizon=4.0, n_paths=20000))
    assert est.diverged


def test_no_finite_pair_raises(monkeypatch):
    vp = vp_of(BASE_MODELS["gbm"])
    cfg = SimConfig(horizon=1.0, n_steps=50, n_paths=2000, seed=1)
    vals = np.full((len(cfg.t_checkpoints), cfg.n_paths), np.nan)
    vals[:, 0] = 0.0  # a finite first whose mate overflowed is no pair
    monkeypatch.setattr(mc, "_collect", lambda vp, cfg: (vals, 0.0))
    with pytest.raises(AllPathsDiverged, match="no finite utility path"):
        simulate_growth(vp, cfg)


def test_martingale_paths_all_overflowing_raise(monkeypatch):
    gbm = _SCHEMES["gbm"]
    monkeypatch.setitem(_SCHEMES, "gbm", replace(
        gbm, martingale=lambda vp, pair, cfg, draw, inverse: np.full(draw.nb, np.inf)))
    vp = vp_of(BASE_MODELS["gbm"])
    cfg = SimConfig(horizon=1.0, n_steps=50, n_paths=2000, seed=1, t_checkpoints=(1.0,))
    with pytest.raises(AllPathsDiverged, match="martingale paths all overflowed"):
        martingale_check(vp, eigenpair(vp), 1.0, cfg)


def test_scheme_unstable_raises_on_heavy_truncation():
    # Far below the Feller bound (relaxed validation): the square-root state
    # keeps crossing zero and the truncation budget trips.
    m = HestonSV(mu=0.05, theta=0.001, a=0.5, delta=1.0, rho=0.0, v0=0.001)
    vp = vp_of(m, relax=True)
    with pytest.raises(SchemeUnstable):
        simulate_growth(vp, cfg_for(horizon=2.0, n_paths=2000))


def test_three_halves_sv_counts_every_clamped_step(monkeypatch):
    # The 3/2-SV stepper floors the reciprocal variance w at
    # RECIP_VARIANCE_FLOOR before forming v = 1/w.  Recount, on the
    # stepper's own output, the steps where that floor changes max(w, 0):
    # each is a truncation, also the ones with 0 <= w < floor.
    clamped = below_state_floor = 0
    stepper = mc._sqrt_euler

    def recount(draw, cfg, *args):
        nonlocal clamped, below_state_floor
        for out in stepper(draw, cfg, *args):
            w, wp = out[0], out[1]
            clamped += int(np.count_nonzero(np.maximum(wp, mc.RECIP_VARIANCE_FLOOR) != wp))
            below_state_floor += int(np.count_nonzero(w < mc.STATE_FLOOR))
            yield out

    monkeypatch.setattr(mc, "_sqrt_euler", recount)
    m = ThreeHalvesSV(mu=0.05, theta=10.0, a=1e-4, delta=0.01, rho=-0.5, v0=1e4)
    cfg = cfg_for(horizon=1.0, steps_per_year=50, n_paths=2000, seed=7)
    est = simulate_growth(vp_of(m), cfg)
    assert clamped > below_state_floor > 0
    assert round(est.truncation_fraction * cfg.n_paths * cfg.n_steps) == clamped


CALIBRATION_SEEDS = tuple(range(1, 41))
CALIBRATION_PATHS = 2048


@pytest.mark.parametrize("kind", ["heston_sv", "three_halves_sv"])
def test_conditional_sv_stderr_is_calibrated(kind):
    # z = (slope - rate) / slope stderr at desk steps over seeds fixed before
    # any result was seen.  A calibrated stderr gives z a standard deviation
    # inside the two-sided 99.9% chi-square band for that many seeds
    # (0.65-1.38 for 40).  The mean z is reported, not bounded.
    vp = vp_of(BASE_MODELS[kind])
    rate = growth_rate(vp).rate
    z, flagged = [], 0
    for seed in CALIBRATION_SEEDS:
        est = simulate_growth(vp, desk_config(vp, seed=seed, n_paths=CALIBRATION_PATHS))
        z.append((est.slope - rate) / est.slope_stderr)
        flagged += est.diverged
    dof = len(z) - 1
    lo, hi = np.sqrt(stats.chi2.ppf([0.0005, 0.9995], dof) / dof)
    sd = float(np.std(z, ddof=1))
    print(f"{kind}: sd(z) {sd:.2f} in [{lo:.2f}, {hi:.2f}], mean z {np.mean(z):+.2f}, "
          f"flagged diverged on {flagged} of {len(z)} seeds")
    assert lo <= sd <= hi, (kind, sd, float(np.mean(z)))


def test_verdict_logic():
    cond = FinitenessCondition("x > 0", 1.0, 0.0, True)
    fin = GrowthRate("finite", 0.10, cond, {"rate_term": 0.10})
    inf_ = GrowthRate("infinite", None, cond, {})
    base = dict(t=np.array([1.0]), log_mean_utility=np.array([0.1]),
                stderr=np.array([0.001]), ess=np.array([1000.0]),
                overflow_fraction=0.0, truncation_fraction=0.0,
                n_paths=1000, scheme="s")
    from letfgrowth.mc import GrowthEstimate
    ok = GrowthEstimate(slope=0.102, slope_stderr=0.001, diverged=False, **base)
    assert verdict_for(ok, fin) == "PASS"
    bad = GrowthEstimate(slope=0.2, slope_stderr=0.001, diverged=False, **base)
    assert verdict_for(bad, fin) == "FAIL"
    div = GrowthEstimate(slope=0.2, slope_stderr=0.001, diverged=True, **base)
    assert verdict_for(div, fin) == "DIVERGED"
    assert verdict_for(div, inf_) == "DIVERGED"
    assert verdict_for(ok, inf_) == "FAIL"


# ---------------------------------------------------------------------------
# Martingale certificates (module scale; the full sweep is in acceptance)
# ---------------------------------------------------------------------------

def test_martingale_config_must_match_horizon():
    vp = vp_of(BASE_MODELS["gbm"])
    cfg = SimConfig(horizon=2.0, n_steps=100, n_paths=1000, seed=1, t_checkpoints=(2.0,))
    with pytest.raises(ValueError):
        martingale_check(vp, eigenpair(vp), 1.0, cfg=cfg)
    assert martingale_check(vp, eigenpair(vp), 2.0, cfg=cfg).t == 2.0


def test_garch_martingale_is_identically_one():
    vp = vp_of(BASE_MODELS["garch"])
    est = martingale_check(vp, eigenpair(vp), t=1.0, cfg=mart_cfg(1.0, 2000))
    assert est.mean == pytest.approx(1.0, abs=1e-14)
    assert est.stderr == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_gbm_martingale_at_three_horizons(t):
    vp = vp_of(Gbm(mu=0.05, sigma=0.2))
    est = martingale_check(vp, eigenpair(vp), t=t, cfg=mart_cfg(t, 40000, seed=5))
    assert est.within_three_se


@pytest.mark.parametrize("kind", ["extended_cir", "heston_sv", "gbm_vasicek",
                                  "quadratic"])
def test_martingale_certificates_quick(kind):
    vp = vp_of(BASE_MODELS[kind])
    est = martingale_check(vp, eigenpair(vp), t=1.0, cfg=mart_cfg(1.0, 40000, seed=5))
    assert est.within_three_se, (kind, est.mean, est.stderr)


# ---------------------------------------------------------------------------
# Quadratic pathwise identity (independent of the mc kernels)
# ---------------------------------------------------------------------------

def test_quadratic_pathwise_identity():
    # Integrating the fund's log-SDE along a simulated state path must match
    # beta |Y_t|^2 - r (beta-1) t - 2 beta (beta-1) int |sigma^T Y|^2 du
    # within O(dt).
    m = BASE_MODELS["quadratic"]
    beta, r, T, n = 2.0, 0.01, 2.0, 4000
    dt = T / n
    rng = np.random.default_rng(99)
    a = m.a
    paths = 64
    Y = np.zeros((m.d, paths))
    qint = np.zeros(paths)
    log_l_sde = np.zeros(paths)
    tra = np.trace(a)
    for _ in range(n):
        z = rng.standard_normal((m.d, paths))
        sY = m.sigma.T @ Y
        s2 = np.sum(sY ** 2, axis=0)
        drift_x = 2.0 * np.sum(Y * (m.b[:, None] + m.Bmat @ Y), axis=0) + tra + 2.0 * s2
        dB = math.sqrt(dt) * z
        dX_over_X_mart = 2.0 * np.sum(sY * dB, axis=0)
        # d log L = (beta drift_X/X - (beta-1) r - beta^2 |2 sigma^T Y|^2 / 2) dt
        #           + beta (2 sigma^T Y) dB
        log_l_sde += (beta * drift_x - (beta - 1.0) * r
                      - 0.5 * beta ** 2 * 4.0 * s2) * dt + beta * dX_over_X_mart
        Y = Y + (m.b[:, None] + m.Bmat @ Y) * dt + m.sigma @ dB
        sY_new = m.sigma.T @ Y
        qint += 0.5 * (s2 + np.sum(sY_new ** 2, axis=0)) * dt
    formula = beta * np.sum(Y * Y, axis=0) - r * (beta - 1.0) * T \
        - 2.0 * beta * (beta - 1.0) * qint
    assert np.max(np.abs(log_l_sde - formula)) < 0.05  # O(dt) agreement


# ---------------------------------------------------------------------------
# Reference densities
# ---------------------------------------------------------------------------

CIR = dict(t=1.0, ell=0.08, mu=1.0, sigma=0.2, x0=1.0)


def test_cir_density_normalizes():
    val, _ = integrate.quad(lambda x: cir_density(x, **CIR), 0.0, 50.0, limit=200)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_cir_density_mean_matches_formula():
    mom, _ = integrate.quad(lambda x: x * cir_density(x, **CIR), 0.0, 50.0, limit=200)
    assert mom == pytest.approx(cir_transition_mean(1.0, 0.08, 1.0, 1.0), rel=1e-8)


def test_cir_density_matches_noncentral_chi2():
    # The transition law is a scaled noncentral chi-square; cross-check the
    # cdf by quadrature of our density.
    t, ell, mu, sigma, x0 = CIR["t"], CIR["ell"], CIR["mu"], CIR["sigma"], CIR["x0"]
    h = 2 * mu / (sigma ** 2 * (1 - math.exp(-mu * t)))
    df = 4 * ell / sigma ** 2
    nc = 2 * h * x0 * math.exp(-mu * t)
    for x in (0.2, 0.5, 1.0):
        ours, _ = integrate.quad(lambda s: cir_density(s, **CIR), 0.0, x, limit=200)
        ref = stats.ncx2.cdf(2 * h * x, df, nc)
        assert ours == pytest.approx(ref, abs=1e-8)


def test_cir_density_tail_log_slope_bound():
    # log g(x;t) ~ -(h_t - O(sqrt)) x for large x: the measured log-slope
    # must come out between -h_t and -h_t plus the Bessel's sqrt correction.
    t, ell, mu, sigma = 1.0, 0.08, 1.0, 0.2
    h = 2 * mu / (sigma ** 2 * (1 - math.exp(-mu * t)))
    xs = np.array([20.0, 24.0])
    lg = cir_log_density(xs, t, ell, mu, sigma, 1.0)
    slope = (lg[1] - lg[0]) / (xs[1] - xs[0])
    assert -h < slope < -0.8 * h


def test_cir_paths_match_density():
    # Full-truncation CIR paths at t=1 vs the closed-form law (KS there).
    t, ell, mu, sigma, x0 = 1.0, 0.08, 1.0, 0.2, 1.0
    n, steps = 100_000, 400
    dt = t / steps
    rng = np.random.default_rng(7)
    x = np.full(n, x0)
    for _ in range(steps):
        xp = np.maximum(x, 0.0)
        x = x + (ell - mu * xp) * dt + sigma * np.sqrt(xp * dt) * rng.standard_normal(n)
    h = 2 * mu / (sigma ** 2 * (1 - math.exp(-mu * t)))
    df = 4 * ell / sigma ** 2
    nc = 2 * h * x0 * math.exp(-mu * t)
    ks = stats.kstest(2 * h * np.maximum(x, 0.0), lambda s: stats.ncx2.cdf(s, df, nc))
    assert ks.statistic < 0.01


def test_garch_stationary_density_properties():
    theta, a, sigma = 0.08, 1.0, 0.2
    gamma = 2 * a / sigma ** 2 + 1.0
    ys = np.linspace(1.0, 120.0, 4000)
    dens = garch_stationary_density(ys, theta, a, sigma)
    assert ys[int(np.argmax(dens))] == pytest.approx(gamma - 1.0, abs=0.1)
    val, _ = integrate.quad(lambda y: float(garch_stationary_density(y, theta, a, sigma)),
                            0.0, 300.0, limit=300)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_garch_long_run_matches_gamma():
    # Simulate the GARCH diffusion to T=30; 2 theta / (sigma^2 X) should have
    # the Gamma(gamma) mean within three standard errors.
    theta, a, sigma = 0.08, 1.0, 0.2
    gamma = 2 * a / sigma ** 2 + 1.0
    n, T, steps = 40_000, 30.0, 3000
    dt = T / steps
    rng = np.random.default_rng(11)
    z = np.zeros(n)  # log X
    for _ in range(steps):
        z += (theta * np.exp(-z) - a - 0.5 * sigma ** 2) * dt \
            + sigma * math.sqrt(dt) * rng.standard_normal(n)
    y = 2 * theta / (sigma ** 2 * np.exp(z))
    se = y.std(ddof=1) / math.sqrt(n)
    assert abs(y.mean() - gamma) <= 3 * se


SCHEME_LABELS = {
    "gbm": "exact-lognormal",
    "garch": "log-euler",
    "inverse_garch": "log-euler-reciprocal",
    "extended_cir": "full-truncation",
    "three_halves": "reciprocal-cir",
    "heston_sv": "heston-full-truncation-conditional",
    "three_halves_sv": "reciprocal-cir-vol-conditional",
    "gbm_vasicek": "exact-gaussian",
    "gbm_inverse_garch_rate": "log-euler-rate",
    "quadratic": "exact-ou-quadratic",
}


DESK_STEPS_PER_YEAR = {
    "gbm": 50,
    "garch": 50,
    "inverse_garch": 50,
    "extended_cir": 50,
    "three_halves": 50,
    "heston_sv": 100,
    "three_halves_sv": 50,
    "gbm_vasicek": None,
    "gbm_inverse_garch_rate": 50,
    "quadratic": 50,
}


@pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
def test_desk_config_schemes(kind):
    # The Vasicek scheme is exact at any step length: one step per
    # checkpoint gap whatever the horizon.  GBM steps by checkpoint gaps
    # anyway and keeps the 50/yr floor; the other stepped kinds run the
    # density their coupled step-halving bias allows (below).
    per_year = DESK_STEPS_PER_YEAR[kind]
    scheme = _SCHEMES[kind]
    assert (scheme.label, scheme.steps_per_year) == (SCHEME_LABELS[kind], per_year)
    assert desk_config(kind).n_steps == (10 if per_year is None else 20 * per_year)
    vp = vp_of(BASE_MODELS[kind])
    tiny = desk_config(vp, horizon=1.0, n_paths=1000)
    assert tiny.n_steps == (10 if per_year is None else per_year)
    assert simulate_growth(vp, tiny).scheme == SCHEME_LABELS[kind]


# ---------------------------------------------------------------------------
# Step bias budget: coarse/fine Brownian coupling (Giles 2008)
# ---------------------------------------------------------------------------

FINE_STEPS_PER_YEAR = 400
BIAS_HORIZON = 20.0          # criterion 5's problems: (alpha, beta) = (0.5, 2), T = 20
BIAS_SEEDS = tuple(range(101, 109))
BIAS_PATHS = 2000
CRITERION5_PATHS = 200_000
# Normals a growth path requests per step, in order: one normals() row each,
# or the d rows of one normals_matrix(d) for the quadratic state.
STEP_NORMALS = {
    "garch": 1,
    "inverse_garch": 1,
    "extended_cir": 1,
    "three_halves": 1,
    "heston_sv": 1,
    "three_halves_sv": 1,
    "gbm_inverse_garch_rate": 2,
    "quadratic": BASE_MODELS["quadratic"].d,
}


def coupled_draw(factor: int, rows: int):
    """A ``_Draw`` for the coarse path of a coarse/fine pair.

    Each block draws a coarse step's worth of the fine path's normals at
    once, ``factor`` fine steps of ``rows`` requests in the fine path's
    order, so both paths read the same values of the same block streams.
    The coarse normal of each request is the sum of its ``factor`` fine
    normals over sqrt(factor); factor 1 reproduces ``_Draw`` bit for bit.
    ``lanes`` keeps every instance, each counting the batches it drew.
    """

    class CoupledDraw(_Draw):
        lanes = []

        def __init__(self, cfg, start, width):
            super().__init__(cfg, start, width)
            self.steps, self.rows_left = 0, []
            CoupledDraw.lanes.append(self)

        def _take(self, n):
            if not self.rows_left:
                z = np.empty((rows, self.nb))
                for rng, col, width in self._parts:
                    fine = rng.standard_normal((factor, rows, width))
                    z[:, col:col + width] = fine.sum(axis=0) / math.sqrt(factor)
                np.negative(z[:, :self._half], out=z[:, self._half:])
                self.rows_left = list(z)
                self.steps += 1
            taken, self.rows_left = self.rows_left[:n], self.rows_left[n:]
            return taken

        def normals(self):
            return self._take(1)[0]

    return CoupledDraw


def step_bias(kind: str, per_year: int, seeds=BIAS_SEEDS, n_paths: int = BIAS_PATHS):
    """Coupled slope bias of ``per_year`` against 400 steps/yr on criterion
    5's problem for ``kind``, its standard error over the seeds, the budget
    max(criterion-5 slope stderr, 1% of |rate|), and that stderr (the fine
    runs' mean stderr scaled to 2e5 paths)."""
    vp = vp_of(BASE_MODELS[kind])
    factor, rem = divmod(FINE_STEPS_PER_YEAR, per_year)
    assert rem == 0, per_year
    diffs, ses = [], []
    for seed in seeds:
        fine_cfg = SimConfig(horizon=BIAS_HORIZON, n_paths=n_paths, seed=seed,
                             n_steps=int(FINE_STEPS_PER_YEAR * BIAS_HORIZON))
        coarse_cfg = replace(fine_cfg, n_steps=int(per_year * BIAS_HORIZON))
        fine = simulate_growth(vp, fine_cfg)
        draw = coupled_draw(factor, STEP_NORMALS[kind])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mc, "_Draw", draw)
            coarse = simulate_growth(vp, coarse_cfg)
        # One batch per coarse step, used up: STEP_NORMALS matches the kernel.
        assert all(d.steps == coarse_cfg.n_steps and not d.rows_left
                   for d in draw.lanes), kind
        diffs.append(coarse.slope - fine.slope)
        ses.append(fine.slope_stderr)
    bias = float(np.mean(diffs))
    se = float(np.std(diffs, ddof=1)) / math.sqrt(len(diffs))
    c5_se = float(np.mean(ses)) * math.sqrt(n_paths / CRITERION5_PATHS)
    budget = max(c5_se, 0.01 * abs(growth_rate(vp).rate))
    return bias, se, budget, c5_se


def test_coupled_draw_at_factor_one_is_plain_draw():
    vp = vp_of(BASE_MODELS["heston_sv"])
    cfg = SimConfig(horizon=1.0, n_steps=100, n_paths=3000, seed=5, block_size=1024)
    want = simulate_growth(vp, cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mc, "_Draw", coupled_draw(1, STEP_NORMALS["heston_sv"]))
        got = simulate_growth(vp, cfg)
    assert np.array_equal(got.log_mean_utility, want.log_mean_utility)


@pytest.mark.slow
@pytest.mark.parametrize("kind", sorted(STEP_NORMALS))
def test_desk_steps_within_bias_budget(kind):
    # The desk density of each stepped kind moves criterion 5's slope by
    # less than the budget, measured against 400 steps/yr on coupled paths.
    per_year = _SCHEMES[kind].steps_per_year
    bias, se, budget, c5_se = step_bias(kind, per_year)
    assert abs(bias) + 2.0 * se <= budget, (kind, per_year, bias, se, budget, c5_se)


# ---------------------------------------------------------------------------
# Golden streams and the per-call thread pool
# ---------------------------------------------------------------------------

GOLDEN_FILE = Path(__file__).with_name("mc_golden.json")
GOLDEN_LAYOUTS = {
    "two_blocks": dict(n_paths=2048, block_size=1024),
    "partial_block": dict(n_paths=3000, block_size=1024),
}


def golden_cases():
    """name -> (problem, SimConfig keywords, whether to run martingale_check)."""
    garch_inf = vp_of(Garch(theta=0.08, a=1.0, sigma=0.5), alpha=1.0, beta=10.0)
    cases = {}
    for layout, kw in GOLDEN_LAYOUTS.items():
        for kind, model in BASE_MODELS.items():
            cases[f"{kind}/{layout}"] = (vp_of(model), kw, True)
        cases[f"garch_infinite/{layout}"] = (garch_inf, kw, False)
    # At beta = 2 the factor beta - 1 is 1, which hides how the log-price
    # terms associate; this leverage pins it.
    for kind, model in BASE_MODELS.items():
        cases[f"{kind}/a0.3_b-1.7"] = (vp_of(model, alpha=0.3, beta=-1.7),
                                       GOLDEN_LAYOUTS["two_blocks"], False)
    # Forty 1,024-path blocks: three lanes, each of several blocks.
    cases["heston_sv/lanes"] = (vp_of(BASE_MODELS["heston_sv"]),
                                dict(n_paths=40_000, block_size=1024), True)
    return cases


def golden_record(vp, layout: dict, martingale: bool) -> dict:
    """The seeded outputs of one case, floats as float.hex strings."""
    cfg = SimConfig(horizon=1.0, n_steps=100, seed=2024, **layout)
    est = simulate_growth(vp, cfg)
    rec = {key: [float(v).hex() for v in getattr(est, key)]
           for key in ("log_mean_utility", "stderr", "ess")}
    for key in ("overflow_fraction", "truncation_fraction", "slope", "slope_stderr"):
        rec[key] = float(getattr(est, key)).hex()
    rec["diverged"] = est.diverged
    if martingale:
        mart = martingale_check(vp, eigenpair(vp), 1.0,
                                cfg=replace(cfg, t_checkpoints=(1.0,)))
        rec["martingale"] = [mart.mean.hex(), mart.stderr.hex()]
    return rec


@pytest.mark.parametrize("name", sorted(golden_cases()))
def test_golden_streams(name):
    # Recorded (``python tests/test_mc.py --record``) from the block-by-block
    # oracle that preceded the lanes, except the growth fields of the seven
    # heston_sv and three_halves_sv entries, re-recorded by name when those
    # kinds stopped drawing the reference's normal (conditional Monte
    # Carlo); their martingale fields kept.  Every per-checkpoint quantity
    # and the martingale estimate must match bit for bit.  The slope's
    # covariance is summed in another order, so it gets a tolerance.
    want = json.loads(GOLDEN_FILE.read_text())[name]
    got = golden_record(*golden_cases()[name])
    for key in ("slope", "slope_stderr"):
        assert float.fromhex(got.pop(key)) == pytest.approx(
            float.fromhex(want[key]), rel=1e-12, abs=1e-300), key
    assert got == {k: v for k, v in want.items() if k not in ("slope", "slope_stderr")}


def test_concurrent_calls_match_serial():
    # README: validated problems and eigenpairs may be shared across threads.
    vp = vp_of(BASE_MODELS["heston_sv"])
    pair = eigenpair(vp)
    cfg = SimConfig(horizon=1.0, n_steps=100, n_paths=4096, seed=9, block_size=1024)
    mcfg = replace(cfg, t_checkpoints=(1.0,))
    want_g = simulate_growth(vp, cfg)
    want_m = martingale_check(vp, pair, 1.0, cfg=mcfg)

    results = {}
    calls = {f"growth{i}": lambda: simulate_growth(vp, cfg) for i in range(2)}
    calls.update({f"mart{i}": lambda: martingale_check(vp, pair, 1.0, cfg=mcfg)
                  for i in range(2)})
    threads = [threading.Thread(target=lambda n=n, f=f: results.update({n: f()}))
               for n, f in calls.items()]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert sorted(results) == sorted(calls)
    for name, got in results.items():
        if name.startswith("growth"):
            assert np.array_equal(got.log_mean_utility, want_g.log_mean_utility)
            assert np.array_equal(got.stderr, want_g.stderr)
            assert (got.slope, got.slope_stderr) == (want_g.slope, want_g.slope_stderr)
        else:
            assert (got.mean, got.stderr) == (want_m.mean, want_m.stderr)


def test_pair_statistics_hold_one_utility_matrix():
    # Lanes write into the (checkpoints, paths) utility matrix and the pair
    # statistics reuse it, so a call holds that matrix plus O(paths) arrays.
    ts = tuple(20.0 * k / 100 for k in range(1, 101))
    cfg = SimConfig(horizon=20.0, n_steps=1000, n_paths=20_000, seed=3, t_checkpoints=ts)
    vp = vp_of(BASE_MODELS["gbm"])
    simulate_growth(vp, cfg)  # first-call costs stay outside the trace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        simulate_growth(vp, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * len(ts) * cfg.n_paths * 8


def reference_pair_statistics(vals, t):
    """The pair statistics written out with whole-matrix finiteness masks,
    fresh per-checkpoint arrays and np.cov, as a reference for the in-place
    ones."""
    h = vals.shape[1] // 2
    finite = np.isfinite(vals)
    overflow = float(np.max(np.mean(~finite, axis=1)))
    ok = np.all(finite, axis=0)
    pair_ok = ok[:h] & ok[h:]
    n_good = int(np.count_nonzero(pair_ok))
    K, tail = len(t), len(t) // 2
    lm, se, ess = np.empty(K), np.empty(K), np.empty(K)
    g_rows = np.empty((K - tail, n_good))
    for k in range(K):
        x1, x2 = vals[k, :h][pair_ok], vals[k, h:][pair_ok]
        shift = max(float(np.max(x1)), float(np.max(x2)))
        wp = 0.5 * (np.exp(x1 - shift) + np.exp(x2 - shift))
        mean_w = float(np.mean(wp))
        lm[k] = math.log(mean_w) + shift
        se[k] = float(np.std(wp, ddof=1)) / (mean_w * math.sqrt(n_good))
        s1, s2 = float(np.sum(wp)), float(np.sum(wp * wp))
        ess[k] = s1 * s1 / s2
        if k >= tail:
            g_rows[k - tail] = wp / mean_w
    cov = np.atleast_2d(np.cov(g_rows, ddof=1) / n_good)
    slope, slope_se = mc._wls_slope(t[tail:], lm[tail:], cov)
    diverged = overflow > mc.OVERFLOW_BUDGET or ess[-1] < max(50.0, 1e-3 * n_good)
    if K - tail >= 4:
        mid = tail + (K - tail) // 2
        s1, se1 = mc._wls_slope(t[tail:mid], lm[tail:mid], cov[:mid - tail, :mid - tail])
        s2, se2 = mc._wls_slope(t[mid:], lm[mid:], cov[mid - tail:, mid - tail:])
        diverged |= s2 - s1 > 4.0 * max(math.hypot(se1, se2), 1e-12)
    return dict(overflow_fraction=overflow, log_mean_utility=lm, stderr=se, ess=ess,
                diverged=diverged, slope=slope, slope_stderr=slope_se)


@pytest.mark.parametrize("n_bad, n_checkpoints", [(1, 10), (40, 10), (40, 1)])
def test_non_finite_pairs_match_reference_statistics(monkeypatch, n_bad, n_checkpoints):
    # No golden case overflows, so inf and nan are injected into a seeded
    # matrix: as pair firsts, as mates and as both of one pair.
    cfg = SimConfig(horizon=2.0, n_steps=200, n_paths=4000, seed=11,
                    t_checkpoints=tuple(2.0 * k / n_checkpoints
                                        for k in range(1, n_checkpoints + 1)))
    vp = vp_of(BASE_MODELS["heston_sv"])
    vals, _ = mc._collect(vp, cfg)
    rng = np.random.default_rng(n_bad)
    K, n = vals.shape
    cols = rng.choice(n, size=n_bad, replace=False)
    vals[rng.integers(0, K, size=n_bad), cols] = rng.choice([np.inf, -np.inf, np.nan], size=n_bad)
    vals[K - 1, [n // 2 - 1, n - 1]] = np.nan
    want = reference_pair_statistics(vals.copy(), np.asarray(cfg.t_checkpoints))
    monkeypatch.setattr(mc, "_collect", lambda vp, cfg: (vals.copy(), 0.0))
    est = simulate_growth(vp, cfg)
    assert est.overflow_fraction.hex() == want["overflow_fraction"].hex()
    assert est.diverged == want["diverged"] == (n_bad > 1)
    for key in ("log_mean_utility", "stderr", "ess"):
        assert getattr(est, key).tobytes() == want[key].tobytes(), key
    for key in ("slope", "slope_stderr"):
        assert getattr(est, key) == pytest.approx(want[key], rel=1e-12, abs=1e-300), key


if __name__ == "__main__":
    # ``--record`` re-records every case; ``--record NAME...`` only the named
    # ones.  Entries of cases that no longer exist are dropped.  ``--bias
    # [KIND...]`` prints the step bias of every coarse density against 400
    # steps/yr; ``*`` marks the desk density.
    if sys.argv[1:2] == ["--bias"]:
        kinds = sys.argv[2:] or sorted(STEP_NORMALS)
        unknown = sorted(set(kinds) - set(STEP_NORMALS))
        if unknown:
            sys.exit(f"not a stepped kind: {', '.join(unknown)}")
        print(f"{len(BIAS_SEEDS)} seeds x {BIAS_PATHS} paths, T = {BIAS_HORIZON:g}, "
              f"bias = slope(N/yr) - slope({FINE_STEPS_PER_YEAR}/yr)")
        print(f"{'kind':24s} {'N/yr':>5s} {'bias':>10s} {'se':>9s} "
              f"{'|b|+2se':>9s} {'budget':>9s} {'c5 se':>9s}  ok")
        for kind in kinds:
            desk = _SCHEMES[kind].steps_per_year
            for per_year in (50, 100, 200):
                bias, se, budget, c5_se = step_bias(kind, per_year)
                mark = "*" if per_year == desk else " "
                print(f"{kind:24s} {per_year:4d}{mark} {bias:+10.2e} {se:9.2e} "
                      f"{abs(bias) + 2 * se:9.2e} {budget:9.2e} {c5_se:9.2e}  "
                      f"{'yes' if abs(bias) + 2 * se <= budget else 'no'}", flush=True)
    elif sys.argv[1:2] == ["--record"]:
        cases = golden_cases()
        names = sys.argv[2:] or sorted(cases)
        unknown = sorted(set(names) - set(cases))
        if unknown:
            sys.exit(f"unknown golden cases: {', '.join(unknown)}")
        records = {k: v for k, v in json.loads(GOLDEN_FILE.read_text()).items()
                   if k in cases}
        records.update({name: golden_record(*cases[name]) for name in names})
        GOLDEN_FILE.write_text("{\n" + ",\n".join(
            f"{json.dumps(k)}: {json.dumps(records[k], sort_keys=True)}"
            for k in sorted(records)) + "\n}\n")
