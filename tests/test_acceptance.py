"""Acceptance suite: one test per release criterion, printed pass/fail lines.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report.  Tolerances are pinned here, not calibrated elsewhere:

1. Heston reference scenario maximizers within 0.01 (closed form) / 0.02
   (grid argmax), under 1 second.
2. Vasicek-rate reference scenario maximizers within 0.01 via the quadratic
   vertex, under 1 second.
3. Generator residual <= 1e-9 for all ten variants over a 3x3 (alpha, beta)
   sweep, under 5 seconds.
4. E[M_1] = 1 within three standard errors for every variant at 2e5 paths,
   under 2 minutes.
5. |MC slope - closed form| <= max(5% relative, 3 stderr) for every variant
   with a finite rate at (alpha, beta) = (0.5, 2); the exact-scheme GBM case
   must match within 3 stderr with stderr < 1e-3; under 10 minutes.
6. The GARCH infinite branch is classified infinite and the oracle flags
   divergence.
7. Riccati residuals <= 1e-10 with Hurwitz closed loops on 100 random
   instances (d <= 6); matrix-vs-scalar agreement <= 1e-12 at d = 1; the
   quadratic-model MC slope matches the precision-form classification at
   criterion-5 tolerance, on a case where the covariance form disagrees.
8. Structural identities: money-market rate exact at beta = 0; GARCH and
   inverse-GARCH finite values equal; extended-CIR rate independent of
   (theta, sigma); Heston collapses to GBM with sigma^2 = theta/a as the
   vol-of-vol vanishes (1e-6 at delta = 1e-4).
9. The two standalone growth results match dedicated quadrature / Monte
   Carlo oracles within 5% relative.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate

from letfgrowth.cli import figure_problems
from letfgrowth.eigen import default_grid, eigenpair, generator_residual
from letfgrowth.errors import NoStabilizingSolution
from letfgrowth.growth import (
    cir_exponential_moment_growth,
    growth_rate,
    inverse_garch_discount_growth,
)
from letfgrowth.leverage import optimal_beta
from letfgrowth.mc import (
    SimConfig,
    desk_config,
    martingale_check,
    simulate_growth,
)
from letfgrowth.models import (
    ExtendedCir,
    Garch,
    Gbm,
    HestonSV,
    InverseGarch,
    Quadratic,
    validate,
)
from letfgrowth.riccati import solve_quadratic_model, solve_stabilizing_riccati

from reference_laws import cir_log_density, scalar_stabilizing_v
from test_models import BASE_MODELS, prob


def report(criterion: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[CRITERION {criterion}] {label}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {criterion}: {label}: {detail}"


def vp_of(model, alpha=0.5, beta=2.0, r=0.01, relax=False):
    return validate(prob(model, alpha=alpha, beta=beta, r=r), relax=relax)


# ---------------------------------------------------------------------------

def test_criterion_1_heston_scenario():
    start = time.monotonic()
    want = {0.05: 1.93, 0.01: 0.00, -0.05: -1.95}
    betas = -3.0 + 0.01 * np.arange(601)
    for vp in figure_problems(1):
        mu = vp.model.mu
        opt = optimal_beta(vp, cap=(-3.0, 3.0))
        ok_cf = abs(opt.beta_star - want[mu]) <= 0.01
        rates = [growth_rate(vp.with_beta(float(b))).rate for b in betas]
        b_grid = float(betas[int(np.argmax(rates))])
        ok_grid = abs(b_grid - want[mu]) <= 0.02
        report(1, f"Heston mu={mu:+.2f} maximizer", ok_cf and ok_grid,
               f"closed={opt.beta_star:.4f}, grid={b_grid:.2f}, want {want[mu]}")
    elapsed = time.monotonic() - start
    report(1, "runtime under 1 s", elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_2_vasicek_scenario():
    start = time.monotonic()
    want = {0.05: 3.65, 0.01: 1.52, -0.05: -1.68}
    for vp in figure_problems(2):
        mu = vp.model.mu
        opt = optimal_beta(vp)  # unconstrained vertex; 3.65 exceeds the cap
        ok = (opt.method == "quadratic_vertex"
              and abs(opt.beta_star - want[mu]) <= 0.01)
        report(2, f"Vasicek-rate mu={mu:+.2f} maximizer", ok,
               f"vertex={opt.beta_star:.4f}, want {want[mu]}")
    elapsed = time.monotonic() - start
    report(2, "runtime under 1 s", elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_3_residual_sweep():
    start = time.monotonic()
    worst = 0.0
    worst_case = None
    for kind, model in BASE_MODELS.items():
        for alpha in (0.3, 0.7, 1.0):
            for beta in (-3.0, 2.0, 3.0):
                vp = vp_of(model, alpha=alpha, beta=beta)
                res = generator_residual(vp, eigenpair(vp), default_grid(vp))
                if res.max_abs_residual > worst:
                    worst = res.max_abs_residual
                    worst_case = (kind, alpha, beta)
    elapsed = time.monotonic() - start
    report(3, "generator residual <= 1e-9 over 10 x 3 x 3 sweep",
           worst <= 1e-9, f"worst {worst:.2e} at {worst_case}, {elapsed:.2f}s")
    report(3, "runtime under 5 s", elapsed < 5.0, f"{elapsed:.2f}s")


def test_criterion_4_martingale_certificates():
    start = time.monotonic()
    for kind, model in BASE_MODELS.items():
        vp = vp_of(model)
        pair = eigenpair(vp)
        # 2e5 paths, seed 42, 400 steps/yr (one step for the exact Vasicek scheme)
        est = martingale_check(vp, pair, t=1.0)
        report(4, f"E[M_1] = 1 for {kind}", est.within_three_se,
               f"mean={est.mean:.5f}, se={est.stderr:.5f}")
    elapsed = time.monotonic() - start
    report(4, "runtime under 2 min", elapsed < 120.0, f"{elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_5_mc_vs_analytic():
    start = time.monotonic()
    for kind, model in BASE_MODELS.items():
        vp = vp_of(model)
        analytic = growth_rate(vp)
        assert analytic.is_finite, kind
        cfg = desk_config(vp, seed=42)
        est = simulate_growth(vp, cfg)
        gap = abs(est.slope - analytic.rate)
        if kind == "gbm":
            ok = (not est.diverged and gap <= 3.0 * est.slope_stderr
                  and est.slope_stderr < 1e-3)
            tol_txt = f"3se={3 * est.slope_stderr:.2e}"
        else:
            tol = max(0.05 * abs(analytic.rate), 3.0 * est.slope_stderr)
            ok = not est.diverged and gap <= tol
            tol_txt = f"tol={tol:.2e}"
        # The signed gap in stderr units shows what the 5% floor absorbs
        # (extended_cir's finite-horizon transient, whatever the step).
        report(5, f"MC vs closed form for {kind}", ok,
               f"{cfg.n_steps / cfg.horizon:g} steps/yr, slope={est.slope:.5f}, "
               f"rate={analytic.rate:.5f}, gap={gap:.2e} "
               f"({(est.slope - analytic.rate) / est.slope_stderr:+.1f} se), {tol_txt}")
    elapsed = time.monotonic() - start
    report(5, "runtime under 10 min", elapsed < 600.0, f"{elapsed:.1f}s")


def test_criterion_6_garch_infinite_branch():
    vp = vp_of(Garch(theta=0.08, a=1.0, sigma=0.5), alpha=1.0, beta=10.0)
    analytic = growth_rate(vp)
    cfg = SimConfig(horizon=15.0, n_steps=3000, n_paths=100_000, seed=42)
    est = simulate_growth(vp, cfg)
    report(6, "alpha*beta >= 2a/sigma^2 + 1 classified infinite",
           not analytic.is_finite,
           f"lhs={analytic.condition.lhs}, threshold={analytic.condition.threshold}")
    report(6, "oracle divergence flag set", est.diverged,
           "; ".join(est.divergence_reasons))


def test_criterion_7_riccati_suite():
    rng = np.random.default_rng(7777)
    worst_res, worst_unstable = 0.0, -math.inf
    for _ in range(100):
        d = int(rng.integers(1, 7))
        M = rng.normal(size=(d, d))
        a = M @ M.T + d * np.eye(d)
        B = rng.normal(size=(d, d))
        B = B - (np.max(np.linalg.eigvals(B).real) + 0.5 + rng.uniform(0, 2)) * np.eye(d)
        q = float(rng.uniform(0.0, 10.0))
        sol = solve_stabilizing_riccati(a, B, q)
        scale = max(1.0, float(np.max(np.abs(a))) * max(1.0, float(np.max(np.abs(sol.V)))) ** 2)
        worst_res = max(worst_res, sol.residual / scale)
        worst_unstable = max(worst_unstable,
                             float(np.max(np.linalg.eigvals(sol.closed_loop).real)))
    report(7, "residual <= 1e-10 on 100 random instances (d <= 6)",
           worst_res <= 1e-10, f"worst scaled residual {worst_res:.2e}")
    report(7, "closed loop Hurwitz on all instances", worst_unstable < 0.0,
           f"max real part {worst_unstable:.2e}")

    worst_gap = 0.0
    for B1 in (-0.3, -1.0, -2.5, 0.9):
        for a1 in (0.5, 1.0, 2.0):
            for q in (0.0, 0.1, 1.0, 5.0, 12.0):
                sol = solve_stabilizing_riccati(np.array([[a1]]), np.array([[B1]]), q)
                want = scalar_stabilizing_v(a1, B1, q)
                worst_gap = max(worst_gap,
                                abs(sol.V[0, 0] - want) / max(1.0, abs(want)))
    report(7, "d=1 matrix solver matches scalar formula <= 1e-12",
           worst_gap <= 1e-12, f"worst gap {worst_gap:.2e}")

    # Discriminating case: the covariance-form test disagrees with the
    # precision-form test; the Monte Carlo slope decides.
    m = Quadratic(b=[0.0], Bmat=[[-3.0]], sigma=[[1.0]])
    vp = vp_of(m)
    sol = solve_quadratic_model(m, 0.5, 2.0)
    assert sol.convergence.all_negative_precision
    assert not sol.convergence.all_negative_covariance
    analytic = growth_rate(vp)
    cfg = SimConfig(horizon=10.0, n_steps=4000, n_paths=100_000, seed=42)
    est = simulate_growth(vp, cfg)
    gap = abs(est.slope - analytic.rate)
    tol = max(0.05 * abs(analytic.rate), 3.0 * est.slope_stderr)
    report(7, "MC supports the precision-form convergence test",
           (not est.diverged) and gap <= tol,
           f"slope={est.slope:.5f} vs rate={analytic.rate:.5f} "
           f"(covariance form had claimed infinite)")


def test_criterion_8_structural_identities():
    exact_ok = True
    for kind, m in BASE_MODELS.items():
        if kind in ("gbm_vasicek", "gbm_inverse_garch_rate"):
            continue
        for alpha, r in ((0.5, 0.01), (0.3, 0.04), (1.0, 0.02)):
            g = growth_rate(vp_of(m, alpha=alpha, beta=0.0, r=r))
            exact_ok &= (g.rate == alpha * r)
    report(8, "money-market rate alpha*r exact at beta = 0", exact_ok)

    equal_ok = True
    for alpha, beta in ((0.5, 2.0), (0.8, -3.0), (1.0, 3.0)):
        g1 = growth_rate(vp_of(Garch(theta=0.08, a=1.0, sigma=0.2),
                               alpha=alpha, beta=beta))
        g2 = growth_rate(vp_of(InverseGarch(theta=0.08, a=1.0, sigma=0.2),
                               alpha=alpha, beta=beta))
        equal_ok &= abs(g1.rate - g2.rate) < 1e-15
    report(8, "GARCH and inverse-GARCH share finite values", equal_ok)

    g1 = growth_rate(vp_of(ExtendedCir(theta=0.05, mu=0.05, sigma=0.2)))
    g2 = growth_rate(vp_of(ExtendedCir(theta=0.40, mu=0.05, sigma=0.5)))
    report(8, "extended-CIR rate independent of (theta, sigma)",
           abs(g1.rate - g2.rate) < 1e-14, f"{g1.rate} vs {g2.rate}")

    theta, a = 0.16, 3.1
    worst = 0.0
    for beta in (-3.0, -1.0, 2.0, 3.0):
        gh = growth_rate(vp_of(HestonSV(mu=0.05, theta=theta, a=a, delta=1e-4,
                                        rho=0.0, v0=theta / a), beta=beta))
        gg = growth_rate(vp_of(Gbm(mu=0.05, sigma=math.sqrt(theta / a)), beta=beta))
        worst = max(worst, abs(gh.rate - gg.rate))
    report(8, "Heston -> GBM reduction (rho=0, delta=1e-4) within 1e-6",
           worst <= 1e-6, f"worst gap {worst:.2e}")


def _cir_exp_moment_log(p, ell, mu, sigma, t, x0=1.0):
    """log E[X_t^p exp(2 mu X_t / sigma^2)] by log-domain quadrature."""
    c = 2.0 * mu / sigma ** 2
    h = 2.0 * mu / (sigma ** 2 * (1.0 - math.exp(-mu * t)))
    span = 3000.0 / (h - c)

    def logf(x):
        with np.errstate(divide="ignore", invalid="ignore"):
            return p * np.log(x) + c * x + cir_log_density(x, t, ell, mu, sigma, x0)

    xs = np.geomspace(1e-8, span, 800)
    shift = float(np.nanmax(logf(xs)))
    val, _ = integrate.quad(lambda x: math.exp(min(50.0, float(logf(np.array([x]))[0]) - shift))
                            if x > 0 else 0.0, 0.0, span, limit=500)
    return shift + math.log(val)


def test_criterion_9_appendix_oracles():
    # Exponential-moment growth of the mean-reverting square-root process:
    # quadrature of the closed-form density over a time grid.
    p, ell, mu, sigma = 1.0, 0.04, 0.05, 0.2
    want = cir_exponential_moment_growth(p, ell, mu, sigma).rate
    lv40 = _cir_exp_moment_log(p, ell, mu, sigma, 40.0)
    lv60 = _cir_exp_moment_log(p, ell, mu, sigma, 60.0)
    slope = (lv60 - lv40) / 20.0
    report(9, "square-root exponential-moment growth vs quadrature",
           abs(slope - want) <= 0.05 * abs(want),
           f"quadrature={slope:.4f}, closed={want:.4f}")

    # Discount-rate growth under an inverse-GARCH short rate: dedicated MC.
    c, theta, a, sig = 1.0, 0.3, 1.0, 0.2
    want_b = inverse_garch_discount_growth(c, theta, a, sig).rate
    T1, T2, steps_per_year, n = 10.0, 20.0, 200, 100_000
    rng = np.random.default_rng(4242)
    steps = int(T2 * steps_per_year)
    dt = T2 / steps
    half = n // 2
    z = np.zeros(n)
    ri = np.zeros(n)
    r_prev = np.ones(n)
    lm = {}
    k1 = int(T1 / dt)
    for s in range(1, steps + 1):
        zz = rng.standard_normal(half)
        zz = np.concatenate([zz, -zz])
        z += (theta - a * r_prev - 0.5 * sig ** 2) * dt + sig * math.sqrt(dt) * zz
        r_new = np.exp(z)
        ri += 0.5 * (r_prev + r_new) * dt
        r_prev = r_new
        if s in (k1, steps):
            x = -c * ri
            shift = float(x.max())
            lm[s] = shift + math.log(float(np.mean(np.exp(x - shift))))
    slope_b = (lm[steps] - lm[k1]) / (T2 - T1)
    report(9, "inverse-GARCH discount growth vs Monte Carlo",
           abs(slope_b - want_b) <= 0.05 * abs(want_b),
           f"mc={slope_b:.4f}, closed={want_b:.4f}")
