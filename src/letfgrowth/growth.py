"""Long-term growth rate of expected power utility, per model.

For each catalog variant this module evaluates

    Lambda(beta) = lim_{t->inf} (1/t) log E[L_t^alpha]

in closed form together with the inequality that decides whether the limit
is finite, plus two standalone growth results used by the oracle suite
(exponential moments of a mean-reverting square-root process, and the
discounting rate under an inverse-GARCH short rate).

Classification conventions
--------------------------
* Boundary cases of the strict inequalities (lhs == threshold to within
  1e-12 relative) are classified on the infinite branch, matching the
  "otherwise" wording of the closed forms, and flagged ``near_boundary``.
* ``infinite`` means the utility moment's transformed-measure prefactor
  diverges; the Monte Carlo oracle detects this as tail-dominated estimates
  (collapsing effective sample size), not as a literal overflow.
* The growth rate itself is represented explicitly (classification plus
  optional rate), never as a sentinel float.

At beta = 0 a constant-rate fund is the money-market account, so the rate is
exactly alpha * r with no model terms; this is short-circuited to keep the
identity exact in floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .eigen import eigenpair
from .errors import ConditionUnmet, LetfGrowthError
from .models import (
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
    ValidatedProblem,
    has_stochastic_rate,
)
from .riccati import QuadraticSolution, solve_quadratic_grid, solve_quadratic_model

__all__ = [
    "FinitenessCondition",
    "GrowthRate",
    "GrowthCurvePoint",
    "growth_rate",
    "growth_curve",
    "display_growth_value",
    "cir_exponential_moment_growth",
    "inverse_garch_discount_growth",
    "stationary_power_moment_garch",
]

BOUNDARY_REL_TOL = 1e-12


@dataclass(frozen=True)
class FinitenessCondition:
    """The strict inequality lhs > threshold deciding finiteness.

    ``near_boundary`` is set when the two sides agree to 1e-12 relative;
    such points sit on the infinite branch but deserve suspicion.
    """

    description: str
    lhs: float
    threshold: float
    satisfied: bool
    near_boundary: bool = False


def _condition(description: str, lhs: float, threshold: float) -> FinitenessCondition:
    scale = max(1.0, abs(lhs), abs(threshold))
    near = abs(lhs - threshold) <= BOUNDARY_REL_TOL * scale
    return FinitenessCondition(description=description, lhs=lhs, threshold=threshold,
                               satisfied=(lhs > threshold) and not near,
                               near_boundary=near)


_ALWAYS = FinitenessCondition("finite for all admissible parameters", 1.0, 0.0, True)


@dataclass(frozen=True)
class GrowthRate:
    """Classified growth rate with its decision condition and decomposition.

    ``components`` holds the named additive terms of the closed form; they
    sum to ``rate`` whenever the classification is finite.
    """

    classification: str  # "finite" | "infinite"
    rate: float | None
    condition: FinitenessCondition
    components: dict[str, float]

    @property
    def is_finite(self) -> bool:
        return self.classification == "finite"


def _finite(condition: FinitenessCondition, components: dict[str, float]) -> GrowthRate:
    return GrowthRate("finite", float(sum(components.values())), condition,
                      dict(components))


def _infinite(condition: FinitenessCondition, components: dict[str, float]) -> GrowthRate:
    return GrowthRate("infinite", None, condition, dict(components))


def growth_rate(vp: ValidatedProblem) -> GrowthRate:
    """Closed-form long-term growth rate of E[L_t^alpha].

    The generic shape is (constant-rate factor) minus the eigenvalue of the
    generator-with-killing; variants whose transformed-measure moment itself
    grows exponentially (extended CIR) pick up that rate as an extra
    component.

    Raises
    ------
    ComplexKappa
        Propagated from the eigenpair evaluation.
    """
    m = vp.model
    alpha, beta = vp.alpha, vp.beta
    r = vp.r

    if not has_stochastic_rate(m) and beta == 0.0:
        # Money-market account: L_t = exp(r t) deterministically.
        return _finite(_ALWAYS, {"rate_term": alpha * r})

    if isinstance(m, Quadratic):
        return _quadratic_growth(vp, beta, solve_quadratic_model(m, alpha, beta))

    pair = eigenpair(vp)

    if isinstance(m, Gbm):
        comps = {"rate_term": r * alpha * (1.0 - beta), "eigenvalue_term": -pair.lam}
        return _finite(_ALWAYS, comps)

    if isinstance(m, Garch):
        cond = _condition("2a/sigma^2 + 1 > alpha*beta",
                          2.0 * m.a / m.sigma ** 2 + 1.0, alpha * beta)
        comps = {"rate_term": r * alpha * (1.0 - beta), "eigenvalue_term": -pair.lam}
        return _finite(cond, comps) if cond.satisfied else _infinite(cond, comps)

    if isinstance(m, InverseGarch):
        cond = _condition("alpha*beta + 2*theta/sigma^2 > 1",
                          alpha * beta + 2.0 * m.theta / m.sigma ** 2, 1.0)
        comps = {"rate_term": r * alpha * (1.0 - beta), "eigenvalue_term": -pair.lam}
        return _finite(cond, comps) if cond.satisfied else _infinite(cond, comps)

    if isinstance(m, ExtendedCir):
        kappa = pair.kappa
        lhs = alpha * beta + 2.0 * m.theta / m.sigma ** 2 + kappa
        cond = _condition("alpha*beta + 2*theta/sigma^2 + kappa > 0", lhs, 0.0)
        comps = {
            "rate_term": r * alpha * (1.0 - beta),
            "eigenvalue_term": -pair.lam,
            "moment_growth_term": lhs * m.mu,
        }
        return _finite(cond, comps) if cond.satisfied else _infinite(cond, comps)

    if isinstance(m, ThreeHalves):
        lhs = 2.0 * m.a / m.sigma ** 2 + pair.kappa - alpha * beta + 2.0
        cond = _condition("2*a/sigma^2 + kappa - alpha*beta + 2 > 0", lhs, 0.0)
        comps = {"rate_term": r * alpha * (1.0 - beta), "eigenvalue_term": -pair.lam}
        return _finite(cond, comps) if cond.satisfied else _infinite(cond, comps)

    if isinstance(m, HestonSV):
        # Convergence of the exp-moment of the transformed variance process:
        # sqrt((a - ab*d*r)^2 + a(1-a)b^2 d^2) + (a - ab*d*r) > 0.  Holds
        # everywhere except the degenerate alpha = 1 corner with
        # a <= beta*delta*rho.
        a_t = m.a - alpha * beta * m.delta * m.rho
        root = math.sqrt(a_t ** 2 + alpha * (1.0 - alpha) * beta ** 2 * m.delta ** 2)
        cond = _condition("exp-moment convergence: sqrt(...) + (a - alpha*beta*delta*rho) > 0",
                          root + a_t, 0.0)
        comps = {
            "rate_term": r * alpha * (1.0 - beta),
            "reference_drift_term": alpha * beta * m.mu,
            "eigenvalue_term": -pair.lam,
        }
        return _finite(cond, comps) if cond.satisfied else _infinite(cond, comps)

    if isinstance(m, ThreeHalvesSV):
        shifted = m.a - alpha * beta * m.delta * m.rho + 0.5 * m.delta ** 2
        root = math.sqrt(shifted ** 2 + alpha * (1.0 - alpha) * beta ** 2 * m.delta ** 2)
        lhs = (root + shifted) / m.delta ** 2 + 1.0
        cond = _condition("(sqrt(...) + (a - alpha*beta*delta*rho + delta^2/2))/delta^2 + 1 > 0",
                          lhs, 0.0)
        comps = {
            "rate_term": r * alpha * (1.0 - beta),
            "reference_drift_term": alpha * beta * m.mu,
            "eigenvalue_term": -pair.lam,
        }
        return _finite(cond, comps) if cond.satisfied else _infinite(cond, comps)

    if isinstance(m, GbmVasicek):
        comps = {
            "reference_drift_term": alpha * beta * m.mu,
            "volatility_drag_term": -0.5 * alpha * (1.0 - alpha) * beta ** 2 * m.sigma ** 2,
            "eigenvalue_term": -pair.lam,
        }
        return _finite(_ALWAYS, comps)

    if isinstance(m, GbmInverseGarchRate):
        th_t = m.theta + alpha * beta * m.delta * m.sigma * m.rho
        lhs = alpha * (1.0 - beta) / m.a + (2.0 / m.delta ** 2) * th_t
        cond = _condition(
            "alpha*(1-beta)/a + (2/delta^2)*(theta + alpha*beta*delta*sigma*rho) > 1",
            lhs, 1.0)
        comps = {
            "reference_drift_term": alpha * beta * m.mu,
            "volatility_drag_term": -0.5 * alpha * (1.0 - alpha) * beta ** 2 * m.sigma ** 2,
            "eigenvalue_term": -pair.lam,
        }
        return _finite(cond, comps) if cond.satisfied else _infinite(cond, comps)

    raise TypeError(f"unknown model kind {m.kind!r}")


def _quadratic_growth(vp: ValidatedProblem, beta: float,
                      sol: QuadraticSolution) -> GrowthRate:
    """Quadratic-model growth rate at beta from its solved Riccati chain."""
    m = vp.model
    a = m.a
    max_eig = float(sol.convergence.eigs_precision[-1])
    cond = _condition(
        "all eigenvalues of V + alpha*beta*I - inv(Sigma_inf)/2 negative "
        "(lhs = -max eigenvalue)",
        -max_eig, 0.0)
    comps = {
        "rate_term": vp.r * vp.alpha * (1.0 - beta),
        "half_uau": 0.5 * float(sol.u @ a @ sol.u),
        "trace_aV": -float(np.trace(a @ sol.V)),
        "u_b": -float(sol.u @ m.b),
    }
    return _finite(cond, comps) if cond.satisfied else _infinite(cond, comps)


@dataclass(frozen=True)
class GrowthCurvePoint:
    beta: float
    growth: GrowthRate | None
    error: str | None = None


def growth_curve(vp: ValidatedProblem, beta_grid) -> list[GrowthCurvePoint]:
    """Map :func:`growth_rate` over a sorted beta grid.

    Per-point library errors (e.g. no stabilizing Riccati solution at some
    beta) are collected, not fatal; infinite points are flagged, never
    interpolated.  The quadratic model solves its Riccati chain for the
    whole grid in batches.
    """
    betas = np.asarray(beta_grid, dtype=float)
    if betas.ndim != 1 or betas.size == 0:
        raise ValueError("beta grid must be a nonempty 1-d array")
    if np.any(np.diff(betas) < 0):
        raise ValueError("beta grid must be sorted ascending")
    out = []
    for b, g in zip(betas.tolist(), _curve_rates(vp, betas)):
        if isinstance(g, LetfGrowthError):
            out.append(GrowthCurvePoint(b, None, f"{type(g).__name__}: {g}"))
        else:
            out.append(GrowthCurvePoint(b, g))
    return out


def _curve_rates(vp: ValidatedProblem, betas: np.ndarray):
    """growth_rate at each beta, or the library error it raises there."""
    if isinstance(vp.model, Quadratic):
        # One batched Riccati chain for the grid; beta = 0 keeps the
        # money-market short-circuit of growth_rate.
        moved = betas != 0.0
        solved = solve_quadratic_grid(vp.model, vp.alpha, betas[moved])
        for b, solve in zip(betas.tolist(), moved):
            if not solve:
                yield growth_rate(vp.with_beta(b))
                continue
            sol = next(solved)
            yield sol if isinstance(sol, LetfGrowthError) else _quadratic_growth(vp, b, sol)
        return
    for b in betas.tolist():
        try:
            yield growth_rate(vp.with_beta(b))
        except LetfGrowthError as exc:  # per-point collection by contract
            yield exc


def display_growth_value(vp: ValidatedProblem) -> float:
    """Published-curve value for the stochastic-rate variants.

    This is the quadratic-in-beta closed form behind the bundled reference
    scenarios (see the leverage module): it takes the financing-level term
    -(alpha*(1-beta)/a) * (theta + alpha*beta*delta*sigma*rho) with the
    opposite sign from the generator-consistent rate returned by
    :func:`growth_rate`, which the Monte Carlo oracle supports.  Exposed so
    both values stay inspectable side by side.
    """
    m = vp.model
    if not isinstance(m, (GbmVasicek, GbmInverseGarchRate)):
        raise TypeError("display curve is defined for the stochastic-rate variants only")
    alpha, beta = vp.alpha, vp.beta
    th_t = m.theta + alpha * beta * m.delta * m.sigma * m.rho
    return (alpha * beta * m.mu
            - 0.5 * alpha * (1.0 - alpha) * beta ** 2 * m.sigma ** 2
            + 0.5 * (alpha * m.delta * (1.0 - beta) / m.a) ** 2
            - alpha * (1.0 - beta) * th_t / m.a)


# ---------------------------------------------------------------------------
# Standalone growth results used by the oracle suite
# ---------------------------------------------------------------------------

def cir_exponential_moment_growth(p: float, ell: float, mu: float,
                                  sigma: float) -> GrowthRate:
    """Growth rate of E[X_t^p exp(2 mu X_t / sigma^2)] for a CIR process.

    X follows dX = (ell - mu X) dt + sigma sqrt(X) dW.  The limit is
    (p + 2 ell / sigma^2) mu when p + 2 ell / sigma^2 > 0 and infinite
    otherwise (equality included on the infinite branch).
    """
    if mu <= 0.0 or sigma <= 0.0:
        raise ValueError("mu and sigma must be positive")
    lhs = p + 2.0 * ell / sigma ** 2
    cond = _condition("p + 2*ell/sigma^2 > 0", lhs, 0.0)
    comps = {"moment_growth_term": lhs * mu}
    return _finite(cond, comps) if cond.satisfied else _infinite(cond, comps)


def inverse_garch_discount_growth(c: float, theta: float, a: float,
                                  sigma: float) -> GrowthRate:
    """Growth rate of E[exp(-c int_0^t r_s ds)] for an inverse-GARCH rate.

    With kappa = c / a the rate is -theta*kappa + sigma^2 kappa (kappa+1)/2,
    valid under theta > (kappa + 1) sigma^2.

    Raises
    ------
    ConditionUnmet
        When theta <= (kappa + 1) sigma^2 (boundary included); outside that
        assumption no closed form is claimed.
    """
    if a <= 0.0 or sigma <= 0.0:
        raise ValueError("a and sigma must be positive")
    kappa = c / a
    bound = (kappa + 1.0) * sigma ** 2
    if not theta > bound or abs(theta - bound) <= BOUNDARY_REL_TOL * max(1.0, abs(theta)):
        raise ConditionUnmet(f"theta > (kappa+1)*sigma^2 (got {theta} vs {bound})")
    cond = _condition("theta > (kappa+1)*sigma^2", theta, bound)
    comps = {
        "level_term": -theta * kappa,
        "convexity_term": 0.5 * sigma ** 2 * kappa * (kappa + 1.0),
    }
    return _finite(cond, comps)


def stationary_power_moment_garch(p: float, theta: float, a: float,
                                  sigma: float) -> float:
    """Limit of E[X_t^p] for the GARCH diffusion, via its Gamma stationary law.

    2 theta / (sigma^2 X) converges to a Gamma variable with shape
    gamma = 2 a / sigma^2 + 1, so the limit is
    (2 theta / sigma^2)**p * Gamma(gamma - p) / Gamma(gamma) when gamma > p,
    and +inf otherwise.
    """
    if theta <= 0.0 or a <= 0.0 or sigma <= 0.0:
        raise ValueError("theta, a, sigma must be positive")
    gamma = 2.0 * a / sigma ** 2 + 1.0
    if gamma <= p:
        return math.inf
    scale = 2.0 * theta / sigma ** 2
    return float(scale ** p * math.exp(gammaln(gamma - p) - gammaln(gamma)))
