"""Long-term growth rate of expected power utility.

For a validated problem this module evaluates

    Lambda(beta) = lim_{t->inf} (1/t) log E[L_t^alpha]

in closed form together with the inequality that decides whether the limit
is finite, plus standalone growth results used by the oracle suite
(exponential moments of a mean-reverting square-root process and the
discounting rate under an inverse-GARCH short rate).  The module is
model-agnostic: each model class in ``models`` supplies its finiteness
condition and rate components, with no eigenfunction built, and a curve's
points in one loop; the code here classifies and formats them.

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

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import ConditionUnmet, LetfGrowthError

if TYPE_CHECKING:
    from .models import ValidatedProblem

__all__ = [
    "FinitenessCondition",
    "GrowthRate",
    "GrowthCurvePoint",
    "growth_rate",
    "growth_curve",
    "display_growth_value",
    "cir_exponential_moment_growth",
    "inverse_garch_discount_growth",
]

BOUNDARY_REL_TOL = 1e-12


class FinitenessCondition(NamedTuple):
    """The strict inequality lhs > threshold deciding finiteness.

    ``near_boundary`` is set when the two sides agree to 1e-12 relative;
    such points sit on the infinite branch but deserve suspicion.  The records
    built per curve point (this, ``GrowthRate``, ``GrowthCurvePoint``) are
    named tuples, like ``eigen.Eigenpair``: immutable and cheap to build.
    """

    description: str
    lhs: float
    threshold: float
    satisfied: bool
    near_boundary: bool = False


def _condition(description: str, lhs: float, threshold: float) -> FinitenessCondition:
    scale = max(1.0, abs(lhs), abs(threshold))
    near = abs(lhs - threshold) <= BOUNDARY_REL_TOL * scale
    return FinitenessCondition(description, lhs, threshold, (lhs > threshold) and not near, near)


_ALWAYS = FinitenessCondition("finite for all admissible parameters", 1.0, 0.0, True)


class GrowthRate(NamedTuple):
    """Classified growth rate with its decision condition and decomposition.

    ``components`` holds the named additive terms of the closed form; they
    sum to ``rate`` whenever the classification is finite.  An immutable
    named tuple whose ``components`` dict is fresh for each result.
    """

    classification: str  # "finite" | "infinite"
    rate: float | None
    condition: FinitenessCondition
    components: dict[str, float]

    @property
    def is_finite(self) -> bool:
        return self.classification == "finite"


def _classified(condition: FinitenessCondition,
                components: dict[str, float]) -> GrowthRate:
    """Classify by ``condition``; the result keeps ``components``, uncopied."""
    if condition.satisfied:
        return GrowthRate("finite", float(sum(components.values())), condition, components)
    return GrowthRate("infinite", None, condition, components)


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
    return vp.model.growth_rate(vp.alpha, vp.beta, vp.r)


class GrowthCurvePoint(NamedTuple):
    """One beta of a curve: its growth rate, or the library error raised there."""

    beta: float
    growth: GrowthRate | None
    error: str | None = None


def growth_curve(vp: ValidatedProblem, beta_grid) -> list[GrowthCurvePoint]:
    """The growth rate at each beta of a sorted grid.

    Per-point library errors (e.g. no stabilizing Riccati solution at some
    beta) are collected, not fatal; infinite points are flagged, never
    interpolated.  Each point is :func:`growth_rate` at its beta.
    """
    betas = np.asarray(beta_grid, dtype=float)
    if betas.ndim != 1 or betas.size == 0:
        raise ValueError("beta grid must be a nonempty 1-d array")
    if not np.all(np.isfinite(betas)):
        raise ValueError("beta grid must be finite")
    if np.any(np.diff(betas) < 0):
        raise ValueError("beta grid must be sorted ascending")
    return vp.model.curve(vp.alpha, vp.r, betas)


def _failed(beta: float, exc: LetfGrowthError) -> GrowthCurvePoint:
    """The curve point at beta where the library error ``exc`` was raised."""
    return GrowthCurvePoint(beta, None, f"{type(exc).__name__}: {exc}")


def display_growth_value(vp: ValidatedProblem) -> float:
    """Published-curve value for the stochastic-rate variants.

    This is the quadratic-in-beta closed form behind the bundled reference
    scenarios (see the leverage module): it takes the financing-level term
    -(alpha*(1-beta)/a) * (theta + alpha*beta*delta*sigma*rho) with the
    opposite sign from the generator-consistent rate returned by
    :func:`growth_rate`, which the Monte Carlo oracle supports.  Exposed so
    both values stay inspectable side by side.
    """
    if not vp.model.stochastic_rate:
        raise TypeError("display curve is defined for the stochastic-rate variants only")
    return vp.model.display(vp.alpha, vp.beta)


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
    return _classified(cond, {"moment_growth_term": lhs * mu})


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
    cond = _condition("theta > (kappa+1)*sigma^2", theta, (kappa + 1.0) * sigma ** 2)
    if not cond.satisfied:
        raise ConditionUnmet(cond.description, f"assumption not met: {cond.description} "
                                               f"(got {theta} vs {cond.threshold})")
    return _classified(cond, {
        "level_term": -theta * kappa,
        "convexity_term": 0.5 * sigma ** 2 * kappa * (kappa + 1.0),
    })
