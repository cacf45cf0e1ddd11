"""Model catalog: reference-asset dynamics, preferences, and validation.

The library prices a leveraged fund on a reference asset ``X`` with leverage
ratio ``beta``: the fund holds ``beta`` times its value in the reference and
finances the rest at the short rate.  Each model variant defined here
carries its own closed forms: the eigenpair of its generator with killing,
the finiteness condition and components of the growth rate, the finite
region in beta, and the leverage derivative and optimum.  The eigen, growth
and leverage modules call these methods and never branch on the variant.

Units are per year throughout; volatilities are per square-root year.  The
initial conditions are fixed at ``X_0 = L_0 = 1`` (and ``Y_0 = 0`` for the
quadratic state), so growth rates never depend on an arbitrary price scale.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields
from pathlib import Path
from typing import ClassVar, Union

import numpy as np

from .eigen import (
    Constant,
    Eigenpair,
    ExpLinear,
    ExpLinearPower,
    ExpQuadratic,
    GeneratorCoefficients,
    Power,
    _stable_root_minus,
)
from .errors import (
    ConfigError,
    ExtraneousRate,
    LetfGrowthError,
    MissingRate,
    ParameterViolation,
)
from .growth import _ALWAYS, FinitenessCondition, GrowthRate, _classified, _condition
from .leverage import ConcavityProfile, Optimum
from .riccati import _eigenvalue_slope_stack, _solve_chains, solve_quadratic_model

__all__ = [
    "Preference",
    "Leverage",
    "ConstantRate",
    "Gbm",
    "Garch",
    "InverseGarch",
    "ExtendedCir",
    "ThreeHalves",
    "HestonSV",
    "ThreeHalvesSV",
    "GbmVasicek",
    "GbmInverseGarchRate",
    "Quadratic",
    "ModelSpec",
    "Problem",
    "ValidatedProblem",
    "validate",
    "load_problem",
    "problem_to_config",
    "MODEL_KINDS",
]

GRID_POINTS = 50  # size of the default residual grid
_GRIDS: dict[str, np.ndarray] = {}  # scalar default residual grids, by state space


def _violated(field: str, constraint: str, detail: str,
              relax: bool, warnings: list[str]) -> None:
    """Raise ParameterViolation, or record a warning when relax is set."""
    if not relax:
        raise ParameterViolation(field, constraint, f"{constraint} fails: {detail}")
    warnings.append(f"{field}: relaxed check failed: {constraint} ({detail})")


# A parameter bound is a row (field, constraint text, test, failure detail);
# test and detail take the model, so the detail is formatted only on failure.
def _got(name: str):
    return lambda m: f"got {getattr(m, name)}"


def _positive(*names: str) -> tuple:
    """One ``name > 0`` row per field, in the given order."""
    return tuple((n, f"{n} > 0", lambda m, n=n: getattr(m, n) > 0.0, _got(n))
                 for n in names)


_RHO_BOUND = ("rho", "-1 <= rho <= 1", lambda m: -1.0 <= m.rho <= 1.0, _got("rho"))


def _check(obj, relax: bool, warnings: list[str]) -> None:
    """Check the rows of ``obj.bounds`` in order (see :func:`_violated`)."""
    for field, constraint, holds, detail in obj.bounds:
        if not holds(obj):
            _violated(field, constraint, detail(obj), relax, warnings)


def _monotone(slope: float, profile, flat_note: str, side_note: str,
              method: str = "closed_form") -> Optimum:
    """Flat at zero slope, otherwise the side the slope rises towards."""
    if slope == 0.0:
        return Optimum(method=method, profile=profile, note=flat_note)
    return Optimum(side="+" if slope > 0.0 else "-", method=method, profile=profile,
                   note=side_note)


@dataclass(frozen=True)
class Preference:
    """Power-utility preference u(w) = w**alpha with alpha in (0, 1].

    Relative risk aversion is 1 - alpha, so alpha = 1 is the risk-neutral
    (expected-return) case.
    """

    alpha: float

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            _violated("alpha", "0 < alpha <= 1", f"got {self.alpha}", False, [])


@dataclass(frozen=True)
class Leverage:
    """Leverage ratio of the fund.  Any finite real is accepted here.

    Formula-specific domain restrictions (some exponents need
    beta * (beta - 1) >= 0, i.e. beta outside (0, 1)) are enforced by the
    consuming module, because several variants are valid for every beta.
    """

    beta: float

    def __post_init__(self):
        if not math.isfinite(self.beta):
            raise ParameterViolation("beta", "finite real",
                                     f"beta must be finite, got {self.beta}")


@dataclass(frozen=True)
class ConstantRate:
    """Constant short rate, per year.  Strictly positive unless relaxed."""

    r: float

    bounds: ClassVar[tuple] = _positive("r")


# ---------------------------------------------------------------------------
# Model variants
# ---------------------------------------------------------------------------

class _Model:
    """Closed forms each variant carries: its own ``generator`` and
    ``eigenpair``, and ``growth`` (finiteness condition and rate components),
    ``interval`` (finite region in beta), ``derivative`` and ``optimum`` (of
    the leverage objective) and ``grid`` (default residual grid), some with
    shared defaults here.  A variant without a closed-form optimum
    (``optimum = None``) supplies ``rates`` and ``rate_and_slope`` for the
    optimizer's search instead.  ``check`` reads the parameter ``bounds``
    table.  A variant whose finite region is a half-line states its ``edge``.
    """

    kind: ClassVar[str]
    stochastic_rate: ClassVar[bool] = False  # carries its own short rate
    domain: ClassVar[str] = "positive"  # state space: "positive" or "real"
    bounds: ClassVar[tuple] = ()  # parameter bounds, checked in order

    check = _check

    def drift_terms(self, alpha: float, beta: float, r: float | None) -> dict[str, float]:
        """Rate components besides the eigenvalue term: here constant-rate financing."""
        return {"rate_term": r * alpha * (1.0 - beta)}

    def finiteness(self, alpha: float, beta: float, pair: Eigenpair) -> FinitenessCondition:
        return _ALWAYS

    def growth(self, alpha: float, beta: float, r: float | None):
        """(finiteness condition, named additive rate components) at beta:
        the drift terms minus the eigenvalue."""
        pair = self.eigenpair(alpha, beta)
        terms = self.drift_terms(alpha, beta, r)
        terms["eigenvalue_term"] = -pair.lam
        return self.finiteness(alpha, beta, pair), terms

    def growth_rate(self, alpha: float, beta: float, r: float | None) -> GrowthRate:
        if not self.stochastic_rate and beta == 0.0:
            # Money-market account: L_t = exp(r t) deterministically.
            return _classified(_ALWAYS, {"rate_term": alpha * r})
        return _classified(*self.growth(alpha, beta, r))

    def curve(self, alpha: float, r: float | None, betas: np.ndarray):
        """growth_rate at each beta, or the library error it raises there."""
        for b in betas.tolist():
            try:
                yield self.growth_rate(alpha, b, r)
            except LetfGrowthError as exc:  # per-point collection by contract
                yield exc

    def edge(self, alpha: float) -> tuple[float, float] | None:
        """(s, c): growth is finite exactly where s*beta + c > 0; None: everywhere."""
        return None

    def interval(self, alpha: float) -> tuple[float, float, str | None]:
        """Finite-classification region (lo, hi, condition text or None) in beta."""
        s, c = self.edge(alpha) or (0.0, 1.0)
        if s > 0.0:
            return (-c / s, math.inf, self._finite_if)
        if s < 0.0:
            return (-math.inf, -c / s, self._finite_if)
        return (-math.inf, math.inf, None) if c > 0.0 else (math.nan, math.nan, self._finite_if)

    def grid(self) -> np.ndarray:
        """Default residual grid, built on first use and shared read-only:
        log-spaced on (0, inf) states, linear on R."""
        if self.domain not in _GRIDS:
            grid = np.linspace(-5.0, 5.0, GRID_POINTS) if self.domain == "real" \
                else np.geomspace(0.01, 100.0, GRID_POINTS)
            grid.flags.writeable = False
            _GRIDS[self.domain] = grid
        return _GRIDS[self.domain]

    def _linear_killing(self, k: float, variance, drift) -> GeneratorCoefficients:
        """Generator with the killing rate k times the state."""
        return GeneratorCoefficients(variance, drift, lambda x: k * np.asarray(x, float),
                                     self.domain)


def _lognormal_generator(alpha: float, beta: float, sigma: float,
                         drift) -> GeneratorCoefficients:
    """Generator of a reference with relative volatility sigma and the
    constant killing alpha*beta*(beta-1)*sigma^2/2."""
    s2 = sigma ** 2
    k = 0.5 * alpha * beta * (beta - 1.0) * s2
    return GeneratorCoefficients(lambda x: s2 * x * x, drift,
                                 lambda x: np.full_like(np.asarray(x, float), k), "positive")


@dataclass(frozen=True)
class Gbm(_Model):
    """Geometric Brownian motion: dX = mu X dt + sigma X dB."""

    kind: ClassVar[str] = "gbm"
    mu: float
    sigma: float

    bounds: ClassVar[tuple] = (
        ("sigma", "sigma != 0", lambda m: m.sigma != 0.0, _got("sigma")),)

    def generator(self, alpha, beta):
        mu = self.mu
        return _lognormal_generator(alpha, beta, self.sigma, lambda x: mu * x)

    def eigenpair(self, alpha, beta):
        lam = (-alpha * beta * self.mu
               + 0.5 * alpha * (1.0 - alpha) * beta ** 2 * self.sigma ** 2)
        return Eigenpair(lam=lam, phi=Power(alpha * beta), kappa=None)

    def derivative(self, alpha, beta, r):
        return alpha * (self.mu - r) - alpha * (1.0 - alpha) * self.sigma ** 2 * beta

    def optimum(self, alpha, r):
        if alpha < 1.0:
            return Optimum(
                vertex=(self.mu - r) / ((1.0 - alpha) * self.sigma ** 2),
                profile=ConcavityProfile(shape="quadratic",
                                         C1=-0.5 * alpha * (1.0 - alpha) * self.sigma ** 2,
                                         C2=alpha * (self.mu - r),
                                         const=alpha * r))
        # alpha = 1: rate is linear in beta with slope mu - r.
        return _monotone(self.mu - r, None, "objective constant in beta (alpha = 1, mu = r)",
                         "rate linear in beta at alpha = 1")


@dataclass(frozen=True)
class _GarchFamily(_Model):
    """GARCH and inverse GARCH: constant eigenfunction, and optimal leverage
    1/2 - r / sigma^2 independent of alpha."""

    theta: float
    a: float
    sigma: float

    def eigenpair(self, alpha, beta):
        lam = 0.5 * alpha * (beta * (beta - 1.0)) * self.sigma ** 2
        return Eigenpair(lam=lam, phi=Constant(), kappa=None)

    def derivative(self, alpha, beta, r):
        return -r * alpha - 0.5 * alpha * self.sigma ** 2 * (2.0 * beta - 1.0)

    def optimum(self, alpha, r):
        return Optimum(
            vertex=0.5 - r / self.sigma ** 2,
            profile=ConcavityProfile(shape="quadratic", C1=-0.5 * alpha * self.sigma ** 2,
                                     C2=-r * alpha + 0.5 * alpha * self.sigma ** 2,
                                     const=alpha * r))


@dataclass(frozen=True)
class Garch(_GarchFamily):
    """GARCH diffusion: dX = (theta - a X) dt + sigma X dB, all parameters > 0."""

    kind: ClassVar[str] = "garch"
    _finite_if: ClassVar[str] = "2a/sigma^2 + 1 > alpha*beta"

    bounds: ClassVar[tuple] = _positive("theta", "a", "sigma")

    def generator(self, alpha, beta):
        th, a = self.theta, self.a
        return _lognormal_generator(alpha, beta, self.sigma, lambda x: th - a * x)

    def finiteness(self, alpha, beta, pair):
        return _condition(self._finite_if, 2.0 * self.a / self.sigma ** 2 + 1.0,
                          alpha * beta)

    def edge(self, alpha):
        return (-alpha, 2.0 * self.a / self.sigma ** 2 + 1.0)


@dataclass(frozen=True)
class InverseGarch(_GarchFamily):
    """Inverse GARCH diffusion: dX = (theta - a X) X dt + sigma X dB.

    Requires a, sigma > 0 and theta > sigma**2 (so that 1/X is a GARCH
    diffusion with a positive reversion speed).
    """

    kind: ClassVar[str] = "inverse_garch"
    _finite_if: ClassVar[str] = "alpha*beta + 2*theta/sigma^2 > 1"

    bounds: ClassVar[tuple] = (
        *_positive("a", "sigma"),
        ("theta", "theta > sigma^2", lambda m: m.theta > m.sigma ** 2,
         lambda m: f"{m.theta} <= {m.sigma ** 2}"))

    def generator(self, alpha, beta):
        th, a = self.theta, self.a
        return _lognormal_generator(alpha, beta, self.sigma, lambda x: (th - a * x) * x)

    def finiteness(self, alpha, beta, pair):
        return _condition(self._finite_if, alpha * beta + 2.0 * self.theta / self.sigma ** 2,
                          1.0)

    def edge(self, alpha):
        return (alpha, 2.0 * self.theta / self.sigma ** 2 - 1.0)


@dataclass(frozen=True)
class ExtendedCir(_Model):
    """Extended CIR: dX = (theta + mu X) dt + sigma sqrt(X) dB.

    Transient (drifts to +infinity) for mu > 0.  Requires mu, sigma > 0 and
    theta >= sigma**2, which also keeps 0 unattainable.
    """

    kind: ClassVar[str] = "extended_cir"
    theta: float
    mu: float
    sigma: float

    bounds: ClassVar[tuple] = (
        *_positive("mu", "sigma"),
        ("theta", "theta >= sigma^2", lambda m: m.theta >= m.sigma ** 2,
         lambda m: f"{m.theta} < {m.sigma ** 2}"))

    def generator(self, alpha, beta):
        s2, th, mu = self.sigma ** 2, self.theta, self.mu
        kc = 0.5 * alpha * beta * (beta - 1.0) * s2
        return GeneratorCoefficients(
            variance=lambda x: s2 * x,
            drift=lambda x: th + mu * x,
            killing=lambda x: kc / np.asarray(x, float),
            domain=self.domain)

    def eigenpair(self, alpha, beta):
        half_less = 0.5 - self.theta / self.sigma ** 2
        # half_less <= -1/2, so compute sqrt(...) + half_less stably.
        kappa = _stable_root_minus(-half_less, alpha * (beta * (beta - 1.0)),
                                   "extended CIR exponent")
        lam = self.mu * kappa + 2.0 * self.theta * self.mu / self.sigma ** 2
        return Eigenpair(lam=lam,
                         phi=ExpLinearPower(c=2.0 * self.mu / self.sigma ** 2, p=kappa),
                         kappa=kappa)

    def growth(self, alpha, beta, r):
        # The transformed-measure moment itself grows exponentially; its
        # rate is an extra component.
        pair = self.eigenpair(alpha, beta)
        lhs = alpha * beta + 2.0 * self.theta / self.sigma ** 2 + pair.kappa
        terms = self.drift_terms(alpha, beta, r)
        terms["eigenvalue_term"] = -pair.lam
        terms["moment_growth_term"] = lhs * self.mu
        return _condition("alpha*beta + 2*theta/sigma^2 + kappa > 0", lhs, 0.0), terms

    def derivative(self, alpha, beta, r):
        return alpha * (self.mu - r)

    def optimum(self, alpha, r):
        slope = alpha * (self.mu - r)
        return _monotone(slope, ConcavityProfile(shape="linear", D=slope),
                         "rate constant in beta (mu = r)",
                         "rate affine in beta; a boundary leverage is preferred")


@dataclass(frozen=True)
class ThreeHalves(_Model):
    """3/2 model: dX = (theta - a X) X dt + sigma X**(3/2) dB, parameters > 0."""

    kind: ClassVar[str] = "three_halves"
    theta: float
    a: float
    sigma: float

    bounds: ClassVar[tuple] = _positive("theta", "a", "sigma")

    def generator(self, alpha, beta):
        s2, th, a = self.sigma ** 2, self.theta, self.a
        return self._linear_killing(0.5 * alpha * beta * (beta - 1.0) * s2,
                                    lambda x: s2 * x ** 3, lambda x: (th - a * x) * x)

    def eigenpair(self, alpha, beta):
        half_plus = 0.5 + self.a / self.sigma ** 2
        kappa = _stable_root_minus(half_plus, alpha * (beta * (beta - 1.0)), "3/2 exponent")
        return Eigenpair(lam=self.theta * kappa, phi=Power(-kappa), kappa=kappa)

    def finiteness(self, alpha, beta, pair):
        lhs = 2.0 * self.a / self.sigma ** 2 + pair.kappa - alpha * beta + 2.0
        return _condition("2*a/sigma^2 + kappa - alpha*beta + 2 > 0", lhs, 0.0)

    def derivative(self, alpha, beta, r):
        half_plus = 0.5 + self.a / self.sigma ** 2
        root = math.sqrt(half_plus ** 2 + alpha * beta * (beta - 1.0))
        return -r * alpha - self.theta * alpha * (2.0 * beta - 1.0) / (2.0 * root)

    def optimum(self, alpha, r):
        ratio = self.theta ** 2 / r ** 2
        if alpha >= ratio:
            return Optimum(side="-", note="rate decreasing in beta (alpha >= theta^2/r^2)")
        half_plus_sq = (1.0 + 2.0 * self.a / self.sigma ** 2) ** 2
        return Optimum(vertex=0.5 - 0.5 * math.sqrt((half_plus_sq - alpha) / (ratio - alpha)))


@dataclass(frozen=True)
class _StochasticVolatility(_Model):
    """Heston and 3/2 volatility.  The state is the variance after a tilt
    has absorbed the reference Brownian, shifting its reversion speed to
    a - alpha*beta*delta*rho.  The rescaled rate D beta - sqrt(C1 beta^2 +
    2 C2 beta + C3) is strictly concave; interior optimum iff C1 > D^2.
    """

    mu: float
    theta: float
    a: float
    delta: float
    rho: float
    v0: float

    def _tilted_speed(self, alpha, beta):
        return self.a - alpha * beta * self.delta * self.rho

    def _generator(self, alpha, beta, variance, drift):
        return self._linear_killing(0.5 * alpha * (1.0 - alpha) * beta * beta, variance, drift)

    def drift_terms(self, alpha, beta, r):
        terms = _Model.drift_terms(self, alpha, beta, r)
        terms["reference_drift_term"] = alpha * beta * self.mu
        return terms

    def derivative(self, alpha, beta, r):
        prof = self.profile(alpha, r)
        q = prof.C1 * beta * beta + 2.0 * prof.C2 * beta + prof.C3
        shifted = prof.D - (prof.C1 * beta + prof.C2) / math.sqrt(q)
        return (self.theta / self.delta ** 2) * shifted

    def optimum(self, alpha, r):
        prof = self.profile(alpha, r)
        c1, c2, c3, dd = prof.C1, prof.C2, prof.C3, prof.D
        if c1 > dd * dd:
            # c1*c3 - c2^2 = alpha*(1 - alpha)*delta^2*C3 >= 0.  At alpha = 1
            # it vanishes and the vertex is the kink -c2/c1 of the root; off
            # it, rounding must not take the square root below zero.
            spread = (0.0 if alpha == 1.0
                      else math.sqrt(max(0.0, c1 * c3 - c2 * c2) / (c1 - dd * dd)))
            return Optimum(vertex=-c2 / c1 + (dd / c1) * spread, profile=prof)
        return _monotone(dd, prof, "degenerate flat objective (C1 <= D^2 with D = 0)",
                         "no interior critical point (C1 <= D^2); rate monotone in beta")


@dataclass(frozen=True)
class HestonSV(_StochasticVolatility):
    """Heston stochastic volatility.

    dX = mu X dt + sqrt(v) X dB,  dv = (theta - a v) dt + delta sqrt(v) dZ,
    corr(B, Z) = rho.  Requires mu, theta, a, delta > 0, rho in [-1, 1],
    v0 > 0, and the Feller condition 2 theta > delta**2.
    """

    kind: ClassVar[str] = "heston_sv"
    _finite_if: ClassVar[str] = (
        "exp-moment convergence: sqrt(...) + (a - alpha*beta*delta*rho) > 0")

    bounds: ClassVar[tuple] = (
        *_positive("mu", "theta", "a", "delta", "v0"), _RHO_BOUND,
        ("delta", "2*theta > delta^2", lambda m: 2.0 * m.theta > m.delta ** 2,
         lambda m: f"{2.0 * m.theta} <= {m.delta ** 2}"))

    def generator(self, alpha, beta):
        d2, th = self.delta ** 2, self.theta
        a_t = self._tilted_speed(alpha, beta)
        return self._generator(alpha, beta, lambda v: d2 * v, lambda v: th - a_t * v)

    def eigenpair(self, alpha, beta):
        q = alpha * (1.0 - alpha) * beta ** 2 * self.delta ** 2
        kappa = (_stable_root_minus(self._tilted_speed(alpha, beta), q, "Heston exponent")
                 / self.delta ** 2)
        return Eigenpair(lam=self.theta * kappa, phi=ExpLinear(kappa), kappa=kappa)

    def finiteness(self, alpha, beta, pair):
        # Convergence of the exp-moment of the transformed variance process:
        # sqrt((a - ab*d*r)^2 + a(1-a)b^2 d^2) + (a - ab*d*r) > 0.  Holds
        # everywhere except the degenerate alpha = 1 corner with
        # a <= beta*delta*rho.
        a_t = self._tilted_speed(alpha, beta)
        root = math.sqrt(a_t ** 2 + alpha * (1.0 - alpha) * beta ** 2 * self.delta ** 2)
        return _condition(self._finite_if, root + a_t, 0.0)

    def edge(self, alpha):
        # At alpha = 1 the root is |a - beta*delta*rho|, so the condition is
        # a - beta*delta*rho > 0 (the whole line when rho = 0).
        return None if alpha < 1.0 else (-(self.delta * self.rho), self.a)

    def profile(self, alpha, r):
        c1 = alpha * (1.0 - alpha) * self.delta ** 2 + (alpha * self.delta * self.rho) ** 2
        c2 = -self.a * alpha * self.delta * self.rho
        c3 = self.a ** 2
        dd = alpha * self.delta ** 2 * (self.mu - r) / self.theta - alpha * self.delta * self.rho
        return ConcavityProfile(shape="strictly_concave_sqrt", C1=c1, C2=c2, C3=c3, D=dd)


@dataclass(frozen=True)
class ThreeHalvesSV(_StochasticVolatility):
    """3/2 stochastic volatility: dv = (theta - a v) v dt + delta v**(3/2) dZ."""

    kind: ClassVar[str] = "three_halves_sv"

    bounds: ClassVar[tuple] = (*_positive("theta", "a", "delta", "v0"), _RHO_BOUND)

    def generator(self, alpha, beta):
        d2, th = self.delta ** 2, self.theta
        a_t = self._tilted_speed(alpha, beta)
        return self._generator(alpha, beta, lambda v: d2 * v ** 3,
                               lambda v: (th - a_t * v) * v)

    def eigenpair(self, alpha, beta):
        shifted = self._tilted_speed(alpha, beta) + 0.5 * self.delta ** 2
        q = alpha * (1.0 - alpha) * beta ** 2 * self.delta ** 2
        kappa = _stable_root_minus(shifted, q, "3/2 volatility exponent") / self.delta ** 2
        return Eigenpair(lam=self.theta * kappa, phi=Power(-kappa), kappa=kappa)

    def finiteness(self, alpha, beta, pair):
        shifted = self._tilted_speed(alpha, beta) + 0.5 * self.delta ** 2
        root = math.sqrt(shifted ** 2 + alpha * (1.0 - alpha) * beta ** 2 * self.delta ** 2)
        return _condition(
            "(sqrt(...) + (a - alpha*beta*delta*rho + delta^2/2))/delta^2 + 1 > 0",
            (root + shifted) / self.delta ** 2 + 1.0, 0.0)

    def profile(self, alpha, r):
        shift = self.a + 0.5 * self.delta ** 2
        c1 = alpha * (1.0 - alpha) * self.delta ** 2 + (alpha * self.delta * self.rho) ** 2
        c2 = -alpha * self.delta * self.rho * shift
        c3 = shift ** 2
        dd = ((self.mu - r) * self.delta / self.theta - self.rho) * alpha * self.delta
        return ConcavityProfile(shape="strictly_concave_sqrt", C1=c1, C2=c2, C3=c3, D=dd)


@dataclass(frozen=True)
class _StochasticRate(_Model):
    """GBM reference with its own short rate r as the eigenfunction's state.
    The tilt that absorbs the reference Brownian shifts the rate's level to
    theta + alpha*beta*delta*sigma*rho; the killing is alpha*(beta-1)*r.
    The optimizer maximizes the published quadratic curve (:meth:`display`).
    """

    stochastic_rate: ClassVar[bool] = True
    mu: float
    sigma: float
    theta: float
    a: float
    delta: float
    rho: float
    r0: float

    def _tilted_level(self, alpha, beta):
        return self.theta + alpha * beta * self.delta * self.sigma * self.rho

    def _generator(self, alpha, beta, variance, drift):
        return self._linear_killing(alpha * (beta - 1.0), variance, drift)

    def drift_terms(self, alpha, beta, r):
        return {
            "reference_drift_term": alpha * beta * self.mu,
            "volatility_drag_term": -0.5 * alpha * (1.0 - alpha) * beta ** 2 * self.sigma ** 2,
        }

    def display(self, alpha, beta):
        """Published-curve value at beta (see ``growth.display_growth_value``)."""
        th_t = self._tilted_level(alpha, beta)
        return (alpha * beta * self.mu
                - 0.5 * alpha * (1.0 - alpha) * beta ** 2 * self.sigma ** 2
                + 0.5 * (alpha * self.delta * (1.0 - beta) / self.a) ** 2
                - alpha * (1.0 - beta) * th_t / self.a)

    def profile(self, alpha):
        """The published curve as C1 b^2 + C2 b + const."""
        a, th, de, sg, rho, mu = self.a, self.theta, self.delta, self.sigma, self.rho, self.mu
        c1 = (-0.5 * alpha * (1.0 - alpha) * sg ** 2
              + (alpha * de) ** 2 / (2.0 * a ** 2)
              + alpha ** 2 * de * sg * rho / a)
        c2 = (alpha * mu
              - (alpha * de) ** 2 / a ** 2
              + alpha * th / a
              - alpha ** 2 * de * sg * rho / a)
        const = (alpha * de) ** 2 / (2.0 * a ** 2) - alpha * th / a
        return ConcavityProfile(shape="quadratic", C1=c1, C2=c2, const=const)

    def derivative(self, alpha, beta, r):
        prof = self.profile(alpha)
        return 2.0 * prof.C1 * beta + prof.C2

    def optimum(self, alpha, r):
        prof = self.profile(alpha)
        c1, c2 = prof.C1, prof.C2
        if c1 < 0.0:
            return Optimum(vertex=-c2 / (2.0 * c1), method="quadratic_vertex", profile=prof)
        if c1 == 0.0:
            return _monotone(c2, prof, "reference curve constant in beta",
                             "reference curve linear in beta (C1 = 0)", "quadratic_vertex")
        # Convex parabola: favored direction is away from the vertex.
        return Optimum(side="+" if c2 / (2.0 * c1) > 0.0 else "-", profile=prof,
                       note="reference curve convex in beta (C1 > 0)")


@dataclass(frozen=True)
class GbmVasicek(_StochasticRate):
    """GBM reference with a Vasicek (Gaussian OU) short rate.

    dX = mu X dt + sigma X dB,  dr = (theta - a r) dt + delta dZ,
    corr(B, Z) = rho.  The initial rate r0 does not enter the long-term
    growth rate; it matters only for finite-horizon simulation.
    """

    kind: ClassVar[str] = "gbm_vasicek"
    domain: ClassVar[str] = "real"

    bounds: ClassVar[tuple] = (*_positive("sigma", "theta", "a", "delta"), _RHO_BOUND)

    def generator(self, alpha, beta):
        d2, a = self.delta ** 2, self.a
        th_t = self._tilted_level(alpha, beta)
        return self._generator(alpha, beta,
                               lambda r: np.full_like(np.asarray(r, float), d2),
                               lambda r: th_t - a * r)

    def eigenpair(self, alpha, beta):
        # phi(r) = exp(s r); the killing term forces s = alpha (1-beta)/a,
        # then lambda = -delta^2 s^2/2 - (theta + alpha beta delta sigma rho) s,
        # i.e. the rate-level term enters with a minus sign, unlike the
        # published curve.  The residual certificate and the Monte Carlo
        # oracle both confirm this branch.
        s = alpha * (1.0 - beta) / self.a
        lam = -0.5 * self.delta ** 2 * s * s - self._tilted_level(alpha, beta) * s
        return Eigenpair(lam=lam, phi=ExpLinear(-s), kappa=None)


@dataclass(frozen=True)
class GbmInverseGarchRate(_StochasticRate):
    """GBM reference with an inverse-GARCH short rate.

    dX = mu X dt + sigma X dB,  dr = (theta - a r) r dt + delta r dZ,
    corr(B, Z) = rho.  Requires mu, a, delta > 0 and theta > delta**2.
    """

    kind: ClassVar[str] = "gbm_inverse_garch_rate"
    _finite_if: ClassVar[str] = (
        "alpha*(1-beta)/a + (2/delta^2)*(theta + alpha*beta*delta*sigma*rho) > 1")

    bounds: ClassVar[tuple] = (
        *_positive("mu", "a", "delta", "sigma"),
        ("theta", "theta > delta^2", lambda m: m.theta > m.delta ** 2,
         lambda m: f"{m.theta} <= {m.delta ** 2}"),
        *_positive("r0"), _RHO_BOUND)

    def generator(self, alpha, beta):
        d2, a = self.delta ** 2, self.a
        th_t = self._tilted_level(alpha, beta)
        return self._generator(alpha, beta, lambda r: d2 * r * r,
                               lambda r: (th_t - a * r) * r)

    def eigenpair(self, alpha, beta):
        # phi(r) = r**e with e = alpha (1-beta)/a = -kappa.
        e = alpha * (1.0 - beta) / self.a
        lam = (-0.5 * self.delta ** 2 * e * (e - 1.0)
               - self._tilted_level(alpha, beta) * e)
        return Eigenpair(lam=lam, phi=Power(e), kappa=-e)

    def finiteness(self, alpha, beta, pair):
        lhs = (alpha * (1.0 - beta) / self.a
               + (2.0 / self.delta ** 2) * self._tilted_level(alpha, beta))
        return _condition(self._finite_if, lhs, 1.0)

    def edge(self, alpha):
        # The condition is linear in beta: s*beta + c0 > 1.
        s = -alpha / self.a + 2.0 * alpha * self.sigma * self.rho / self.delta
        return (s, alpha / self.a + 2.0 * self.theta / self.delta ** 2 - 1.0)


@dataclass(frozen=True, eq=False)
class Quadratic(_Model):
    """Quadratic model X = exp(|Y|^2) for a d-dimensional OU state Y.

    dY = (b + B Y) dt + sigma dW with Y_0 = 0; sigma must be non-singular so
    that a = sigma sigma^T is strictly positive definite.  Its eigenpair
    and growth rate come from the stabilizing Riccati solution, and its
    leverage derivative from that solution's sensitivity in beta; it has no
    closed-form optimum, so the optimizer searches for a root of the
    derivative.
    """

    kind: ClassVar[str] = "quadratic"
    domain: ClassVar[str] = "real"
    optimum: ClassVar[None] = None
    b: np.ndarray
    Bmat: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "b", np.atleast_1d(np.asarray(self.b, dtype=float)))
        object.__setattr__(self, "Bmat", np.atleast_2d(np.asarray(self.Bmat, dtype=float)))
        object.__setattr__(self, "sigma", np.atleast_2d(np.asarray(self.sigma, dtype=float)))

    @property
    def d(self) -> int:
        return self.b.shape[0]

    @property
    def a(self) -> np.ndarray:
        """Diffusion matrix a = sigma sigma^T."""
        return self.sigma @ self.sigma.T

    def check(self, relax: bool, warnings: list[str]) -> None:
        d = self.d
        if self.b.ndim != 1 or self.Bmat.shape != (d, d) or self.sigma.shape != (d, d):
            shape = "b a vector, Bmat and sigma d x d"
            raise ParameterViolation("b/Bmat/sigma", shape, f"{shape} fails: b has shape "
                                     f"{self.b.shape}, Bmat {self.Bmat.shape}, "
                                     f"sigma {self.sigma.shape}")
        eig_min = float(np.linalg.eigvalsh(self.a).min())
        if not eig_min > 0.0:
            _violated("sigma", "sigma*sigma^T strictly positive definite",
                      f"min eigenvalue {eig_min}", relax, warnings)

    def __eq__(self, other):
        if not isinstance(other, Quadratic):
            return NotImplemented
        return (np.array_equal(self.b, other.b)
                and np.array_equal(self.Bmat, other.Bmat)
                and np.array_equal(self.sigma, other.sigma))

    @staticmethod
    def killing_coeff(alpha, beta):
        """q of the killing rate q y^T a y, dq/dbeta (elementwise in beta) and d^2q/dbeta^2."""
        return 2.0 * alpha * beta * (beta - 1.0), 2.0 * alpha * (2.0 * beta - 1.0), 4.0 * alpha

    def generator(self, alpha, beta):
        """L f = tr(a Hess f)/2 + (b + B y) . grad f - q y^T a y f on R^d."""
        a, b, Bmat, q = self.a, self.b, self.Bmat, self.killing_coeff(alpha, beta)[0]
        return GeneratorCoefficients(
            variance=lambda y: a, drift=lambda y: b + y @ Bmat.T,
            killing=lambda y: q * np.einsum("ni,ij,nj->n", y, a, y), domain=self.domain)

    def eigenpair(self, alpha, beta):
        sol = solve_quadratic_model(self, alpha, beta)
        return Eigenpair(lam=sol.lam, phi=ExpQuadratic(sol.u, sol.V), kappa=None)

    def _components(self, alpha, r, chain):
        """The named rate components at the solved betas of a chain, as arrays."""
        terms = self.drift_terms(alpha, chain.betas[chain.batch.idx], r)
        terms.update(half_uau=0.5 * chain.uau, trace_aV=-chain.tr_av, u_b=-chain.ub)
        return terms

    def _growth_terms(self, alpha, r, chain):
        """(condition, components) at each beta of a solved Riccati chain, or
        the library error the chain met there."""
        comps = self._components(alpha, r, chain)
        rows = zip(chain.e_prec[:, -1].tolist(), *(v.tolist() for v in comps.values()))
        for exc in chain.batch.errors:
            if exc is not None:
                yield exc
                continue
            max_eig, *values = next(rows)
            yield _condition("all eigenvalues of V + alpha*beta*I - inv(Sigma_inf)/2 negative "
                             "(lhs = -max eigenvalue)", -max_eig, 0.0), dict(zip(comps, values))

    def growth(self, alpha, beta, r):
        """Condition and components from the Riccati chain solved at beta."""
        (terms,) = self._growth_terms(alpha, r, *_solve_chains(self, alpha, [beta]))
        if isinstance(terms, LetfGrowthError):
            raise terms
        return terms

    def rates(self, alpha, r, betas):
        """The growth rate at each beta of a grid from the rate stage of the
        Riccati chain alone, unclassified: ``curve``'s rate, bit for bit,
        wherever that is finite; -inf where the rate stage fails."""
        betas = np.asarray(betas, dtype=float)
        out, moved = np.where(betas == 0.0, alpha * r, -math.inf), np.flatnonzero(betas)
        start = 0
        for chain in _solve_chains(self, alpha, betas[moved], stationary=False):
            out[moved[start + chain.batch.idx]] = sum(self._components(alpha, r, chain).values())
            start += len(chain.betas)
        return out.tolist()

    def rate_and_slope(self, alpha, betas, r):
        """(rate, slope, curvature) at each beta: the growth rate and its first
        two beta-derivatives from one Riccati chain per chunk, or
        (-inf, nan, nan) where growth is infinite or the chain fails."""
        out, nan = [], (-math.inf, math.nan, math.nan)
        for chain in _solve_chains(self, alpha, betas):
            dlam, d2lam, errors = _eigenvalue_slope_stack(
                chain.V, chain.F, chain.u, self.a, self.Bmat, self.b,
                *self.killing_coeff(alpha, chain.betas[chain.batch.idx])[1:])
            rows = zip(dlam.tolist(), d2lam.tolist(), errors)
            for terms in self._growth_terms(alpha, r, chain):
                dl, d2l, exc = (0, 0, terms) if isinstance(terms, LetfGrowthError) else next(rows)
                g = None if exc else _classified(*terms)
                out.append((g.rate, -r * alpha - dl, -d2l) if g and g.is_finite else nan)
        return out

    def derivative(self, alpha, beta, r):
        """The slope of ``rate_and_slope`` at one beta, nan where it is not finite."""
        return self.rate_and_slope(alpha, [beta], r)[0][1]

    def curve(self, alpha, r, betas):
        # One batched Riccati chain for the grid; beta = 0 keeps the
        # money-market short-circuit of growth_rate.
        moved = betas != 0.0
        solved = (terms for chain in _solve_chains(self, alpha, betas[moved])
                  for terms in self._growth_terms(alpha, r, chain))
        for b, solve in zip(betas.tolist(), moved):
            if not solve:
                yield self.growth_rate(alpha, b, r)
                continue
            terms = next(solved)
            yield terms if isinstance(terms, LetfGrowthError) else _classified(*terms)

    def grid(self):
        """A lattice over [-5, 5]^d with about GRID_POINTS points in total."""
        per_axis = max(2, int(round(GRID_POINTS ** (1.0 / self.d))))
        axes = [np.linspace(-5.0, 5.0, per_axis)] * self.d
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in mesh], axis=-1)


ModelSpec = Union[
    Gbm, Garch, InverseGarch, ExtendedCir, ThreeHalves,
    HestonSV, ThreeHalvesSV, GbmVasicek, GbmInverseGarchRate, Quadratic,
]

MODEL_KINDS: dict[str, type] = {cls.kind: cls for cls in ModelSpec.__args__}


# ---------------------------------------------------------------------------
# Problem assembly and validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Problem:
    """A fully specified growth-rate problem.

    ``rate`` must be present exactly when the model does not carry its own
    stochastic short rate.
    """

    model: ModelSpec
    pref: Preference
    leverage: Leverage
    rate: ConstantRate | None = None


@dataclass(frozen=True)
class ValidatedProblem:
    """A problem certified against every variant invariant.

    All downstream modules require this wrapper; construct it with
    :func:`validate`.  Instances are immutable and safe to share across
    threads.
    """

    problem: Problem
    relaxed: bool = False
    warnings: tuple[str, ...] = ()

    @property
    def model(self) -> ModelSpec:
        return self.problem.model

    @property
    def alpha(self) -> float:
        return self.problem.pref.alpha

    @property
    def beta(self) -> float:
        return self.problem.leverage.beta

    @property
    def r(self) -> float | None:
        return None if self.problem.rate is None else self.problem.rate.r

    def with_beta(self, beta: float) -> "ValidatedProblem":
        """Same certified problem at a different leverage ratio.

        Leverage carries no parameter bound of its own, so revalidation is
        not needed.
        """
        p = Problem(self.problem.model, self.problem.pref, Leverage(float(beta)),
                    self.problem.rate)
        return ValidatedProblem(p, self.relaxed, self.warnings)


def validate(problem: Problem | ValidatedProblem, relax: bool = False) -> ValidatedProblem:
    """Certify a problem against every variant invariant.

    Parameters
    ----------
    problem : Problem or ValidatedProblem
        Passing an already validated problem is a no-op (validation is
        idempotent).
    relax : bool
        Downgrade parameter-bound violations to warnings.  Structural errors
        (missing/extraneous rate, shape mismatches) and non-finite
        parameters still raise.

    Raises
    ------
    ParameterViolation, MissingRate, ExtraneousRate
    """
    if isinstance(problem, ValidatedProblem):
        if relax and not problem.relaxed:
            return validate(problem.problem, relax=True)
        return problem

    model = problem.model
    if model.stochastic_rate:
        if problem.rate is not None:
            raise ExtraneousRate(
                f"model {model.kind!r} carries its own short rate; drop 'r'")
    else:
        if problem.rate is None:
            raise MissingRate(f"model {model.kind!r} needs a constant short rate 'r'")

    params = {f.name: getattr(model, f.name) for f in fields(model)}
    if problem.rate is not None:
        params["r"] = problem.rate.r
    for name, value in params.items():
        # Only the quadratic model has arrays; math.isfinite keeps the rest cheap.
        finite = (np.isfinite(value).all() if isinstance(value, np.ndarray)
                  else math.isfinite(value))
        if not finite:
            raise ParameterViolation(name, "finite", f"{name} must be finite, got {value}")
    warnings: list[str] = []
    model.check(relax, warnings)
    if problem.rate is not None:
        _check(problem.rate, relax, warnings)
    return ValidatedProblem(problem, relaxed=relax, warnings=tuple(warnings))


# ---------------------------------------------------------------------------
# JSON configuration
# ---------------------------------------------------------------------------

_TOP_LEVEL_KEYS = {"model", "alpha", "beta", "r"}


def _numeric(value, key: str, array: bool = False):
    """value as a float (a float array when ``array``), or a ConfigError
    naming the key: JSON strings and booleans are not numbers."""
    items = np.asarray(value, dtype=object).ravel() if array else (value,)
    if all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in items):
        try:
            return np.asarray(value, dtype=float) if array else float(value)
        except OverflowError:  # an integer past the float range
            pass
    raise ConfigError(f"{key!r} must be numeric, got {value!r}")


def _model_from_config(obj: dict) -> ModelSpec:
    if not isinstance(obj, dict):
        raise ConfigError("'model' must be an object")
    if "kind" not in obj:
        raise ConfigError("'model' needs a 'kind' field")
    kind = obj["kind"]
    cls = MODEL_KINDS.get(kind)
    if cls is None:
        raise ConfigError(
            f"unknown model kind {kind!r}; expected one of {sorted(MODEL_KINDS)}")
    field_names = [f.name for f in fields(cls)]
    allowed = set(field_names) | {"kind"}
    if cls is Quadratic:
        allowed.add("d")  # optional, cross-checked below
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in model config: {sorted(unknown)}")
    missing = [n for n in field_names if n not in obj]
    if missing:
        raise ConfigError(f"model {kind!r} is missing fields: {missing}")
    if cls is Quadratic:
        model = Quadratic(**{n: _numeric(obj[n], n, array=True) for n in field_names})
        if "d" in obj and _numeric(obj["d"], "d") != model.d:
            raise ConfigError(
                f"declared d={obj['d']} but b has length {model.d}")
        return model
    return cls(**{n: _numeric(obj[n], n) for n in field_names})


def load_problem(source: dict | str | Path, relax: bool = False) -> ValidatedProblem:
    """Build and validate a problem from a JSON document or parsed dict.

    The document has one top-level object::

        {"model": {"kind": "<kind>", ...params}, "alpha": a, "beta": b, "r": r}

    ``r`` is required for constant-rate models and forbidden for the
    stochastic-rate variants.  Unknown keys, non-numeric values and
    non-finite parameters are errors.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
                raise ConfigError(f"{source}: not a JSON document ({exc})") from exc
    else:
        doc = source
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object")
    unknown = set(doc) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    for key in ("model", "alpha", "beta"):
        if key not in doc:
            raise ConfigError(f"missing required key {key!r}")
    model = _model_from_config(doc["model"])
    pref = Preference(_numeric(doc["alpha"], "alpha"))
    lev = Leverage(_numeric(doc["beta"], "beta"))
    rate = ConstantRate(_numeric(doc["r"], "r")) if "r" in doc else None
    return validate(Problem(model, pref, lev, rate), relax=relax)


def problem_to_config(vp: ValidatedProblem) -> dict:
    """Inverse of :func:`load_problem`, for manifests and round-trips."""
    model = vp.model
    mdoc = {"kind": model.kind}
    for f in fields(model):
        v = getattr(model, f.name)
        mdoc[f.name] = v.tolist() if isinstance(v, np.ndarray) else v
    doc = {"model": mdoc, "alpha": vp.alpha, "beta": vp.beta}
    if vp.r is not None:
        doc["r"] = vp.r
    return doc
