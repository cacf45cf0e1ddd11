"""Eigenpairs of each model's generator-with-killing, plus residual certificates.

For a diffusion state G with generator L and a killing rate k, the pair
(lambda, phi) with L phi = -lambda phi and phi > 0 turns the path-dependent
expectation E[exp(-int k(G_s) ds) f(G_t)] into a marginal one under a
drift-shifted measure, at the cost of the factor exp(-lambda t).  Every model
in the catalog admits a closed-form pair in one of five parametric families;
this module produces the pair and certifies it numerically by evaluating the
generator residual with exact derivatives of the family.  That residual
cannot tell the admissible exponent root from the other one; the test suite
checks every eigenvalue but gbm's independently against the top of the
spectrum of the model's discretised generator.

The state G and the measure under which its generator is taken vary by
variant (the reference itself, the variance or rate driver after an
exponential tilt has absorbed the reference Brownian, or the quadratic
model's OU state in R^d).  Each model class in ``models`` states its own
generator coefficients, eigenpair and default grid, and each eigenfunction
family turns generator coefficients into L phi / phi; the residual here
only combines the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Callable, NamedTuple, Union

import numpy as np

from .errors import ComplexKappa, GridOutsideDomain

if TYPE_CHECKING:
    from .models import ValidatedProblem

__all__ = [
    "Constant",
    "Power",
    "ExpLinear",
    "ExpLinearPower",
    "ExpQuadratic",
    "EigenFunction",
    "Eigenpair",
    "GeneratorResidual",
    "GeneratorCoefficients",
    "eigenpair",
    "generator_residual",
    "default_grid",
]

RESIDUAL_EPS = 1e-300


# ---------------------------------------------------------------------------
# Generator coefficients and eigenfunction families (exact log-values,
# derivative ratios and L phi / phi)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorCoefficients:
    """Generator L f = tr(variance Hess f)/2 + drift . grad f - killing f.

    Each coefficient is a function of the grid.  On a scalar state (grid of
    shape (n,)) each returns an (n,) array, and ``domain`` ("positive" or
    "real") is checked against the grid.  On the quadratic model's state in
    R^d (grid of shape (n, d)) drift returns (n, d), killing (n,), and
    variance the constant matrix a = sigma sigma^T.
    """

    variance: Callable[[np.ndarray], np.ndarray]
    drift: Callable[[np.ndarray], np.ndarray]
    killing: Callable[[np.ndarray], np.ndarray]
    domain: str


def _grid(points, ndim: int) -> np.ndarray:
    """The grid as a float array with ``ndim`` axes, nonempty and finite."""
    x = np.asarray(points, dtype=float)
    x = np.atleast_2d(x) if ndim == 2 else x
    if x.ndim != ndim or x.size == 0 or not np.isfinite(x).all():
        raise GridOutsideDomain(
            f"grid must be a nonempty finite {ndim}-axis array, got shape {x.shape}")
    return x


class _ScalarFamily:
    """L phi / phi and ``describe`` for the families on a scalar state."""

    def generator_ratio(self, gen: GeneratorCoefficients, x) -> np.ndarray:
        """L phi / phi on the grid, through the derivative ratios."""
        x = _grid(x, 1)
        if gen.domain == "positive" and np.any(x <= 0.0):
            raise GridOutsideDomain("grid contains non-positive points for a positive-state model")
        return (0.5 * gen.variance(x) * self.d2_ratio(x) + gen.drift(x) * self.d1_ratio(x)
                - gen.killing(x))

    def describe(self) -> str:
        params = ", ".join(f"{f.name}={getattr(self, f.name):.12g}" for f in fields(self))
        return f"{self.name}({params})" if params else self.name


@dataclass(frozen=True)
class Constant(_ScalarFamily):
    """phi(x) = 1: its log and both derivative ratios vanish."""

    name = "constant"

    def log_phi(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    d1_ratio = d2_ratio = log_phi


@dataclass(frozen=True)
class Power(_ScalarFamily):
    """phi(x) = x**p on x > 0."""

    p: float
    name = "power"

    def log_phi(self, x):
        return self.p * np.log(x)

    def d1_ratio(self, x):
        return self.p / np.asarray(x, dtype=float)

    def d2_ratio(self, x):
        x = np.asarray(x, dtype=float)
        return self.p * (self.p - 1.0) / (x * x)


@dataclass(frozen=True)
class ExpLinear(_ScalarFamily):
    """phi(x) = exp(-c x).  Negative c gives a growing exponential."""

    c: float
    name = "exp_linear"

    def log_phi(self, x):
        return -self.c * np.asarray(x, dtype=float)

    def d1_ratio(self, x):
        return np.full_like(np.asarray(x, dtype=float), -self.c)

    def d2_ratio(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.c * self.c)


@dataclass(frozen=True)
class ExpLinearPower(_ScalarFamily):
    """phi(x) = exp(-c x) * x**p on x > 0."""

    c: float
    p: float
    name = "exp_linear_power"

    def log_phi(self, x):
        x = np.asarray(x, dtype=float)
        return -self.c * x + self.p * np.log(x)

    def d1_ratio(self, x):
        return self.p / np.asarray(x, dtype=float) - self.c

    def d2_ratio(self, x):
        x = np.asarray(x, dtype=float)
        g = self.p / x - self.c
        return g * g - self.p / (x * x)


@dataclass(frozen=True, eq=False)
class ExpQuadratic:
    """phi(y) = exp(-u^T y - y^T V y) on R^d, V symmetric."""

    u: np.ndarray
    V: np.ndarray
    name = "exp_quadratic"

    def __post_init__(self):
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        V = np.asarray(self.V, dtype=float)
        if np.max(np.abs(V - V.T)) > 1e-12 * max(1.0, float(np.max(np.abs(V)))):
            raise ValueError("V must be symmetric")
        object.__setattr__(self, "V", 0.5 * (V + V.T))

    def log_phi(self, y):
        y = np.atleast_2d(np.asarray(y, dtype=float))
        return -(y @ self.u) - np.einsum("ni,ij,nj->n", y, self.V, y)

    def grad_ratio(self, y):
        """grad phi / phi = -(u + 2 V y), shape (n, d)."""
        y = np.atleast_2d(np.asarray(y, dtype=float))
        return -(self.u[None, :] + 2.0 * y @ self.V)

    def hess_ratio(self, y):
        """Hess phi / phi = g g^T - 2V with g = u + 2 V y, shape (n, d, d)."""
        y = np.atleast_2d(np.asarray(y, dtype=float))
        g = self.u[None, :] + 2.0 * y @ self.V
        return np.einsum("ni,nj->nij", g, g) - 2.0 * self.V[None, :, :]

    def generator_ratio(self, gen: GeneratorCoefficients, y) -> np.ndarray:
        """L phi / phi on the (n, d) grid, through the gradient and Hessian ratios."""
        y = _grid(y, 2)
        if y.shape[1] != self.u.shape[0]:
            raise GridOutsideDomain(f"grid dimension {y.shape[1]} != d={self.u.shape[0]}")
        return (np.einsum("ni,ni->n", self.grad_ratio(y), gen.drift(y))
                + 0.5 * np.einsum("nij,ij->n", self.hess_ratio(y), gen.variance(y))
                - gen.killing(y))

    def describe(self) -> str:
        return f"exp_quadratic(d={self.u.shape[0]})"


EigenFunction = Union[Constant, Power, ExpLinear, ExpLinearPower, ExpQuadratic]


class Eigenpair(NamedTuple):
    """Eigenvalue, eigenfunction and, where one exists, the auxiliary exponent (a named tuple)."""

    lam: float
    phi: EigenFunction
    kappa: float | None = None


def _stable_root_minus(h: float, q: float, context: str) -> float:
    """sqrt(h**2 + q) - h without cancellation for h > 0.

    Uses the identity sqrt(h^2+q) - h = q / (sqrt(h^2+q) + h); the direct
    difference loses most of its digits when |q| << h^2, which happens for
    strongly mean-reverting parameters.
    """
    radicand = h * h + q
    if radicand < 0.0:
        raise ComplexKappa(f"negative square-root argument {radicand:.6g} in {context}")
    root = math.sqrt(radicand)
    if h > 0.0:
        return q / (root + h)
    return root - h


# ---------------------------------------------------------------------------
# Eigenpairs
# ---------------------------------------------------------------------------

def eigenpair(vp: ValidatedProblem) -> Eigenpair:
    """Closed-form admissible eigenpair of the model's generator-with-killing.

    The exponent branch is fixed per model (the other root does not give a
    true martingale); all pairs satisfy L phi = -lambda phi identically,
    which :func:`generator_residual` certifies on a grid.

    Raises
    ------
    ComplexKappa
        If the square-root argument of the exponent is negative (can only
        happen for beta inside (0, 1) at extreme parameters).
    """
    return vp.model.eigenpair(vp.alpha, vp.beta)


# ---------------------------------------------------------------------------
# Residual certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorResidual:
    """Max relative generator residual over a grid.

    The reported quantity is max |L phi / phi + lambda| / (|lambda| + eps)
    evaluated entirely through derivative *ratios*, which keeps the check
    meaningful even where phi itself under- or overflows.
    """

    max_abs_residual: float


def default_grid(vp: ValidatedProblem) -> np.ndarray:
    """Default residual grid: 50 points, log-spaced on (0, inf) states,
    linear on R, and for the quadratic model a lattice over [-5, 5]^d with
    about 50 points in total.
    """
    return vp.model.grid()


def generator_residual(vp: ValidatedProblem, pair: Eigenpair,
                       grid: np.ndarray) -> GeneratorResidual:
    """Certify L phi = -lambda phi numerically on a grid, through the
    closed-form derivative ratios of the eigenfunction family.

    Raises
    ------
    GridOutsideDomain
        If the grid is empty, has a non-finite point or the wrong shape for
        the state, or if a point leaves the state space.
    """
    gen = vp.model.generator(vp.alpha, vp.beta)
    resid = (np.abs(pair.phi.generator_ratio(gen, grid) + pair.lam)
             / (abs(pair.lam) + RESIDUAL_EPS))
    return GeneratorResidual(max_abs_residual=float(np.max(resid)))
