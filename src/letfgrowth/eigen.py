"""Eigenpairs of each model's generator-with-killing, plus residual certificates.

For a diffusion state G with generator L and a killing rate k, the pair
(lambda, phi) with L phi = -lambda phi and phi > 0 turns the path-dependent
expectation E[exp(-int k(G_s) ds) f(G_t)] into a marginal one under a
drift-shifted measure, at the cost of the factor exp(-lambda t).  Every model
in the catalog admits a closed-form pair in one of five parametric families;
this module produces the pair and certifies it numerically by evaluating the
generator residual with exact derivatives of the family (finite differences
are available as an independent cross-check mode).

The state G and the measure under which its generator is taken vary by
variant (the reference itself, or the variance or rate driver after an
exponential tilt has absorbed the reference Brownian).  Each model class in
``models`` states its own generator coefficients, eigenpair and default
grid; this module is model-agnostic: it calls those methods, and its
residual and transformed-measure code is keyed on the eigenfunction family
(scalar, or the d-dimensional exponential-quadratic one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Union

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
    "generator_coefficients",
    "generator_residual",
    "default_grid",
    "q_dynamics",
    "QDrift",
]

RESIDUAL_EPS = 1e-300
FD_REL_STEP = 1e-5   # scalar states: step relative to max(1, |x|)
FD_QUAD_STEP = 1e-4  # quadratic state: absolute step per coordinate


# ---------------------------------------------------------------------------
# Eigenfunction families (exact log-values and derivative ratios)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Constant:
    """phi(x) = 1."""

    name = "constant"

    def log_phi(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def d1_ratio(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def d2_ratio(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def describe(self) -> str:
        return "constant"


@dataclass(frozen=True)
class Power:
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

    def describe(self) -> str:
        return f"power(p={self.p:.12g})"


@dataclass(frozen=True)
class ExpLinear:
    """phi(x) = exp(-c x).  Negative c gives a growing exponential."""

    c: float
    name = "exp_linear"

    def log_phi(self, x):
        return -self.c * np.asarray(x, dtype=float)

    def d1_ratio(self, x):
        return np.full_like(np.asarray(x, dtype=float), -self.c)

    def d2_ratio(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.c * self.c)

    def describe(self) -> str:
        return f"exp_linear(c={self.c:.12g})"


@dataclass(frozen=True)
class ExpLinearPower:
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

    def describe(self) -> str:
        return f"exp_linear_power(c={self.c:.12g}, p={self.p:.12g})"


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

    def describe(self) -> str:
        return f"exp_quadratic(d={self.u.shape[0]})"


EigenFunction = Union[Constant, Power, ExpLinear, ExpLinearPower, ExpQuadratic]


@dataclass(frozen=True)
class Eigenpair:
    """Eigenvalue, eigenfunction, and the auxiliary exponent where one exists."""

    lam: float
    phi: EigenFunction
    kappa: float | None = None


# ---------------------------------------------------------------------------
# Generator coefficient tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorCoefficients:
    """Scalar generator L f = variance/2 f'' + drift f' - killing f.

    ``domain`` is "positive" or "real"; grids are checked against it.
    """

    variance: Callable[[np.ndarray], np.ndarray]
    drift: Callable[[np.ndarray], np.ndarray]
    killing: Callable[[np.ndarray], np.ndarray]
    domain: str


def _sqrt_or_raise(radicand: float, context: str) -> float:
    if radicand < 0.0:
        raise ComplexKappa(f"negative square-root argument {radicand:.6g} in {context}")
    return math.sqrt(radicand)


def _stable_root_minus(h: float, q: float, context: str) -> float:
    """sqrt(h**2 + q) - h without cancellation for h > 0.

    Uses the identity sqrt(h^2+q) - h = q / (sqrt(h^2+q) + h); the direct
    difference loses most of its digits when |q| << h^2, which happens for
    strongly mean-reverting parameters.
    """
    root = _sqrt_or_raise(h * h + q, context)
    if h > 0.0:
        return q / (root + h)
    return root - h


def generator_coefficients(vp: ValidatedProblem) -> GeneratorCoefficients:
    """Coefficients of the generator-with-killing the eigenpair satisfies.

    Raises TypeError for the quadratic model, whose state is not scalar.
    """
    return vp.model.generator(vp.alpha, vp.beta)


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

    grid: np.ndarray
    max_abs_residual: float
    mode: str


def default_grid(vp: ValidatedProblem) -> np.ndarray:
    """Default residual grid: 50 points, log-spaced on (0, inf) states,
    linear on R, and for the quadratic model a lattice over [-5, 5]^d with
    about 50 points in total.
    """
    return vp.model.grid()


def _scalar_ratios_fd(phi, x):
    """phi'/phi and phi''/phi from central differences of log phi.

    The step adapts to the local log-slope so that the exponentiated
    increment stays ~2e-3: steep exponential eigenfunctions would otherwise
    lose the second-derivative ratio to series truncation exactly where the
    generator terms cancel most.
    """
    x = np.asarray(x, dtype=float)
    h0 = FD_REL_STEP * np.maximum(1.0, np.abs(x))
    lp0 = phi.log_phi(x)
    probe = (phi.log_phi(x + h0) - lp0) / h0
    h = np.minimum(h0, 2e-3 / (np.abs(probe) + 1.0))
    dp = phi.log_phi(x + h) - lp0
    dm = phi.log_phi(x - h) - lp0
    d1 = (np.exp(dp) - np.exp(dm)) / (2.0 * h)
    d2 = (np.exp(dp) - 2.0 + np.exp(dm)) / (h * h)
    return d1, d2


def _quadratic_ratios_fd(phi: ExpQuadratic, y):
    h = FD_QUAD_STEP
    y = np.atleast_2d(np.asarray(y, dtype=float))
    n, d = y.shape
    lp0 = phi.log_phi(y)
    grad = np.empty((n, d))
    hess = np.empty((n, d, d))
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h
        lp_p = phi.log_phi(y + ei) - lp0
        lp_m = phi.log_phi(y - ei) - lp0
        grad[:, i] = (np.exp(lp_p) - np.exp(lp_m)) / (2.0 * h)
        hess[:, i, i] = (np.exp(lp_p) - 2.0 + np.exp(lp_m)) / (h * h)
    for i in range(d):
        for j in range(i + 1, d):
            ei = np.zeros(d); ei[i] = h
            ej = np.zeros(d); ej[j] = h
            lpp = phi.log_phi(y + ei + ej) - lp0
            lpm = phi.log_phi(y + ei - ej) - lp0
            lmp = phi.log_phi(y - ei + ej) - lp0
            lmm = phi.log_phi(y - ei - ej) - lp0
            mixed = (np.exp(lpp) - np.exp(lpm) - np.exp(lmp) + np.exp(lmm)) / (4.0 * h * h)
            hess[:, i, j] = mixed
            hess[:, j, i] = mixed
    return grad, hess


def generator_residual(vp: ValidatedProblem, pair: Eigenpair, grid: np.ndarray,
                       mode: str = "exact") -> GeneratorResidual:
    """Certify L phi = -lambda phi numerically on a grid.

    Parameters
    ----------
    mode : {"exact", "fd"}
        "exact" uses the closed-form derivative ratios of the eigenfunction
        family; "fd" rebuilds them from central differences of log phi and is
        the independent cross-check (its accuracy is limited by the step).

    Raises
    ------
    GridOutsideDomain
        If any grid point leaves the state space.
    """
    m = vp.model
    if isinstance(pair.phi, ExpQuadratic):
        y = np.atleast_2d(np.asarray(grid, dtype=float))
        if y.shape[1] != m.d:
            raise GridOutsideDomain(f"grid dimension {y.shape[1]} != d={m.d}")
        if mode == "exact":
            g = pair.phi.grad_ratio(y)
            Hr = pair.phi.hess_ratio(y)
        elif mode == "fd":
            g, Hr = _quadratic_ratios_fd(pair.phi, y)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        a = m.a
        q_coeff = 2.0 * vp.alpha * vp.beta * (vp.beta - 1.0)
        drift = m.b[None, :] + y @ m.Bmat.T
        gen = (np.einsum("ni,ni->n", g, drift)
               + 0.5 * np.einsum("nij,ij->n", Hr, a)
               - q_coeff * np.einsum("ni,ij,nj->n", y, a, y))
        resid = np.abs(gen + pair.lam) / (abs(pair.lam) + RESIDUAL_EPS)
        return GeneratorResidual(grid=y, max_abs_residual=float(np.max(resid)),
                                 mode=mode)

    x = np.asarray(grid, dtype=float)
    coeffs = generator_coefficients(vp)
    if coeffs.domain == "positive" and np.any(x <= 0.0):
        raise GridOutsideDomain("grid contains non-positive points for a positive-state model")
    if mode == "exact":
        d1 = pair.phi.d1_ratio(x)
        d2 = pair.phi.d2_ratio(x)
    elif mode == "fd":
        d1, d2 = _scalar_ratios_fd(pair.phi, x)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    gen = 0.5 * coeffs.variance(x) * d2 + coeffs.drift(x) * d1 - coeffs.killing(x)
    resid = np.abs(gen + pair.lam) / (abs(pair.lam) + RESIDUAL_EPS)
    return GeneratorResidual(grid=x, max_abs_residual=float(np.max(resid)), mode=mode)


# ---------------------------------------------------------------------------
# Transformed-measure dynamics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QDrift:
    """Drift of the state under the transformed measure.

    ``drift(x)`` equals base drift plus the Girsanov shift
    variance * (phi'/phi); the diffusion coefficient is unchanged.
    """

    drift: Callable[[np.ndarray], np.ndarray]
    description: str


def q_dynamics(vp: ValidatedProblem, pair: Eigenpair) -> QDrift:
    """Drift of the state under the eigenfunction-transformed measure."""
    m = vp.model
    if isinstance(pair.phi, ExpQuadratic):
        a = m.a
        const = m.b - a @ pair.phi.u
        Fmat = m.Bmat - 2.0 * a @ pair.phi.V

        def drift(y):
            y = np.atleast_2d(np.asarray(y, dtype=float))
            return const[None, :] + y @ Fmat.T

        return QDrift(drift=drift,
                      description="(b - a u) + (B - 2 a V) y, diffusion sigma unchanged")

    coeffs = generator_coefficients(vp)

    def drift(x):
        x = np.asarray(x, dtype=float)
        return coeffs.drift(x) + coeffs.variance(x) * pair.phi.d1_ratio(x)

    return QDrift(drift=drift,
                  description="base drift + variance * (phi'/phi), diffusion unchanged")
