"""Reference laws that the tests check the library and the oracle against.

The CIR transition density (and its mean), the stationary law of the GARCH
diffusion's scaled reciprocal and the GARCH stationary power moment are
closed forms that no library code path needs; the tests use them as
independent oracles.
"""

import math

import numpy as np
from scipy.special import gammaln, ive


def cir_log_density(x, t: float, ell: float, mu: float, sigma: float,
                    x0: float = 1.0):
    """Log transition density of dX = (ell - mu X) dt + sigma sqrt(X) dW.

    g(x; t) = h exp(-u - v) (v/u)^(q/2) I_q(2 sqrt(u v)) with
    h = 2 mu / (sigma^2 (1 - exp(-mu t))), q = 2 ell / sigma^2 - 1,
    u = h x0 exp(-mu t), v = h x.  Evaluated entirely in log scale through
    the exponentially scaled Bessel function, so neither tail can overflow
    or corrupt downstream log-domain integrands.
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    q = 2.0 * ell / sigma ** 2 - 1.0
    if q <= -1.0:
        raise ValueError("need 2*ell/sigma^2 - 1 > -1")
    x = np.asarray(x, dtype=float)
    h = 2.0 * mu / (sigma ** 2 * (1.0 - math.exp(-mu * t)))
    u = h * x0 * math.exp(-mu * t)
    v = h * x
    z = 2.0 * np.sqrt(u * v)
    with np.errstate(divide="ignore"):
        # ive(q, z) ~ z**q / (2**q q!) for small z, so log(ive) + z is the
        # exact log Bessel; at z = 0 the q > 0 case is a genuine -inf.
        log_bessel = np.log(ive(q, z)) + z
        log_g = (math.log(h) - u - v
                 + 0.5 * q * (np.log(v) - math.log(u)) + log_bessel)
    return log_g


def cir_density(x, t: float, ell: float, mu: float, sigma: float,
                x0: float = 1.0):
    """Transition density of dX = (ell - mu X) dt + sigma sqrt(X) dW at time t.

    See :func:`cir_log_density` for the closed form and scaling strategy.
    """
    return np.exp(cir_log_density(x, t, ell, mu, sigma, x0))


def cir_transition_mean(t: float, ell: float, mu: float, x0: float = 1.0) -> float:
    """E[X_t] = ell/mu + (x0 - ell/mu) exp(-mu t) for the density above."""
    lvl = ell / mu
    return lvl + (x0 - lvl) * math.exp(-mu * t)


def garch_stationary_density(y, theta: float, a: float, sigma: float):
    """Stationary density of the scaled reciprocal 2 theta / (sigma^2 X).

    The GARCH diffusion's scaled reciprocal converges to a Gamma law with
    shape 2 a / sigma^2 + 1 and unit rate; theta only enters the scaling,
    not the limiting shape, but is kept in the signature for symmetry with
    the transformation.
    """
    if theta <= 0.0 or a <= 0.0 or sigma <= 0.0:
        raise ValueError("theta, a, sigma must be positive")
    y = np.asarray(y, dtype=float)
    gamma = 2.0 * a / sigma ** 2 + 1.0
    return np.exp((gamma - 1.0) * np.log(y) - y - gammaln(gamma))


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
