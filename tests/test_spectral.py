"""Spectral certificate of the scalar eigenvalues.

The growth rate rests on the eigenvalue that martingale extraction picks
out: the recurrent one, at the top of the spectrum of the generator with
killing L f = v/2 f'' + mu f' - k f whenever the transformed state is
positive recurrent (Hansen & Scheinkman 2009; Qin & Linetsky 2016; Pinsky
1995, ch. 4).  The generator residual shows that the closed-form phi solves
L phi = -lambda phi, which the other root of each exponent equation also
does; this module checks lambda itself.

The discretisation reads only ``model.generator(alpha, beta)``; the
eigenpair enters only as the closed-form lambda under test.  Positive
states use a log grid (y = log x turns L into D g'' + b g' - k g with
D = v / (2 x^2) and b = mu / x - D), the real-line Vasicek rate a linear
one.  Each cell carries exponentially fitted (Il'in; Scharfetter & Gummel)
rates D_i B(-z) / h^2 up and D_{i+1} B(z) / h^2 down, where B(z) =
z / (e^z - 1) and z = b h / D is the cell Peclet number; they are exact for
the cell's homogeneous solutions and positive at any Peclet number, so the
discrete generator is a birth-death chain, and the similarity that
symmetrises it puts sqrt(up * down) on the off-diagonal.  The top
eigenvalue then comes from ``scipy.linalg.eigh_tridiagonal``.

Each end takes the condition its Feller boundary class calls for, from the
scale and speed densities of v and mu near that end: an entrance end
reflects (zero flux, the chain cannot leave), a natural end absorbs
(Dirichlet), since any condition there vanishes as the domain grows.  A
point counts only when the reading agrees across two nested domains and two
grid sizes; a point that does not is unconverged and fails, never passes.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from letfgrowth.eigen import eigenpair
from letfgrowth.models import (
    ExtendedCir,
    Garch,
    GbmInverseGarchRate,
    GbmVasicek,
    HestonSV,
    InverseGarch,
    ThreeHalves,
    ThreeHalvesSV,
    validate,
)

from test_models import BASE_MODELS, prob

REFLECT, ABSORB = "reflect", "absorb"

# (lower end, upper end) per kind.  0 is an entrance for the GARCH level
# (drift theta > 0 against variance sigma^2 x^2), for extended CIR with
# theta >= sigma^2 and for Heston with 2 theta > delta^2; it is natural
# where the state is lognormal near 0 (inverse GARCH, the inverse-GARCH
# rate) and for the 3/2 states, whose speed measure vanishes there faster
# than any power.  infinity is an entrance where a drift -a x^2 or
# -a v^2 pulls the state down faster than it can diffuse up (inverse
# GARCH, the 3/2 states with a positive tilted speed, the inverse-GARCH
# rate) and natural for the linear drifts (GARCH, extended CIR, Heston,
# both ends of the Vasicek rate).
ENDS = {
    "garch": (REFLECT, ABSORB),
    "inverse_garch": (ABSORB, REFLECT),
    "extended_cir": (REFLECT, ABSORB),
    "three_halves": (ABSORB, REFLECT),
    "heston_sv": (REFLECT, ABSORB),
    "three_halves_sv": (ABSORB, REFLECT),
    "gbm_vasicek": (ABSORB, ABSORB),
    "gbm_inverse_garch_rate": (ABSORB, REFLECT),
}
KINDS = sorted(ENDS)
LOG_DOMAINS = ((1e-8, 1e4), (1e-6, 1e3))  # (wide, narrow) for positive states
REAL_DOMAINS = ((-6.0, 6.0), (-3.0, 3.0))  # (wide, narrow) for the Vasicek rate
NODES = (4000, 8000)  # (coarse, fine)
BISECTION_TOL = 1e-12  # absolute width at which bisection stops

# |spectral - closed form| / max(0.01, |lambda|), and the spread of the three
# readings on the same scale, may not exceed these; each is about ten times
# the worst discretisation error measured on the sweep and the samples.
TOL = {
    "garch": 3e-5,
    "inverse_garch": 3e-4,
    "extended_cir": 1e-3,
    "three_halves": 2e-4,
    "heston_sv": 1e-4,
    "three_halves_sv": 1e-4,
    "gbm_vasicek": 4e-3,
    "gbm_inverse_garch_rate": 2e-4,
}

# Criterion 3's sweep, plus the default problem's (alpha, beta).
SWEEP = [(alpha, beta) for alpha in (0.3, 0.7, 1.0) for beta in (-3.0, 2.0, 3.0)] + [(0.5, 2.0)]


def _bernoulli(z):
    """B(z) = z / (e^z - 1), with B(0) = 1."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        b = z / np.expm1(z)
    return np.where(z == 0.0, 1.0, b)


def top_eigenvalue(gen, lo: float, hi: float, n: int, ends) -> float:
    """Top eigenvalue of the fitted discretisation of ``gen`` on n nodes
    spanning [lo, hi]; an absorbing end drops its node, a reflecting one
    keeps it with no rate beyond it."""
    if gen.domain == "positive":
        y = np.linspace(math.log(lo), math.log(hi), n)
        x, xm = np.exp(y), np.exp(0.5 * (y[1:] + y[:-1]))
        diff = gen.variance(x) / (2.0 * x * x)
        diff_m = gen.variance(xm) / (2.0 * xm * xm)
        drift_m = gen.drift(xm) / xm - diff_m
    else:
        y = x = np.linspace(lo, hi, n)
        xm = 0.5 * (x[1:] + x[:-1])
        diff = 0.5 * gen.variance(x)
        diff_m = 0.5 * gen.variance(xm)
        drift_m = gen.drift(xm)
    h = y[1] - y[0]
    z = drift_m * h / diff_m
    up = diff[:-1] / (h * h) * _bernoulli(-z)  # node i -> i + 1
    down = diff[1:] / (h * h) * _bernoulli(z)  # node i + 1 -> i
    diag = -np.asarray(gen.killing(x), dtype=float)
    diag[:-1] -= up
    diag[1:] -= down
    off = np.sqrt(up * down)
    first = 1 if ends[0] == ABSORB else 0
    last = n - 1 if ends[1] == ABSORB else n
    diag, off = diag[first:last], off[first:last - 1]
    m = diag.size
    (top,) = eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                              select_range=(m - 1, m - 1), lapack_driver="stebz",
                              tol=BISECTION_TOL)
    return float(top)


def spectral_lambda(gen, ends) -> tuple[float, float]:
    """-1 times the top eigenvalue on the wide domain and the fine grid, and
    the spread of that reading, the coarse grid's and the narrow domain's."""
    wide, narrow = REAL_DOMAINS if gen.domain == "real" else LOG_DOMAINS
    coarse, fine = NODES
    readings = [-top_eigenvalue(gen, *wide, fine, ends),
                -top_eigenvalue(gen, *wide, coarse, ends),
                -top_eigenvalue(gen, *narrow, fine, ends)]
    return readings[0], max(readings) - min(readings)


def check_point(kind, model, alpha, beta):
    lam = eigenpair(validate(prob(model, alpha=alpha, beta=beta))).lam
    got, spread = spectral_lambda(model.generator(alpha, beta), ENDS[kind])
    tol = TOL[kind]
    assert spread <= tol * max(0.01, abs(got)), (
        f"unconverged at alpha={alpha}, beta={beta}: readings spread {spread:.3e}")
    assert abs(got - lam) <= tol * max(0.01, abs(lam)), (
        f"alpha={alpha}, beta={beta}: spectral {got!r}, closed form {lam!r}")


@pytest.mark.parametrize("kind", KINDS)
def test_sweep_matches_closed_form(kind):
    for alpha, beta in SWEEP:
        check_point(kind, BASE_MODELS[kind], alpha, beta)


_RHO = st.floats(-0.9, 0.9)
_EXCESS = st.floats(0.05, 2.0)

# Admissible parameters of each kind, for alpha in [0.1, 1] and |beta| <= 4.
# The SV samplers add 4 delta |rho| to the speed, so the tilted speed
# a - alpha beta delta rho stays above a > 0 and infinity stays an entrance
# for the 3/2 variance.  The inverse-GARCH rate's theta has room for
# 4 sigma delta of tilt and for the eigenfunction's exponent, so the
# transformed rate stays positive recurrent at 0.
SAMPLERS = {
    "garch": st.builds(Garch, theta=st.floats(0.01, 0.5), a=st.floats(0.2, 4.0),
                       sigma=st.floats(0.1, 0.8)),
    "inverse_garch": st.builds(
        lambda sigma, excess, a: InverseGarch(theta=sigma ** 2 * (1.0 + excess), a=a,
                                              sigma=sigma),
        st.floats(0.1, 0.8), _EXCESS, st.floats(0.2, 4.0)),
    "extended_cir": st.builds(
        lambda sigma, excess, mu: ExtendedCir(theta=sigma ** 2 * (1.0 + excess), mu=mu,
                                              sigma=sigma),
        st.floats(0.1, 0.6), _EXCESS, st.floats(0.02, 0.5)),
    "three_halves": st.builds(ThreeHalves, theta=st.floats(0.1, 1.0), a=st.floats(0.1, 2.0),
                              sigma=st.floats(0.1, 0.8)),
    "heston_sv": st.builds(
        lambda delta, excess, a, rho: HestonSV(mu=0.05, theta=0.5 * delta ** 2 * (1.0 + excess),
                                               a=a + 4.0 * delta * abs(rho), delta=delta,
                                               rho=rho, v0=0.1),
        st.floats(0.1, 1.0), _EXCESS, st.floats(0.2, 4.0), _RHO),
    "three_halves_sv": st.builds(
        lambda theta, a, delta, rho: ThreeHalvesSV(mu=0.05, theta=theta,
                                                   a=a + 4.0 * delta * abs(rho), delta=delta,
                                                   rho=rho, v0=0.3),
        st.floats(0.1, 1.0), st.floats(0.2, 4.0), st.floats(0.1, 1.0), _RHO),
    "gbm_vasicek": st.builds(
        lambda sigma, theta, a, delta, rho: GbmVasicek(mu=0.05, sigma=sigma, theta=theta, a=a,
                                                       delta=delta, rho=rho, r0=0.02),
        st.floats(0.05, 0.4), st.floats(0.01, 0.1), st.floats(0.5, 4.0),
        st.floats(0.02, 0.2), _RHO),
    "gbm_inverse_garch_rate": st.builds(
        lambda sigma, excess, a, delta, rho: GbmInverseGarchRate(
            mu=0.05, sigma=sigma, theta=delta ** 2 * (2.0 + excess) + 4.0 * sigma * delta,
            a=a, delta=delta, rho=rho, r0=0.05),
        st.floats(0.05, 0.3), _EXCESS, st.floats(2.0, 8.0), st.floats(0.05, 0.3), _RHO),
}
_ALPHA = st.floats(0.1, 1.0)
_BETA = st.one_of(st.floats(-4.0, 0.0), st.floats(1.0, 4.0))


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
def test_sampled_parameters_match_closed_form(kind, data):
    model = data.draw(SAMPLERS[kind], label="model")
    check_point(kind, model, data.draw(_ALPHA, label="alpha"), data.draw(_BETA, label="beta"))
