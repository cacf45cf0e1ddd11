"""Spectral certificate of the eigenvalues.

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

The quadratic model's generator L f = tr(a Hess f)/2 + (b + B y) . grad f -
q y^T a y f on R^d is read from ``Quadratic.generator`` the same way, and
its lambda comes from the stabilizing Riccati solution.  At d = 1 the
symmetrised eigenfunction phi sqrt(speed density) decays exactly when the
closed loop B - 2 a V is negative, so that branch gives the top of the
spectrum; the anti-stabilizing branch's lambda differs by about |tr B| and
fails every point.  The scalar scheme applies with both ends natural
(Dirichlet).  For
d = 2 the coordinates z = P^T y, with a = P diag(w) P^T, make the
diffusion diagonal, so the same fitted rates along each axis give a
five-point operator on a square with Dirichlet edges.  It is not symmetric
(B need not be), but its off-diagonal entries are positive, so its top
eigenvalue is real, simple and below every row sum (Perron-Frobenius);
shift-invert ``scipy.sparse.linalg.eigs`` about a shift above the largest
row sum returns it.  Where no stabilizing solution exists (beta in (0, 1)
with a weak reversion, q < 0), the quadratic growth of the killing beats
the confinement of the OU drift and the truncated top eigenvalue grows
with the box instead of converging.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal
from scipy.sparse import csr_matrix, diags
from scipy.sparse.linalg import eigs

from letfgrowth.eigen import GeneratorCoefficients, eigenpair
from letfgrowth.errors import NoStabilizingSolution
from letfgrowth.models import (
    ExtendedCir,
    Garch,
    GbmInverseGarchRate,
    GbmVasicek,
    HestonSV,
    InverseGarch,
    Quadratic,
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
    assert_agrees(model, alpha, beta, lambda gen: spectral_lambda(gen, ENDS[kind]), TOL[kind])


def assert_agrees(model, alpha, beta, reading, tol):
    """``reading(generator)`` = (spectral lambda, spread) against the closed form."""
    lam = eigenpair(validate(prob(model, alpha=alpha, beta=beta))).lam
    got, spread = reading(model.generator(alpha, beta))
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


# ---------------------------------------------------------------------------
# The quadratic model
# ---------------------------------------------------------------------------

# d = 1: a fast and a slow OU state.  The slow one has no stabilizing
# solution for beta in (0, 1) at these alphas, so it runs criterion 3's
# sweep only; BRANCH_MISSING is one of its missing points.
QUAD_1D = {
    "fast": (Quadratic(b=[0.1], Bmat=[[-1.0]], sigma=[[0.3]]),
             SWEEP + [(alpha, beta) for alpha in (0.3, 0.7, 1.0) for beta in (0.25, 0.5)]),
    "slow": (Quadratic(b=[0.0], Bmat=[[-0.3]], sigma=[[1.0]]), SWEEP),
}
BRANCH_MISSING = (0.5, 0.5)
QUAD_2D_POINTS = [(0.5, 2.0), (1.0, -3.0), (0.7, 0.5)]
QUAD_2D_BOXES = (2.0, 1.5)  # (wide, narrow) half-widths in z = P^T y
QUAD_2D_NODES = (121, 181)  # (coarse, fine) nodes per axis
# About ten times the worst discretisation error measured on these points,
# on the scale of TOL.
QUAD_TOL = {1: 8e-5, 2: 4e-3}


def line_generator(gen):
    """The d = 1 quadratic generator as scalar coefficients of x = y_1."""
    a = float(gen.variance(np.zeros((1, 1)))[0, 0])
    return GeneratorCoefficients(variance=lambda x: np.full(x.shape, a),
                                 drift=lambda x: gen.drift(x[:, None])[:, 0],
                                 killing=lambda x: gen.killing(x[:, None]), domain=gen.domain)


def top_eigenvalue_2d(gen, half: float, n: int) -> float:
    """Top eigenvalue of the fitted five-point discretisation of a d = 2
    generator on n x n nodes spanning [-half, half]^2 in z = P^T y; the
    edge nodes are dropped (Dirichlet)."""
    w, P = np.linalg.eigh(gen.variance(np.zeros((1, 2))))
    z = np.linspace(-half, half, n)
    h = z[1] - z[0]
    Z = np.stack(np.meshgrid(z, z, indexing="ij"), axis=-1)
    killing = gen.killing(Z.reshape(-1, 2) @ P.T).reshape(n, n)
    diag = -killing
    idx = np.arange(n * n).reshape(n, n)
    src, dst, rate = [], [], []
    for ax in range(2):
        lo = (slice(None),) * ax + (slice(0, -1),)
        hi = (slice(None),) * ax + (slice(1, None),)
        mid = 0.5 * (Z[lo] + Z[hi])
        drift = (gen.drift(mid.reshape(-1, 2) @ P.T) @ P)[:, ax].reshape(mid.shape[:2])
        diff = 0.5 * w[ax]
        peclet = drift * h / diff
        up = diff / (h * h) * _bernoulli(-peclet)  # node -> its neighbour along +z_ax
        down = diff / (h * h) * _bernoulli(peclet)
        diag[lo] -= up
        diag[hi] -= down
        src += [idx[lo], idx[hi]]
        dst += [idx[hi], idx[lo]]
        rate += [up, down]
    flat = lambda parts: np.concatenate([p.ravel() for p in parts])  # noqa: E731
    A = csr_matrix((flat(rate), (flat(src), flat(dst))), shape=(n * n, n * n))
    inner = idx[1:-1, 1:-1].ravel()
    A = (A + diags(diag.ravel()))[inner][:, inner].tocsc()
    shift = float(np.max(-killing)) + 1.0  # above every row sum
    (top,) = eigs(A, k=1, sigma=shift, which="LM", return_eigenvectors=False)
    return float(top.real)


def spectral_lambda_2d(gen) -> tuple[float, float]:
    """As :func:`spectral_lambda`, on the d = 2 boxes and grids."""
    wide, narrow = QUAD_2D_BOXES
    coarse, fine = QUAD_2D_NODES
    readings = [-top_eigenvalue_2d(gen, wide, fine),
                -top_eigenvalue_2d(gen, wide, coarse),
                -top_eigenvalue_2d(gen, narrow, fine)]
    return readings[0], max(readings) - min(readings)


@pytest.mark.parametrize("name", sorted(QUAD_1D))
def test_quadratic_line_matches_closed_form(name):
    model, sweep = QUAD_1D[name]
    for alpha, beta in sweep:
        assert_agrees(model, alpha, beta,
                      lambda gen: spectral_lambda(line_generator(gen), (ABSORB, ABSORB)),
                      QUAD_TOL[1])


def test_quadratic_plane_matches_closed_form():
    for alpha, beta in QUAD_2D_POINTS:
        assert_agrees(BASE_MODELS["quadratic"], alpha, beta, spectral_lambda_2d, QUAD_TOL[2])


def test_quadratic_missing_branch_has_no_top_eigenvalue():
    # No stabilizing solution, and no converged spectral reading either:
    # the truncated top eigenvalue grows with the box (about 4.4, 24 and
    # 110 here).
    model, _ = QUAD_1D["slow"]
    alpha, beta = BRANCH_MISSING
    with pytest.raises(NoStabilizingSolution):
        eigenpair(validate(prob(model, alpha=alpha, beta=beta)))
    gen = line_generator(model.generator(alpha, beta))
    tops = [top_eigenvalue(gen, -half, half, NODES[1], (ABSORB, ABSORB))
            for half in (6.0, 12.0, 24.0)]
    assert tops[0] > 1.0 and tops[1] > 4.0 * tops[0] and tops[2] > 4.0 * tops[1], tops
