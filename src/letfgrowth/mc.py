"""Independent Monte Carlo oracle for growth rates and martingale certificates.

This module never consults the closed forms it is meant to check: it
simulates each model's SDE under the subjective measure, assembles the
fund's log price from its exact path decomposition

    log L_t = beta log X_t - (beta-1) int r ds - beta(beta-1)/2 int |sigma_s|^2 ds

and estimates lim (1/t) log E[L_t^alpha] as the tail slope of the
per-checkpoint log-mean utilities.  The growth paths never see alpha, beta
or a constant rate: at each checkpoint they hand the state term (log X_t,
or |Y_t|^2 for the quadratic model, whose |sigma_s|^2 is 4 |sigma^T Y_s|^2),
int |sigma_s|^2 ds, for the stochastic-rate kinds int r ds and, for the two
SV kinds, the conditional variance (1 - rho^2) int v ds to one assembly,
which alone forms alpha log L_t.  The SV kinds draw no reference normal:
that term of log X_t is Gaussian given the variance path, so the assembly
adds its exact log moment, alpha^2 beta^2/2 times that variance.

Steppers and schemes
--------------------
Each state family has one stepper, which the growth path and the martingale
path both run: exact lognormal GBM over checkpoint gaps; log-Euler GARCH
(also the reciprocal of inverse GARCH); full-truncation Euler for
dx = (c0 + c1 x) dt + s sqrt(x) dZ (extended CIR, the Heston variance and
the reciprocal CIR states of the 3/2 models, the 3/2-SV one floored at
RECIP_VARIANCE_FLOOR, which caps v at 1e6; every step that its floor clamps
counts in ``truncation_fraction``); the exact joint Vasicek law of
(r, int r ds), with the reference's dB for the growth path; log-Euler for
the inverse-GARCH rate; exact OU steps for the quadratic state.  One table
maps each kind to its scheme label, desk steps per year and its two paths.
A stepped scheme needs MIN_STEPS_PER_YEAR steps a year; the Vasicek one,
exact at any step length, runs one step per checkpoint gap at desk scale.

Determinism
-----------
Paths are laid out in fixed blocks of ``block_size``; block ``j`` draws its
normals from its own ``Philox(SeedSequence(seed, spawn_key=(j,)))`` stream,
in the same order and count however blocks are grouped.  A lane is a run of
``LANE_PATHS // block_size`` whole blocks (at least one) that runs the
kernel body once; every kernel operation acts path by path, so a path's
value does not depend on its lane.  Utilities are stored checkpoint-major,
``(checkpoints, paths)``: paths are always antithetic pairs, all pair
firsts come first, in block order, and their mates (the negated draws)
follow in the same order.  Statistics treat pair averages as the
independent units and reduce them in that fixed order, so results are
bit-identical for a given SimConfig.  A call holds one float64 matrix of
checkpoints x paths plus O(paths) temporaries: lanes write into it in place
and the pair statistics reuse its head rows.  It keeps no state outside its
own arrays, so calls from several threads do not interact.

Utilities are accumulated in log space and exponentiated against a global
per-checkpoint shift, so heavy tails show up as a collapsing effective
sample size rather than silent overflow.  That collapse (or a measured
acceleration of the slope between the first and second half of the
checkpoints, or outright path overflow) raises the ``diverged`` flag: it is
the empirical signature of an infinite or borderline utility moment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .eigen import Eigenpair
from .errors import AllPathsDiverged, SchemeUnstable
from .growth import GrowthRate
from .models import ValidatedProblem

__all__ = [
    "SimConfig",
    "desk_config",
    "GrowthEstimate",
    "MartingaleEstimate",
    "simulate_growth",
    "martingale_check",
    "verdict_for",
]

STATE_FLOOR = 1e-12
# The 3/2-SV reciprocal variance w is floored here before v = 1/w is formed,
# which caps the simulated variance at 1e6; each floored step is a truncation.
RECIP_VARIANCE_FLOOR = 1e-6
TRUNCATION_BUDGET = 0.01  # fraction of (path, step) events
OVERFLOW_BUDGET = 1e-3    # fraction of paths per checkpoint
VERDICT_REL_TOL = 0.05    # relative floor of the PASS band
MIN_STEPS_PER_YEAR = 50   # floor of every stepped scheme
DEFAULT_CHECKPOINTS = 10
# Paths per fused lane: wide enough to amortize the per-step Python work,
# narrow enough that a step's temporaries stay in cache.
LANE_PATHS = 16384


@dataclass(frozen=True)
class SimConfig:
    """Simulation configuration.

    ``t_checkpoints`` must be sorted, nonempty and contained in
    (0, horizon]; each must land on the step grid.  An empty tuple selects
    ten evenly spaced checkpoints.  Only this structure is checked here: a
    stepped scheme's MIN_STEPS_PER_YEAR is checked when a kind runs it.
    """

    horizon: float
    n_steps: int
    n_paths: int
    seed: int
    t_checkpoints: tuple[float, ...] = ()
    block_size: int = 16384

    def __post_init__(self):
        if not self.horizon > 0.0:
            raise ValueError("horizon must be positive")
        if self.n_steps < 1:
            raise ValueError("need at least one step")
        if self.n_paths < 1000:
            raise ValueError("need at least 1000 paths")
        if self.n_paths % 2:
            raise ValueError("antithetic pairing needs an even path count")
        if self.block_size < 2 or self.block_size % 2:
            raise ValueError("block size must be even and at least 2")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not self.t_checkpoints:
            object.__setattr__(self, "t_checkpoints", tuple(
                self.horizon * k / DEFAULT_CHECKPOINTS
                for k in range(1, DEFAULT_CHECKPOINTS + 1)))
        ts = self.t_checkpoints
        if any(t2 <= t1 for t1, t2 in zip(ts, ts[1:])) or ts[0] <= 0.0 \
                or ts[-1] > self.horizon * (1.0 + 1e-12):
            raise ValueError("checkpoints must be sorted inside (0, horizon]")
        for t, i in zip(ts, self.checkpoint_steps()):
            if abs(i * self.dt - t) > 1e-9 * max(1.0, self.horizon) or i < 1:
                raise ValueError(f"checkpoint {t} does not land on the step grid")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    def checkpoint_steps(self) -> np.ndarray:
        return np.asarray([int(round(t / self.dt)) for t in self.t_checkpoints])


def desk_config(vp_or_kind, seed: int = 42, horizon: float = 20.0,
                n_paths: int = 200_000) -> SimConfig:
    """Desk-scale defaults: T = 20y, 2e5 paths, the kind's desk steps/year.

    Stepped schemes run the fewest steps within the step-bias budget (GBM,
    which steps by checkpoint gaps whatever the grid, MIN_STEPS_PER_YEAR);
    a scheme exact at any step length runs one step per checkpoint gap.
    """
    kind = vp_or_kind if isinstance(vp_or_kind, str) else vp_or_kind.model.kind
    per_year = _SCHEMES[kind].steps_per_year
    n_steps = DEFAULT_CHECKPOINTS if per_year is None else int(round(per_year * horizon))
    return SimConfig(horizon=horizon, n_steps=n_steps, n_paths=n_paths, seed=seed)


@dataclass(frozen=True)
class GrowthEstimate:
    """Per-checkpoint log-mean utilities and the fitted tail slope."""

    t: np.ndarray
    log_mean_utility: np.ndarray
    stderr: np.ndarray
    ess: np.ndarray
    slope: float
    slope_stderr: float
    diverged: bool
    overflow_fraction: float
    truncation_fraction: float
    n_paths: int
    scheme: str
    divergence_reasons: tuple[str, ...] = ()
    # The tail window's second-half slope less its first-half slope, in se of
    # that gap (negative: decelerating); nan with fewer than 4 tail checkpoints.
    tail_acceleration_se: float = math.nan


@dataclass(frozen=True)
class MartingaleEstimate:
    """Sample mean of the extracted-martingale candidate at one horizon."""

    t: float
    mean: float
    stderr: float
    n_paths: int

    @property
    def within_three_se(self) -> bool:
        return abs(self.mean - 1.0) <= 3.0 * max(self.stderr, 1e-300)


# ---------------------------------------------------------------------------
# RNG and block plumbing
# ---------------------------------------------------------------------------

def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(block_index,))
    return np.random.Generator(np.random.Philox(ss))


class _Draw:
    """Normals for the ``width`` paths from ``start``, a run of whole blocks,
    laid out pair firsts then mates.

    Each block draws its share of every request from its own generator, in
    block order; the second half mirrors the first.
    """

    def __init__(self, cfg: SimConfig, start: int, width: int):
        bs = cfg.block_size
        self._parts = [  # (generator, first column, width)
            (_block_rng(cfg.seed, (start + col) // bs), col // 2, min(bs, width - col) // 2)
            for col in range(0, width, bs)]
        self._half = width // 2
        self.nb = width

    def normals(self) -> np.ndarray:
        z = np.empty(self.nb)
        for rng, col, width in self._parts:
            rng.standard_normal(out=z[col:col + width])
        np.negative(z[:self._half], out=z[self._half:])
        return z

    def normals_matrix(self, d: int) -> np.ndarray:
        return np.stack([self.normals() for _ in range(d)])


def _simulate(cfg: SimConfig, rows: int, kernel):
    """Run ``kernel(draw, put)`` once per lane of whole blocks, at most
    LANE_PATHS paths (or one block) wide, ``put(row, values)`` writing one
    row of the lane's paths straight into its pair-first and mate columns;
    return the (rows, paths) matrix, pair firsts before mates, and the sum
    of the kernel's return values."""
    n = cfg.n_paths
    half = n // 2
    lane = max(1, LANE_PATHS // cfg.block_size) * cfg.block_size
    vals = np.empty((rows, n))
    total = 0
    for start in range(0, n, lane):
        draw = _Draw(cfg, start, min(lane, n - start))
        h, done = draw.nb // 2, start // 2  # the lane's pairs, and those before it
        firsts, mates = vals[:, done:done + h], vals[:, half + done:half + done + h]

        def put(row, values):
            firsts[row] = values[:h]
            mates[row] = values[h:]
        total += kernel(draw, put)
    return vals, total


def _pairs(vals: np.ndarray):
    """(firsts, mates) views along the last axis."""
    h = vals.shape[-1] // 2
    return vals[..., :h], vals[..., h:]


# ---------------------------------------------------------------------------
# Steppers, one per state family: each yields per step (per gap for GBM) what
# both paths read.  The paths pass their own coefficients and keep their own
# quadrature, so each keeps the expression order of its recorded values.
# ---------------------------------------------------------------------------

def _lognormal(draw: _Draw, drift: float, sg: float, gaps):
    """Exact log X of GBM over each gap, drift = mu - sg^2/2."""
    logx = np.zeros(draw.nb)
    for gap in gaps:
        logx += drift * gap + sg * math.sqrt(gap) * draw.normals()
        yield logx


def _log_garch(draw: _Draw, cfg: SimConfig, th: float, a: float, sg: float):
    """Log-Euler log X of dX = (th - a X) dt + |sg| X dW (sg < 0: -dW)."""
    dt, sqdt = cfg.dt, math.sqrt(cfg.dt)
    z = np.zeros(draw.nb)
    for _ in range(cfg.n_steps):
        z += (th * np.exp(-z) - a - 0.5 * sg * sg) * dt + sg * sqdt * draw.normals()
        yield z


def _sqrt_euler(draw: _Draw, cfg: SimConfig, x0: float, c0: float, c1: float, s: float):
    """Full-truncation Euler for dx = (c0 + c1 x) dt + s sqrt(x) dZ; yields
    (x, x+ = max(x, 0), sqrt(x+ dt), the step's normal, next x)."""
    dt = cfg.dt
    x = np.full(draw.nb, x0)
    for _ in range(cfg.n_steps):
        xp = np.maximum(x, 0.0)
        sq = np.sqrt(xp * dt)
        z = draw.normals()
        x_next = x + (c0 + c1 * xp) * dt + s * sq * z
        yield x, xp, sq, z, x_next
        x = x_next


def _vasicek(draw: _Draw, cfg: SimConfig, m, level: float, joint: bool):
    """Exact step of (r, int r ds) for dr = a (level - r) dt + delta dZ, with
    the reference's dB when ``joint``; yields (r, int r ds, dB or None)."""
    dt, a, de, rho = cfg.dt, m.a, m.delta, m.rho
    e1 = math.exp(-a * dt)
    var_r = de * de * (1.0 - e1 * e1) / (2.0 * a)
    var_i = de * de / (a * a) * (dt - 2.0 * (1.0 - e1) / a + (1.0 - e1 * e1) / (2.0 * a))
    cov_ri = de * de / (2.0 * a * a) * (1.0 - e1) ** 2
    cov_rb = rho * de * (1.0 - e1) / a
    cov_ib = rho * de / a * (dt - (1.0 - e1) / a)
    cov = np.array([
        [var_r, cov_ri, cov_rb],
        [cov_ri, var_i, cov_ib],
        [cov_rb, cov_ib, dt],
    ])
    d = 3 if joint else 2
    # Tiny negative eigenvalues from cancellation are lifted before Cholesky.
    w, q = np.linalg.eigh(cov[:d, :d])
    chol = q @ np.diag(np.sqrt(np.maximum(w, 0.0)))
    rr = np.full(draw.nb, m.r0)
    ri = np.zeros(draw.nb)
    for _ in range(cfg.n_steps):
        inc = chol @ draw.normals_matrix(d)
        ri += level * dt + (rr - level) * (1.0 - e1) / a + inc[1]
        rr = level + (rr - level) * e1 + inc[0]
        yield rr, ri, inc[2] if joint else None


def _log_rate(draw: _Draw, cfg: SimConfig, r0: float, th: float, a: float,
              half_var: float, de: float):
    """Log-Euler for d log r = (th - a r - half_var) dt + de dZ, half_var =
    de^2/2 as the caller writes it; yields (r, trapezoid int r ds, normal)."""
    dt, sqdt = cfg.dt, math.sqrt(cfg.dt)
    z = np.full(draw.nb, math.log(r0))
    r = np.exp(z)
    ri = np.zeros(draw.nb)
    for _ in range(cfg.n_steps):
        zr = draw.normals()
        z = z + (th - a * r - half_var) * dt + de * sqdt * zr
        r_new = np.exp(z)
        ri += 0.5 * (r + r_new) * dt
        r = r_new
        yield r, ri, zr


def _ou(draw: _Draw, cfg: SimConfig, m):
    """Exact step of the quadratic model's OU state from Y_0 = 0; yields
    (Y, s before the step, s after it) with s = |sigma^T Y|^2.

    The step covariance int_0^dt exp(Bs) a exp(B^T s) ds comes from the
    block-matrix exponential of [[-B, a], [0, B^T]] (Van Loan).
    """
    from scipy.linalg import expm

    d, dt, B = m.d, cfg.dt, m.Bmat
    Ad = expm(B * dt)
    blk = np.zeros((2 * d, 2 * d))
    blk[:d, :d] = -B
    blk[:d, d:] = m.a
    blk[d:, d:] = B.T
    cov = Ad @ expm(blk * dt)[:d, d:]
    w, q = np.linalg.eigh(0.5 * (cov + cov.T))
    Ld = q @ np.diag(np.sqrt(np.maximum(w, 0.0)))
    aug = np.zeros((d + 1, d + 1))
    aug[:d, :d] = B
    aug[:d, d] = m.b
    bd = expm(aug * dt)[:d, d]
    sigT = m.sigma.T
    Y = np.zeros((d, draw.nb))
    s = np.zeros(draw.nb)
    for _ in range(cfg.n_steps):
        Y = Ad @ Y + bd[:, None] + Ld @ draw.normals_matrix(d)
        s_prev, s = s, np.sum((sigT @ Y) ** 2, axis=0)
        yield Y, s_prev, s


# ---------------------------------------------------------------------------
# Growth paths: hand each checkpoint's path functionals to ``emit`` (see
# _log_utility), cols mapping step -> checkpoint row, and return the
# truncation events; int |sigma|^2 ds takes the left point.
# ---------------------------------------------------------------------------

def _log_utility(vp, t, state, volint, rate_int=None, cond_var=None):
    """alpha log L_t from the path functionals: the state term (log X_t, or
    |Y_t|^2 for the quadratic model), int |sigma_s|^2 ds, with a stochastic
    rate int r ds in place of the constant rate's r t and, for the SV kinds,
    the variance of log X_t's undrawn Gaussian term given the path."""
    beta = vp.beta
    financing = (beta - 1.0) * vp.r * t if rate_int is None else (beta - 1.0) * rate_int
    out = vp.alpha * (beta * state - financing - 0.5 * beta * (beta - 1.0) * volint)
    if cond_var is not None:
        out += 0.5 * (vp.alpha * beta) ** 2 * cond_var
    return out


def _growth_gbm(m, cfg, cols, draw, emit, inverse):
    sg = m.sigma
    ts = cfg.t_checkpoints
    steps = _lognormal(draw, m.mu - 0.5 * sg * sg, sg, np.diff(ts, prepend=0.0))
    for k, (t, logx) in enumerate(zip(ts, steps)):
        emit(k, t, logx, sg * sg * t)
    return 0


def _growth_garch(m, cfg, cols, draw, emit, inverse):
    sg = m.sigma
    if inverse:
        # 1/X is a GARCH diffusion with level a, reversion theta - sigma^2.
        sign, steps = -1.0, _log_garch(draw, cfg, m.a, m.theta - sg * sg, -sg)
    else:
        sign, steps = 1.0, _log_garch(draw, cfg, m.theta, m.a, sg)
    for step, z in enumerate(steps, 1):
        if step in cols:
            t = step * cfg.dt
            emit(cols[step], t, sign * z, sg * sg * t)
    return 0


def _growth_cir(m, cfg, cols, draw, emit, inverse):
    dt, sg = cfg.dt, m.sigma
    if inverse:
        # The 3/2 state's reciprocal is a CIR process; |sigma_s|^2 = sg^2 X.
        sign, coeffs = -1.0, (m.a + sg * sg, -m.theta, -sg)
    else:
        sign, coeffs = 1.0, (m.theta, m.mu, sg)
    trunc = 0
    volint = np.zeros(draw.nb)
    for step, (x, xp, _, _, x_next) in enumerate(_sqrt_euler(draw, cfg, 1.0, *coeffs), 1):
        trunc += int(np.count_nonzero(x < 0.0))
        volint += sg * sg / np.maximum(xp, STATE_FLOOR) * dt
        if step in cols:
            logx = sign * np.log(np.maximum(x_next, STATE_FLOOR))
            emit(cols[step], step * dt, logx, volint)
    return trunc


def _growth_sv(m, cfg, cols, draw, emit, inverse):
    dt = cfg.dt
    mu, th, a, de, rho = m.mu, m.theta, m.a, m.delta, m.rho
    if inverse:
        # 3/2-SV steps w = 1/v, a CIR process; dw = ... - delta sqrt(w) dZ
        # carries the minus sign, so its normal is the Z increment itself.
        floor, x0, coeffs = RECIP_VARIANCE_FLOOR, 1.0 / m.v0, (a + de * de, -th, -de)
    else:
        floor, x0, coeffs = 0.0, m.v0, (th, -a, de)
    trunc = 0
    logx = np.zeros(draw.nb)
    ivar = np.zeros(draw.nb)
    for step, (x, v, sq, zv, _) in enumerate(_sqrt_euler(draw, cfg, x0, *coeffs), 1):
        trunc += int(np.count_nonzero(x < floor))
        if inverse:  # v is max(w, 0) until here
            v = 1.0 / np.maximum(v, RECIP_VARIANCE_FLOOR)
            sq = np.sqrt(v * dt)
        ivar += v * dt
        # The reference's sqrt(v dt) sqrt(1 - rho^2) zx is not drawn: its
        # variance given the path goes to the assembly instead.
        logx += (mu - 0.5 * v) * dt + sq * rho * zv
        if step in cols:
            emit(cols[step], step * dt, logx, ivar, cond_var=(1.0 - rho * rho) * ivar)
    return trunc


def _growth_rate(m, cfg, cols, draw, emit, inverse):
    dt, sg, rho = cfg.dt, m.sigma, m.rho
    rbar, sqdt = math.sqrt(1.0 - rho * rho), math.sqrt(dt)
    if inverse:
        steps = _log_rate(draw, cfg, m.r0, m.theta, m.a, 0.5 * m.delta * m.delta, m.delta)
    else:
        steps = _vasicek(draw, cfg, m, m.theta / m.a, joint=True)
    logx = np.zeros(draw.nb)
    for step, (_, ri, z) in enumerate(steps, 1):
        # z is the log rate's normal, or the Vasicek step's exact dB.
        noise = sg * sqdt * (rho * z + rbar * draw.normals()) if inverse else sg * z
        logx += (m.mu - 0.5 * sg * sg) * dt + noise
        if step in cols:
            t = step * dt
            emit(cols[step], t, logx, sg * sg * t, ri)
    return 0


def _growth_ou(m, cfg, cols, draw, emit, inverse):
    dt = cfg.dt
    qint = np.zeros(draw.nb)
    for step, (Y, s_prev, s) in enumerate(_ou(draw, cfg, m), 1):
        qint += 0.5 * (s_prev + s) * dt
        if step in cols:
            # |sigma_s|^2 = 4 |sigma^T Y_s|^2 for log X = |Y|^2.
            emit(cols[step], step * dt, np.sum(Y * Y, axis=0), 4.0 * qint)
    return 0


# ---------------------------------------------------------------------------
# Martingale paths: log M_T per path under the generator's own (tilted for the
# SV and rate variants) dynamics; the killing rate takes the trapezoid rule.
# ---------------------------------------------------------------------------

def _mart_gbm(vp, pair, cfg, draw, inverse):
    m, T = vp.model, cfg.horizon
    logx = next(_lognormal(draw, m.mu - 0.5 * m.sigma ** 2, m.sigma, (T,)))
    k_const = 0.5 * vp.alpha * vp.beta * (vp.beta - 1.0) * m.sigma ** 2
    # phi = x**(alpha beta): log phi(X_T) = alpha beta log X_T.
    return pair.lam * T - k_const * T + vp.alpha * vp.beta * logx


def _mart_garch(vp, pair, cfg, draw, inverse):
    # Constant killing cancels lambda exactly and phi = 1: M is 1.
    return np.zeros(draw.nb)


def _mart_sqrt(pair, cfg, draw, x0, coeffs, kill, state, g0):
    """log M_T on a square-root state from x0 with killing rate ``kill(x)``;
    phi reads G_T = ``state(x_T)`` and G_0 = g0."""
    trap = 0.5 * cfg.dt
    k_prev = kill(x0)
    kint = 0.0
    for *_, x in _sqrt_euler(draw, cfg, x0, *coeffs):
        k_new = kill(x)
        kint += trap * (k_prev + k_new)
        k_prev = k_new
    return (pair.lam * cfg.horizon - kint + pair.phi.log_phi(state(x))
            - pair.phi.log_phi(np.array([g0])))


def _mart_cir(vp, pair, cfg, draw, inverse):
    m = vp.model
    kc = 0.5 * vp.alpha * vp.beta * (vp.beta - 1.0) * m.sigma ** 2
    coeffs = (m.a + m.sigma ** 2, -m.theta, -m.sigma) if inverse else (m.theta, m.mu, m.sigma)
    return _mart_sqrt(
        pair, cfg, draw, 1.0, coeffs,
        lambda x: kc / np.maximum(np.maximum(x, 0.0), STATE_FLOOR),
        (lambda y: 1.0 / np.maximum(y, STATE_FLOOR)) if inverse
        else (lambda x: np.maximum(x, STATE_FLOOR)), 1.0)


def _mart_sv(vp, pair, cfg, draw, inverse):
    m, alpha, beta = vp.model, vp.alpha, vp.beta
    a_t = m.a - alpha * beta * m.delta * m.rho
    kc = 0.5 * alpha * (1.0 - alpha) * beta * beta
    if inverse:
        return _mart_sqrt(
            pair, cfg, draw, 1.0 / m.v0, (a_t + m.delta ** 2, -m.theta, -m.delta),
            lambda w: kc / np.maximum(np.maximum(w, 0.0), RECIP_VARIANCE_FLOOR),
            lambda w: 1.0 / np.maximum(w, RECIP_VARIANCE_FLOOR), m.v0)
    return _mart_sqrt(pair, cfg, draw, m.v0, (m.theta, -a_t, m.delta),
                      lambda v: kc * np.maximum(v, 0.0), lambda v: np.maximum(v, 0.0), m.v0)


def _mart_rate(vp, pair, cfg, draw, inverse):
    m = vp.model
    th_t = m.theta + vp.alpha * vp.beta * m.delta * m.sigma * m.rho
    if inverse:
        steps = _log_rate(draw, cfg, m.r0, th_t, m.a, 0.5 * m.delta ** 2, m.delta)
    else:
        steps = _vasicek(draw, cfg, m, th_t / m.a, joint=False)
    for r, ri, _ in steps:
        pass
    return (pair.lam * cfg.horizon - vp.alpha * (vp.beta - 1.0) * ri
            + pair.phi.log_phi(r) - pair.phi.log_phi(np.array([m.r0])))


def _mart_ou(vp, pair, cfg, draw, inverse):
    m = vp.model
    trap = 0.5 * cfg.dt
    q_coeff = m.killing_coeff(vp.alpha, vp.beta)[0]
    kint = np.zeros(draw.nb)
    for Y, s_prev, s in _ou(draw, cfg, m):
        kint += trap * q_coeff * (s_prev + s)
    return (pair.lam * cfg.horizon - kint + pair.phi.log_phi(Y.T)
            - pair.phi.log_phi(np.zeros((1, m.d))))


@dataclass(frozen=True)
class _Scheme:
    """How the oracle simulates one catalog kind."""

    label: str             # GrowthEstimate.scheme
    steps_per_year: int | None  # desk density; None: exact at any step length
    growth: Callable       # (model, cfg, cols, draw, emit, inverse) -> truncations
    martingale: Callable   # (vp, pair, cfg, draw, inverse) -> log M_T per path
    # The family's second model: inverse GARCH, the 3/2 models (through the
    # reciprocal CIR state) or the inverse-GARCH rate.
    inverse: bool = False


_SCHEMES = {
    "gbm": _Scheme("exact-lognormal", 50, _growth_gbm, _mart_gbm),
    "garch": _Scheme("log-euler", 50, _growth_garch, _mart_garch),
    "inverse_garch": _Scheme("log-euler-reciprocal", 50, _growth_garch, _mart_garch, True),
    "extended_cir": _Scheme("full-truncation", 50, _growth_cir, _mart_cir),
    "three_halves": _Scheme("reciprocal-cir", 50, _growth_cir, _mart_cir, True),
    "heston_sv": _Scheme("heston-full-truncation-conditional", 100, _growth_sv, _mart_sv),
    "three_halves_sv": _Scheme("reciprocal-cir-vol-conditional", 50, _growth_sv, _mart_sv, True),
    "gbm_vasicek": _Scheme("exact-gaussian", None, _growth_rate, _mart_rate),
    "gbm_inverse_garch_rate": _Scheme("log-euler-rate", 50, _growth_rate, _mart_rate, True),
    "quadratic": _Scheme("exact-ou-quadratic", 50, _growth_ou, _mart_ou),
}


# ---------------------------------------------------------------------------
# Growth estimation
# ---------------------------------------------------------------------------

def _scheme_for(kind: str, cfg: SimConfig) -> _Scheme:
    """The kind's scheme; a stepped one needs MIN_STEPS_PER_YEAR steps a year."""
    scheme = _SCHEMES[kind]
    if scheme.steps_per_year is not None and cfg.n_steps < MIN_STEPS_PER_YEAR * cfg.horizon:
        raise ValueError(f"need at least {MIN_STEPS_PER_YEAR} steps per year of horizon")
    return scheme


def _collect(vp: ValidatedProblem, cfg: SimConfig):
    scheme = _scheme_for(vp.model.kind, cfg)
    cols = {int(s): k for k, s in enumerate(cfg.checkpoint_steps())}

    def kernel(draw, put):
        def emit(row, t, state, volint, rate_int=None, cond_var=None):
            put(row, _log_utility(vp, t, state, volint, rate_int, cond_var))
        return scheme.growth(vp.model, cfg, cols, draw, emit, scheme.inverse)

    vals, trunc_events = _simulate(cfg, len(cfg.t_checkpoints), kernel)
    trunc_frac = trunc_events / (cfg.n_paths * cfg.n_steps)
    if trunc_frac > TRUNCATION_BUDGET:
        raise SchemeUnstable(
            f"{100 * trunc_frac:.2f}% of steps truncated a negative state; "
            "refine the grid")
    return vals, trunc_frac


def _wls_slope(t: np.ndarray, lm: np.ndarray, cov: np.ndarray):
    if t.size == 1:
        # Single checkpoint: fall back to the rate through the origin.
        return float(lm[0] / t[0]), float(math.sqrt(max(cov[0, 0], 0.0)) / t[0])
    var = np.clip(np.diag(cov), 1e-30, None)
    w = 1.0 / var
    X = np.stack([np.ones_like(t), t], axis=1)
    xtwx = X.T @ (w[:, None] * X)
    coeff_mat = np.linalg.solve(xtwx, (w[:, None] * X).T)  # (2, K)
    slope = float(coeff_mat[1] @ lm)
    slope_var = float(coeff_mat[1] @ cov @ coeff_mat[1])
    return slope, math.sqrt(max(slope_var, 0.0))


def simulate_growth(vp: ValidatedProblem, cfg: SimConfig) -> GrowthEstimate:
    """Estimate the long-term growth rate of E[L_t^alpha] by simulation.

    The tail slope is a weighted least-squares fit of the per-checkpoint
    log-mean utilities over the last half of the checkpoints; its standard
    error uses the full cross-checkpoint covariance of the estimates (the
    same paths enter every checkpoint).  Deterministic for a fixed
    SimConfig, independent of how path blocks are scheduled.

    Raises
    ------
    AllPathsDiverged
        If no usable pair survives at some checkpoint.
    SchemeUnstable
        If full-truncation clamping exceeds its budget.
    """
    vals, trunc_frac = _collect(vp, cfg)   # (K, paths)
    firsts, mates = _pairs(vals)           # (K, P) each
    K, n = vals.shape
    t = np.asarray(cfg.t_checkpoints)

    # Finiteness row by row, so no boolean array of the matrix's size exists.
    pair_ok = np.ones(n // 2, dtype=bool)
    worst = 0
    for row in vals:
        finite = np.isfinite(row)
        worst = max(worst, n - int(np.count_nonzero(finite)))
        pair_ok &= finite[:n // 2] & finite[n // 2:]
    overflow_fraction = worst / n
    n_good = int(np.count_nonzero(pair_ok))
    all_ok = n_good == pair_ok.size
    if n_good == 0:
        raise AllPathsDiverged("no finite utility path at the checkpoints")

    # The WLS fit and the acceleration test read only the tail checkpoints'
    # covariance.  Their normalised weights go into a contiguous block of
    # the head rows, which are read by then; row j of the block ends before
    # row tail + j of ``vals`` starts.
    tail = K // 2
    lm = np.empty(K)
    se = np.empty(K)
    ess = np.empty(K)
    g_rows = (vals.reshape(-1)[:(K - tail) * n_good].reshape(K - tail, n_good)
              if tail else np.empty((1, n_good)))
    wp, buf = np.empty(n_good), np.empty(n_good)
    for k in range(K):
        x1, x2 = firsts[k], mates[k]
        if not all_ok:
            x1, x2 = np.compress(pair_ok, x1, out=wp), np.compress(pair_ok, x2, out=buf)
        shift = max(float(np.max(x1)), float(np.max(x2)))
        np.exp(np.subtract(x1, shift, out=wp), out=wp)
        np.exp(np.subtract(x2, shift, out=buf), out=buf)
        np.multiply(0.5, np.add(wp, buf, out=wp), out=wp)
        # np.mean and np.std(ddof=1) by the same reductions, on no new array.
        s1 = float(np.add.reduce(wp))
        mean_w = s1 / n_good
        lm[k] = math.log(mean_w) + shift
        np.subtract(wp, mean_w, out=buf)
        ss = float(np.add.reduce(np.multiply(buf, buf, out=buf)))
        sd = math.sqrt(ss / (n_good - 1)) if n_good > 1 else 0.0
        se[k] = sd / (mean_w * math.sqrt(n_good))
        s2 = float(np.add.reduce(np.multiply(wp, wp, out=buf)))
        ess[k] = s1 * s1 / s2 if s2 > 0 else 0.0
        if k >= tail:
            np.divide(wp, mean_w, out=g_rows[k - tail])

    # np.cov(g_rows, ddof=1) / n_good, centred in place rather than on a copy.
    g_rows -= g_rows.mean(axis=1)[:, None]
    cov = np.dot(g_rows, g_rows.T)
    cov *= np.true_divide(1, n_good - 1)
    cov /= n_good  # tail x tail
    slope, slope_se = _wls_slope(t[tail:], lm[tail:], cov)

    reasons = []
    if overflow_fraction > OVERFLOW_BUDGET:
        reasons.append(f"overflow fraction {overflow_fraction:.2%}")
    ess_floor = max(50.0, 1e-3 * n_good)
    if ess[-1] < ess_floor:
        reasons.append(f"effective sample size collapsed to {ess[-1]:.1f} "
                       f"at t={t[-1]:g}")
    # Acceleration is judged inside the tail window only: the early
    # checkpoints legitimately carry the transient of the transformed-measure
    # prefactor, which an affine tail has already shed.
    accel = math.nan
    if K - tail >= 4:
        mid = tail + (K - tail) // 2
        c = mid - tail
        s1, se1 = _wls_slope(t[tail:mid], lm[tail:mid], cov[:c, :c])
        s2, se2 = _wls_slope(t[mid:], lm[mid:], cov[c:, c:])
        gap_se = math.hypot(se1, se2)
        accel = (s2 - s1) / max(gap_se, 1e-300)
        if s2 - s1 > 4.0 * max(gap_se, 1e-12):
            reasons.append(f"slope accelerating: {s1:.4g} -> {s2:.4g} (+{accel:.1f} se)")

    return GrowthEstimate(
        t=t, log_mean_utility=lm, stderr=se, ess=ess,
        slope=slope, slope_stderr=slope_se,
        diverged=bool(reasons), overflow_fraction=overflow_fraction,
        truncation_fraction=trunc_frac, n_paths=cfg.n_paths,
        scheme=_SCHEMES[vp.model.kind].label, divergence_reasons=tuple(reasons),
        tail_acceleration_se=accel,
    )


def verdict_for(estimate: GrowthEstimate, analytic: GrowthRate) -> str:
    """PASS / FAIL / DIVERGED verdict of the oracle against a closed form.

    A finite closed form passes when |slope - rate| is within
    max(0.05 * |rate|, 3 * slope stderr).  An infinite classification
    passes exactly when the estimator flagged divergence.
    """
    if not analytic.is_finite:
        return "DIVERGED" if estimate.diverged else "FAIL"
    if estimate.diverged:
        return "DIVERGED"
    gap = abs(estimate.slope - analytic.rate)
    tol = max(VERDICT_REL_TOL * abs(analytic.rate), 3.0 * estimate.slope_stderr)
    return "PASS" if gap <= tol else "FAIL"


# ---------------------------------------------------------------------------
# Martingale certificates
# ---------------------------------------------------------------------------

def martingale_check(vp: ValidatedProblem, pair: Eigenpair, t: float,
                     cfg: SimConfig | None = None) -> MartingaleEstimate:
    """Estimate E[M_t] for M_t = exp(lambda t - int k) phi(G_t)/phi(G_0).

    The pair is admissible exactly when M is a true martingale, i.e.
    E[M_t] = 1; the certificate is |mean - 1| <= 3 stderr.  A given
    ``cfg`` must have ``horizon == t``; None: 2e5 paths, seed 42 and 400
    steps/yr, or one step over t for a scheme exact at any step length.
    """
    kind = vp.model.kind
    if cfg is None:
        n_steps = 1 if _SCHEMES[kind].steps_per_year is None else max(50, int(round(400 * t)))
        cfg = SimConfig(horizon=t, n_steps=n_steps, n_paths=200_000, seed=42,
                        t_checkpoints=(t,))
    elif cfg.horizon != t:
        raise ValueError(f"cfg.horizon {cfg.horizon} differs from t {t}")
    scheme = _scheme_for(kind, cfg)

    def kernel(draw, put):
        put(0, scheme.martingale(vp, pair, cfg, draw, scheme.inverse))
        return 0

    logm, _ = _simulate(cfg, 1, kernel)
    firsts, mates = _pairs(logm[0])
    ok = np.isfinite(firsts) & np.isfinite(mates)
    n_good = int(np.count_nonzero(ok))
    if n_good == 0:
        raise AllPathsDiverged("martingale paths all overflowed")
    wp = 0.5 * (np.exp(firsts[ok]) + np.exp(mates[ok]))
    mean = float(np.mean(wp))
    sd = float(np.std(wp, ddof=1)) if n_good > 1 else 0.0
    return MartingaleEstimate(t=cfg.horizon, mean=mean,
                              stderr=sd / math.sqrt(n_good),
                              n_paths=cfg.n_paths)
