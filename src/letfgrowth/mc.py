"""Independent Monte Carlo oracle for growth rates and martingale certificates.

This module never consults the closed forms it is meant to check: it
simulates each model's SDE under the subjective measure, accumulates the
fund's log price from its exact path decomposition

    log L_t = beta log X_t - (beta-1) int r ds - beta(beta-1)/2 int |sigma_s|^2 ds

(or the squared-state analogue for the quadratic model), and estimates
lim (1/t) log E[L_t^alpha] as the tail slope of the per-checkpoint
log-mean utilities.

Schemes per model
-----------------
* GBM and the Vasicek-rate variant use exact Gaussian transitions (the
  Vasicek step samples the triple (rate, integrated rate, reference
  Brownian) from its exact joint law, so there is no discretization bias).
* GARCH and the inverse-GARCH variants step the log state with Euler, the
  inverse models through their GARCH reciprocal.
* Square-root states (extended CIR, Heston variance) use full-truncation
  Euler; the 3/2 states are simulated through their reciprocal CIR form.
* The quadratic OU state uses exact Gaussian transitions with trapezoidal
  accumulation of int |sigma^T Y|^2 du.

Determinism
-----------
Paths are laid out in fixed blocks of ``block_size``; block ``j`` draws its
normals from its own ``Philox(SeedSequence(seed, spawn_key=(j,)))`` stream,
in the same order and count however blocks are grouped.  Consecutive blocks
are fused into lanes of at most ``LANE_PATHS`` paths that run the kernel
body once; every kernel operation acts path by path, so a path's value does
not depend on its lane.  Utilities are stored checkpoint-major,
``(checkpoints, paths)``: with antithetic pairing all pair firsts come
first, in block order, and their mates (the negated draws) follow in the
same order.  Statistics treat pair averages as the independent units and
reduce them in that fixed order, so results are bit-identical for a given
SimConfig.  A call keeps no state outside its own arrays, so calls from
several threads do not interact.

Utilities are accumulated in log space and exponentiated against a global
per-checkpoint shift, so heavy tails show up as a collapsing effective
sample size rather than silent overflow.  That collapse (or a measured
acceleration of the slope between the first and second half of the
checkpoints, or outright path overflow) raises the ``diverged`` flag: it is
the empirical signature of an infinite or borderline utility moment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .eigen import Eigenpair
from .errors import AllPathsDiverged, SchemeUnstable
from .growth import GrowthRate
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
)

__all__ = [
    "SimConfig",
    "desk_config",
    "GrowthEstimate",
    "MartingaleEstimate",
    "simulate_growth",
    "martingale_check",
    "cir_density",
    "cir_transition_mean",
    "garch_stationary_density",
    "verdict_for",
]

STATE_FLOOR = 1e-12
TRUNCATION_BUDGET = 0.01  # fraction of (path, step) events
OVERFLOW_BUDGET = 1e-3    # fraction of paths per checkpoint
# Paths per fused lane: wide enough to amortize the per-step Python work,
# narrow enough that a step's temporaries stay in cache.
LANE_PATHS = 16384

SCHEMES = {
    "gbm": "exact-lognormal",
    "garch": "log-euler",
    "inverse_garch": "log-euler-reciprocal",
    "extended_cir": "full-truncation",
    "three_halves": "reciprocal-cir",
    "heston_sv": "heston-full-truncation",
    "three_halves_sv": "reciprocal-cir-vol",
    "gbm_vasicek": "exact-gaussian",
    "gbm_inverse_garch_rate": "log-euler-rate",
    "quadratic": "exact-ou-quadratic",
}

EXACT_SCHEME_KINDS = frozenset({"gbm", "gbm_vasicek"})


@dataclass(frozen=True)
class SimConfig:
    """Simulation configuration.

    ``t_checkpoints`` must be sorted, nonempty and contained in
    (0, horizon]; each must land on the step grid.  An empty tuple selects
    ten evenly spaced checkpoints.
    """

    horizon: float
    n_steps: int
    n_paths: int
    seed: int
    t_checkpoints: tuple[float, ...] = ()
    antithetic: bool = True
    block_size: int = 16384

    def __post_init__(self):
        if not self.horizon > 0.0:
            raise ValueError("horizon must be positive")
        if self.n_steps < 50 * self.horizon:
            raise ValueError("need at least 50 steps per year of horizon")
        if self.n_paths < 1000:
            raise ValueError("need at least 1000 paths")
        if self.antithetic and self.n_paths % 2:
            raise ValueError("antithetic pairing needs an even path count")
        if self.block_size % 2:
            raise ValueError("block size must be even")
        if not self.t_checkpoints:
            object.__setattr__(self, "t_checkpoints", tuple(
                self.horizon * k / 10.0 for k in range(1, 11)))
        ts = self.t_checkpoints
        if any(t2 <= t1 for t1, t2 in zip(ts, ts[1:])) or ts[0] <= 0.0 \
                or ts[-1] > self.horizon * (1.0 + 1e-12):
            raise ValueError("checkpoints must be sorted inside (0, horizon]")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    def checkpoint_steps(self) -> np.ndarray:
        idx = np.asarray([int(round(t / self.dt)) for t in self.t_checkpoints])
        for t, i in zip(self.t_checkpoints, idx):
            if abs(i * self.dt - t) > 1e-9 * max(1.0, self.horizon) or i < 1:
                raise ValueError(f"checkpoint {t} does not land on the step grid")
        return idx


def desk_config(vp_or_kind, seed: int = 42, horizon: float = 20.0,
                n_paths: int = 200_000) -> SimConfig:
    """Desk-scale defaults: T = 20y, 2e5 paths, 400 steps/year.

    Exact-transition schemes (GBM, Vasicek rate) only need 50 steps/year.
    """
    kind = vp_or_kind if isinstance(vp_or_kind, str) else vp_or_kind.model.kind
    per_year = 50 if kind in EXACT_SCHEME_KINDS else 400
    return SimConfig(horizon=horizon, n_steps=int(round(per_year * horizon)),
                     n_paths=n_paths, seed=seed)


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


def _blocks(n_paths: int, block_size: int):
    start = 0
    idx = 0
    while start < n_paths:
        nb = min(block_size, n_paths - start)
        if nb % 2:
            # Only the last block of an odd run without antithetic pairing:
            # it simulates one extra path, which is dropped.
            nb += 1
        yield idx, start, nb
        start += nb
        idx += 1


def _lanes(n_paths: int, block_size: int):
    """Consecutive blocks fused into lanes of at most LANE_PATHS paths
    (a single block wider than that is a lane of its own)."""
    lane, width = [], 0
    for blk in _blocks(n_paths, block_size):
        if lane and width + blk[2] > LANE_PATHS:
            yield lane
            lane, width = [], 0
        lane.append(blk)
        width += blk[2]
    if lane:
        yield lane


class _Draw:
    """Normals for one lane, laid out pair firsts then mates.

    Each block of the lane draws its share of every request from its own
    generator, in block order; with antithetic pairing the second half of
    the lane mirrors the first.
    """

    def __init__(self, cfg: SimConfig, lane):
        self.antithetic = cfg.antithetic
        self._parts = []  # (generator, first column, width)
        half = 0
        for bidx, _, nb in lane:
            width = nb // 2 if self.antithetic else nb
            self._parts.append((_block_rng(cfg.seed, bidx), half, width))
            half += width
        self._half = half
        self.nb = 2 * half if self.antithetic else half

    def normals(self) -> np.ndarray:
        z = np.empty(self.nb)
        for rng, col, width in self._parts:
            rng.standard_normal(out=z[col:col + width])
        if self.antithetic:
            np.negative(z[:self._half], out=z[self._half:])
        return z

    def normals_matrix(self, d: int) -> np.ndarray:
        z = np.empty((d, self.nb))
        for rng, col, width in self._parts:
            z[:, col:col + width] = rng.standard_normal((d, width))
        if self.antithetic:
            np.negative(z[:, :self._half], out=z[:, self._half:])
        return z


def _simulate(cfg: SimConfig, rows: int, kernel):
    """Run ``kernel(draw, out)`` once per lane, ``out`` being (rows, lane
    paths); return the rows of all paths, pair firsts before mates, and the
    sum of the kernel's return values."""
    n = cfg.n_paths
    half = n // 2 if cfg.antithetic else 0
    vals = np.empty((rows, n))
    total = 0
    done = 0  # pairs (antithetic) or paths stored so far
    for lane in _lanes(n, cfg.block_size):
        draw = _Draw(cfg, lane)
        out = np.empty((rows, draw.nb))
        total += kernel(draw, out)
        if cfg.antithetic:
            h = draw.nb // 2
            vals[:, done:done + h] = out[:, :h]
            vals[:, half + done:half + done + h] = out[:, h:]
            done += h
        else:
            w = min(draw.nb, n - done)
            vals[:, done:done + w] = out[:, :w]
            done += w
    return vals, total


def _pairs(vals: np.ndarray, cfg: SimConfig):
    """(firsts, mates) views along the last axis; without antithetic
    pairing each path is its own pair."""
    if not cfg.antithetic:
        return vals, vals
    h = vals.shape[-1] // 2
    return vals[..., :h], vals[..., h:]


# ---------------------------------------------------------------------------
# Path kernels: fill (K, nb) with alpha * log L at the checkpoints
# ---------------------------------------------------------------------------

def _kernel_growth(vp: ValidatedProblem, cfg: SimConfig, draw: _Draw,
                   out: np.ndarray) -> int:
    """Simulate one lane; returns the count of truncation events."""
    m = vp.model
    alpha, beta = vp.alpha, vp.beta
    nb = draw.nb
    dt = cfg.dt
    sqdt = math.sqrt(dt)
    cp = cfg.checkpoint_steps()
    cp_col = {int(s): k for k, s in enumerate(cp)}
    r = vp.r
    trunc = 0

    if isinstance(m, Gbm):
        # Exact in log space: draw only across checkpoint gaps.
        mu, sg = m.mu, m.sigma
        logx = np.zeros(nb)
        t_prev = 0.0
        for k, t in enumerate(cfg.t_checkpoints):
            gap = t - t_prev
            logx += (mu - 0.5 * sg * sg) * gap + sg * math.sqrt(gap) * draw.normals()
            logl = beta * logx - (beta - 1.0) * r * t \
                - 0.5 * beta * (beta - 1.0) * sg * sg * t
            out[k] = alpha * logl
            t_prev = t
        return 0

    if isinstance(m, (Garch, InverseGarch)):
        sg = m.sigma
        drift_const = -(beta - 1.0) * r - 0.5 * beta * (beta - 1.0) * sg * sg
        if isinstance(m, Garch):
            th, a = m.theta, m.a
            z = np.zeros(nb)  # log X
            for step in range(1, cfg.n_steps + 1):
                z += (th * np.exp(-z) - a - 0.5 * sg * sg) * dt \
                    + sg * sqdt * draw.normals()
                k = cp_col.get(step)
                if k is not None:
                    out[k] = alpha * (beta * z + drift_const * step * dt)
        else:
            # Reciprocal is a GARCH diffusion with level a, reversion theta - sigma^2.
            th_g, a_g = m.a, m.theta - sg * sg
            y = np.zeros(nb)  # log(1/X)
            for step in range(1, cfg.n_steps + 1):
                y += (th_g * np.exp(-y) - a_g - 0.5 * sg * sg) * dt \
                    - sg * sqdt * draw.normals()
                k = cp_col.get(step)
                if k is not None:
                    out[k] = alpha * (-beta * y + drift_const * step * dt)
        return 0

    if isinstance(m, ExtendedCir):
        th, mu, sg = m.theta, m.mu, m.sigma
        x = np.full(nb, 1.0)
        volint = np.zeros(nb)
        for step in range(1, cfg.n_steps + 1):
            xp = np.maximum(x, 0.0)
            trunc += int(np.count_nonzero(x < 0.0))
            volint += sg * sg / np.maximum(xp, STATE_FLOOR) * dt
            x = x + (th + mu * xp) * dt + sg * np.sqrt(xp * dt) * draw.normals()
            k = cp_col.get(step)
            if k is not None:
                t = step * dt
                logl = beta * np.log(np.maximum(x, STATE_FLOOR)) \
                    - (beta - 1.0) * r * t - 0.5 * beta * (beta - 1.0) * volint
                out[k] = alpha * logl
        return trunc

    if isinstance(m, ThreeHalves):
        th, a, sg = m.theta, m.a, m.sigma
        y = np.full(nb, 1.0)  # reciprocal state, a CIR process
        volint = np.zeros(nb)
        for step in range(1, cfg.n_steps + 1):
            yp = np.maximum(y, 0.0)
            trunc += int(np.count_nonzero(y < 0.0))
            volint += sg * sg / np.maximum(yp, STATE_FLOOR) * dt  # |sigma_s|^2 = sg^2 X
            y = y + (a + sg * sg - th * yp) * dt - sg * np.sqrt(yp * dt) * draw.normals()
            k = cp_col.get(step)
            if k is not None:
                t = step * dt
                logl = -beta * np.log(np.maximum(y, STATE_FLOOR)) \
                    - (beta - 1.0) * r * t - 0.5 * beta * (beta - 1.0) * volint
                out[k] = alpha * logl
        return trunc

    if isinstance(m, HestonSV):
        mu, th, a, de, rho = m.mu, m.theta, m.a, m.delta, m.rho
        rbar = math.sqrt(1.0 - rho * rho)
        v = np.full(nb, m.v0)
        logx = np.zeros(nb)
        ivar = np.zeros(nb)
        for step in range(1, cfg.n_steps + 1):
            vp_ = np.maximum(v, 0.0)
            trunc += int(np.count_nonzero(v < 0.0))
            zv = draw.normals()
            zx = draw.normals()
            ivar += vp_ * dt
            logx += (mu - 0.5 * vp_) * dt + np.sqrt(vp_ * dt) * (rho * zv + rbar * zx)
            v = v + (th - a * vp_) * dt + de * np.sqrt(vp_ * dt) * zv
            k = cp_col.get(step)
            if k is not None:
                t = step * dt
                logl = beta * logx - (beta - 1.0) * r * t \
                    - 0.5 * beta * (beta - 1.0) * ivar
                out[k] = alpha * logl
        return trunc

    if isinstance(m, ThreeHalvesSV):
        mu, th, a, de, rho = m.mu, m.theta, m.a, m.delta, m.rho
        rbar = math.sqrt(1.0 - rho * rho)
        w = np.full(nb, 1.0 / m.v0)  # reciprocal variance, a CIR process
        logx = np.zeros(nb)
        ivar = np.zeros(nb)
        for step in range(1, cfg.n_steps + 1):
            wp = np.maximum(w, 0.0)
            trunc += int(np.count_nonzero(w < STATE_FLOOR))
            v_cur = 1.0 / np.maximum(wp, 1e-6)
            zw = draw.normals()
            zx = draw.normals()
            ivar += v_cur * dt
            # The reciprocal equation dw = ... - delta sqrt(w) dZ already
            # carries the minus sign, so zw is the Z increment itself.
            logx += (mu - 0.5 * v_cur) * dt \
                + np.sqrt(v_cur * dt) * (rho * zw + rbar * zx)
            w = w + (a + de * de - th * wp) * dt - de * np.sqrt(wp * dt) * zw
            k = cp_col.get(step)
            if k is not None:
                t = step * dt
                logl = beta * logx - (beta - 1.0) * r * t \
                    - 0.5 * beta * (beta - 1.0) * ivar
                out[k] = alpha * logl
        return trunc

    if isinstance(m, GbmVasicek):
        chol, e1, mean_level = _vasicek_step_law(m, dt)
        mu, sg, a = m.mu, m.sigma, m.a
        rr = np.full(nb, m.r0)
        ri = np.zeros(nb)
        logx = np.zeros(nb)
        for step in range(1, cfg.n_steps + 1):
            z = draw.normals_matrix(3)
            dr_c, di_c, db = chol @ z
            ri += mean_level * dt + (rr - mean_level) * (1.0 - e1) / a + di_c
            logx += (mu - 0.5 * sg * sg) * dt + sg * db
            rr = mean_level + (rr - mean_level) * e1 + dr_c
            k = cp_col.get(step)
            if k is not None:
                t = step * dt
                logl = beta * logx - (beta - 1.0) * ri \
                    - 0.5 * beta * (beta - 1.0) * sg * sg * t
                out[k] = alpha * logl
        return 0

    if isinstance(m, GbmInverseGarchRate):
        mu, sg, th, a, de, rho = m.mu, m.sigma, m.theta, m.a, m.delta, m.rho
        rbar = math.sqrt(1.0 - rho * rho)
        z = np.full(nb, math.log(m.r0))
        ri = np.zeros(nb)
        logx = np.zeros(nb)
        r_prev = np.exp(z)
        for step in range(1, cfg.n_steps + 1):
            zr = draw.normals()
            zx = draw.normals()
            z = z + (th - a * r_prev - 0.5 * de * de) * dt + de * sqdt * zr
            r_new = np.exp(z)
            ri += 0.5 * (r_prev + r_new) * dt
            logx += (mu - 0.5 * sg * sg) * dt + sg * sqdt * (rho * zr + rbar * zx)
            r_prev = r_new
            k = cp_col.get(step)
            if k is not None:
                t = step * dt
                logl = beta * logx - (beta - 1.0) * ri \
                    - 0.5 * beta * (beta - 1.0) * sg * sg * t
                out[k] = alpha * logl
        return 0

    if isinstance(m, Quadratic):
        Ad, bd, Ld = _ou_step_law(m.Bmat, m.a, m.b, dt)
        sigT = m.sigma.T
        Y = np.zeros((m.d, nb))
        qint = np.zeros(nb)
        s_prev = np.zeros(nb)
        for step in range(1, cfg.n_steps + 1):
            Y = Ad @ Y + bd[:, None] + Ld @ draw.normals_matrix(m.d)
            s_new = np.sum((sigT @ Y) ** 2, axis=0)
            qint += 0.5 * (s_prev + s_new) * dt
            s_prev = s_new
            k = cp_col.get(step)
            if k is not None:
                t = step * dt
                logl = beta * np.sum(Y * Y, axis=0) - r * (beta - 1.0) * t \
                    - 2.0 * beta * (beta - 1.0) * qint
                out[k] = alpha * logl
        return 0

    raise TypeError(f"no simulation kernel for model kind {m.kind!r}")


def _vasicek_step_law(m: GbmVasicek, dt: float):
    """Cholesky of the exact per-step law of (r-innovation, dI, dB)."""
    a, de, rho = m.a, m.delta, m.rho
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
    # Tiny negative eigenvalues from cancellation are lifted before Cholesky.
    w, q = np.linalg.eigh(cov)
    w = np.maximum(w, 0.0)
    chol = q @ np.diag(np.sqrt(w))
    return chol, e1, m.theta / m.a


def _ou_step_law(Bmat: np.ndarray, a: np.ndarray, b: np.ndarray, dt: float):
    """Exact OU step: Y' = Ad Y + bd + Ld xi with Ld Ld^T the step covariance.

    The step covariance int_0^dt exp(Bs) a exp(B^T s) ds comes from the
    block-matrix exponential of [[-B, a], [0, B^T]] (Van Loan).
    """
    from scipy.linalg import expm

    d = Bmat.shape[0]
    Ad = expm(Bmat * dt)
    blk = np.zeros((2 * d, 2 * d))
    blk[:d, :d] = -Bmat
    blk[:d, d:] = a
    blk[d:, d:] = Bmat.T
    eb = expm(blk * dt)
    cov = Ad @ eb[:d, d:]
    cov = 0.5 * (cov + cov.T)
    w, q = np.linalg.eigh(cov)
    Ld = q @ np.diag(np.sqrt(np.maximum(w, 0.0)))
    aug = np.zeros((d + 1, d + 1))
    aug[:d, :d] = Bmat
    aug[:d, d] = b
    bd = expm(aug * dt)[:d, d]
    return Ad, bd, Ld


# ---------------------------------------------------------------------------
# Growth estimation
# ---------------------------------------------------------------------------

def _collect(vp: ValidatedProblem, cfg: SimConfig):
    vals, trunc_events = _simulate(
        cfg, len(cfg.t_checkpoints),
        lambda draw, out: _kernel_growth(vp, cfg, draw, out))
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
    firsts, mates = _pairs(vals, cfg)      # (K, P) each
    K = vals.shape[0]
    t = np.asarray(cfg.t_checkpoints)

    finite = np.isfinite(vals)
    overflow_fraction = float(np.max(np.mean(~finite, axis=1)))
    ok_first, ok_mate = _pairs(np.all(finite, axis=0), cfg)
    pair_ok = ok_first & ok_mate
    n_good = int(np.count_nonzero(pair_ok))
    all_ok = n_good == pair_ok.size
    if n_good == 0:
        raise AllPathsDiverged("no finite utility path at the checkpoints")

    # The WLS fit and the acceleration test read only the tail checkpoints'
    # covariance.
    tail = K // 2
    lm = np.empty(K)
    se = np.empty(K)
    ess = np.empty(K)
    g_rows = np.empty((K - tail, n_good))
    for k in range(K):
        x1, x2 = firsts[k], mates[k]
        if not all_ok:
            x1, x2 = x1[pair_ok], x2[pair_ok]
        shift = max(float(np.max(x1)), float(np.max(x2)))
        wp = 0.5 * (np.exp(x1 - shift) + np.exp(x2 - shift))
        mean_w = float(np.mean(wp))
        lm[k] = math.log(mean_w) + shift
        sd = float(np.std(wp, ddof=1)) if n_good > 1 else 0.0
        se[k] = sd / (mean_w * math.sqrt(n_good))
        s1 = float(np.sum(wp))
        s2 = float(np.sum(wp * wp))
        ess[k] = s1 * s1 / s2 if s2 > 0 else 0.0
        if k >= tail:
            g_rows[k - tail] = wp / mean_w

    cov = np.atleast_2d(np.cov(g_rows, ddof=1) / n_good)  # tail x tail
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
    if K - tail >= 4:
        mid = tail + (K - tail) // 2
        c = mid - tail
        s1, se1 = _wls_slope(t[tail:mid], lm[tail:mid], cov[:c, :c])
        s2, se2 = _wls_slope(t[mid:], lm[mid:], cov[c:, c:])
        gap_se = math.hypot(se1, se2)
        if s2 - s1 > 4.0 * max(gap_se, 1e-12):
            reasons.append(
                f"slope accelerating: {s1:.4g} -> {s2:.4g} (+{(s2 - s1) / max(gap_se, 1e-300):.1f} se)")

    return GrowthEstimate(
        t=t, log_mean_utility=lm, stderr=se, ess=ess,
        slope=slope, slope_stderr=slope_se,
        diverged=bool(reasons), overflow_fraction=overflow_fraction,
        truncation_fraction=trunc_frac, n_paths=cfg.n_paths,
        scheme=SCHEMES[vp.model.kind], divergence_reasons=tuple(reasons),
    )


def verdict_for(estimate: GrowthEstimate, analytic: GrowthRate,
                rel_tol: float = 0.05) -> str:
    """PASS / FAIL / DIVERGED verdict of the oracle against a closed form.

    A finite closed form passes when |slope - rate| is within
    max(rel_tol * |rate|, 3 * slope stderr).  An infinite classification
    passes exactly when the estimator flagged divergence.
    """
    if not analytic.is_finite:
        return "DIVERGED" if estimate.diverged else "FAIL"
    if estimate.diverged:
        return "DIVERGED"
    gap = abs(estimate.slope - analytic.rate)
    tol = max(rel_tol * abs(analytic.rate), 3.0 * estimate.slope_stderr)
    return "PASS" if gap <= tol else "FAIL"


# ---------------------------------------------------------------------------
# Martingale certificates
# ---------------------------------------------------------------------------

def _kernel_martingale(vp: ValidatedProblem, pair: Eigenpair, cfg: SimConfig,
                       draw: _Draw) -> np.ndarray:
    """log M_T per path for one lane; the state follows the generator's
    own dynamics (the exponentially tilted drift for the stochastic
    volatility / rate variants)."""
    m = vp.model
    alpha, beta = vp.alpha, vp.beta
    nb = draw.nb
    dt = cfg.dt
    sqdt = math.sqrt(dt)
    T = cfg.horizon
    lam = pair.lam
    trap = 0.5 * dt

    if isinstance(m, Gbm):
        logx = (m.mu - 0.5 * m.sigma ** 2) * T + m.sigma * math.sqrt(T) * draw.normals()
        k_const = 0.5 * alpha * beta * (beta - 1.0) * m.sigma ** 2
        # phi = x**(alpha beta): log phi(X_T) = alpha beta log X_T.
        return lam * T - k_const * T + alpha * beta * logx

    if isinstance(m, (Garch, InverseGarch)):
        # Constant killing cancels lambda exactly and phi = 1: M is 1.
        return np.zeros(nb)

    if isinstance(m, ExtendedCir):
        x = np.full(nb, 1.0)
        kint = np.zeros(nb)
        kc = 0.5 * alpha * beta * (beta - 1.0) * m.sigma ** 2
        k_prev = kc / np.maximum(x, STATE_FLOOR)
        for _ in range(cfg.n_steps):
            xp = np.maximum(x, 0.0)
            x = x + (m.theta + m.mu * xp) * dt \
                + m.sigma * np.sqrt(xp * dt) * draw.normals()
            k_new = kc / np.maximum(np.maximum(x, 0.0), STATE_FLOOR)
            kint += trap * (k_prev + k_new)
            k_prev = k_new
        xT = np.maximum(x, STATE_FLOOR)
        return lam * T - kint + pair.phi.log_phi(xT) - pair.phi.log_phi(np.array([1.0]))

    if isinstance(m, ThreeHalves):
        y = np.full(nb, 1.0)
        kint = np.zeros(nb)
        kc = 0.5 * alpha * beta * (beta - 1.0) * m.sigma ** 2
        k_prev = kc / np.maximum(y, STATE_FLOOR)
        for _ in range(cfg.n_steps):
            yp = np.maximum(y, 0.0)
            y = y + (m.a + m.sigma ** 2 - m.theta * yp) * dt \
                - m.sigma * np.sqrt(yp * dt) * draw.normals()
            k_new = kc / np.maximum(np.maximum(y, 0.0), STATE_FLOOR)
            kint += trap * (k_prev + k_new)
            k_prev = k_new
        xT = 1.0 / np.maximum(y, STATE_FLOOR)
        return lam * T - kint + pair.phi.log_phi(xT) - pair.phi.log_phi(np.array([1.0]))

    if isinstance(m, HestonSV):
        a_t = m.a - alpha * beta * m.delta * m.rho
        kc = 0.5 * alpha * (1.0 - alpha) * beta * beta
        v = np.full(nb, m.v0)
        kint = np.zeros(nb)
        k_prev = kc * v
        for _ in range(cfg.n_steps):
            vp_ = np.maximum(v, 0.0)
            v = v + (m.theta - a_t * vp_) * dt + m.delta * np.sqrt(vp_ * dt) * draw.normals()
            k_new = kc * np.maximum(v, 0.0)
            kint += trap * (k_prev + k_new)
            k_prev = k_new
        vT = np.maximum(v, 0.0)
        return lam * T - kint + pair.phi.log_phi(vT) - pair.phi.log_phi(np.array([m.v0]))

    if isinstance(m, ThreeHalvesSV):
        a_t = m.a - alpha * beta * m.delta * m.rho
        kc = 0.5 * alpha * (1.0 - alpha) * beta * beta
        w = np.full(nb, 1.0 / m.v0)
        kint = np.zeros(nb)
        k_prev = kc / np.maximum(w, 1e-6)
        for _ in range(cfg.n_steps):
            wp = np.maximum(w, 0.0)
            w = w + (a_t + m.delta ** 2 - m.theta * wp) * dt \
                - m.delta * np.sqrt(wp * dt) * draw.normals()
            k_new = kc / np.maximum(np.maximum(w, 0.0), 1e-6)
            kint += trap * (k_prev + k_new)
            k_prev = k_new
        vT = 1.0 / np.maximum(w, 1e-6)
        return lam * T - kint + pair.phi.log_phi(vT) - pair.phi.log_phi(np.array([m.v0]))

    if isinstance(m, GbmVasicek):
        th_t = m.theta + alpha * beta * m.delta * m.sigma * m.rho
        c = alpha * (beta - 1.0)
        a, de = m.a, m.delta
        e1 = math.exp(-a * dt)
        var_r = de * de * (1.0 - e1 * e1) / (2.0 * a)
        var_i = de * de / (a * a) * (dt - 2.0 * (1.0 - e1) / a + (1.0 - e1 * e1) / (2.0 * a))
        cov_ri = de * de / (2.0 * a * a) * (1.0 - e1) ** 2
        cov = np.array([[var_r, cov_ri], [cov_ri, var_i]])
        w, q = np.linalg.eigh(cov)
        chol = q @ np.diag(np.sqrt(np.maximum(w, 0.0)))
        level = th_t / a
        rr = np.full(nb, m.r0)
        ri = np.zeros(nb)
        for _ in range(cfg.n_steps):
            z = draw.normals_matrix(2)
            dr_c, di_c = chol @ z
            ri += level * dt + (rr - level) * (1.0 - e1) / a + di_c
            rr = level + (rr - level) * e1 + dr_c
        return lam * T - c * ri + pair.phi.log_phi(rr) - pair.phi.log_phi(np.array([m.r0]))

    if isinstance(m, GbmInverseGarchRate):
        th_t = m.theta + alpha * beta * m.delta * m.sigma * m.rho
        c = alpha * (beta - 1.0)
        z = np.full(nb, math.log(m.r0))
        ri = np.zeros(nb)
        r_prev = np.exp(z)
        for _ in range(cfg.n_steps):
            z = z + (th_t - m.a * r_prev - 0.5 * m.delta ** 2) * dt \
                + m.delta * sqdt * draw.normals()
            r_new = np.exp(z)
            ri += 0.5 * (r_prev + r_new) * dt
            r_prev = r_new
        return lam * T - c * ri + pair.phi.log_phi(r_prev) - pair.phi.log_phi(np.array([m.r0]))

    if isinstance(m, Quadratic):
        q_coeff = 2.0 * alpha * beta * (beta - 1.0)
        Ad, bd, Ld = _ou_step_law(m.Bmat, m.a, m.b, dt)
        sigT = m.sigma.T
        Y = np.zeros((m.d, nb))
        kint = np.zeros(nb)
        s_prev = np.zeros(nb)
        for _ in range(cfg.n_steps):
            Y = Ad @ Y + bd[:, None] + Ld @ draw.normals_matrix(m.d)
            s_new = np.sum((sigT @ Y) ** 2, axis=0)
            kint += trap * q_coeff * (s_prev + s_new)
            s_prev = s_new
        return lam * T - kint + pair.phi.log_phi(Y.T) - pair.phi.log_phi(np.zeros((1, m.d)))

    raise TypeError(f"no martingale kernel for model kind {m.kind!r}")


def martingale_check(vp: ValidatedProblem, pair: Eigenpair, t: float,
                     cfg: SimConfig | None = None, n_paths: int = 200_000,
                     steps_per_year: int = 400, seed: int = 42) -> MartingaleEstimate:
    """Estimate E[M_t] for M_t = exp(lambda t - int k) phi(G_t)/phi(G_0).

    The pair is admissible exactly when M is a true martingale, i.e.
    E[M_t] = 1; the certificate is |mean - 1| <= 3 stderr.
    """
    if cfg is None:
        cfg = SimConfig(horizon=t, n_steps=max(50, int(round(steps_per_year * t))),
                        n_paths=n_paths, seed=seed, t_checkpoints=(t,))

    def kernel(draw, out):
        out[0] = _kernel_martingale(vp, pair, cfg, draw)
        return 0

    logm, _ = _simulate(cfg, 1, kernel)
    firsts, mates = _pairs(logm[0], cfg)
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


# ---------------------------------------------------------------------------
# Reference densities
# ---------------------------------------------------------------------------

def cir_log_density(x, t: float, ell: float, mu: float, sigma: float,
                    x0: float = 1.0):
    """Log transition density of dX = (ell - mu X) dt + sigma sqrt(X) dW.

    g(x; t) = h exp(-u - v) (v/u)^(q/2) I_q(2 sqrt(u v)) with
    h = 2 mu / (sigma^2 (1 - exp(-mu t))), q = 2 ell / sigma^2 - 1,
    u = h x0 exp(-mu t), v = h x.  Evaluated entirely in log scale through
    the exponentially scaled Bessel function, so neither tail can overflow
    or corrupt downstream log-domain integrands.
    """
    from scipy.special import ive

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
    from scipy.special import gammaln

    if theta <= 0.0 or a <= 0.0 or sigma <= 0.0:
        raise ValueError("theta, a, sigma must be positive")
    y = np.asarray(y, dtype=float)
    gamma = 2.0 * a / sigma ** 2 + 1.0
    return np.exp((gamma - 1.0) * np.log(y) - y - gammaln(gamma))
