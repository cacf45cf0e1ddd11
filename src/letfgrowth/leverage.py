"""Optimal leverage ratio: argmax over beta of the long-term growth rate.

Closed forms exist for every variant except the quadratic model:

* GBM: beta* = (mu - r) / ((1 - alpha) sigma^2), the Sharpe ratio over the
  risk aversion (linear in beta when alpha = 1, so boundary).
* GARCH and inverse GARCH: beta* = 1/2 - r / sigma^2, independent of alpha.
* Extended CIR: the rate is affine in beta, so the optimum is a boundary in
  the direction of sign(mu - r).
* 3/2: beta* = 1/2 - sqrt(((1 + 2a/sigma^2)^2 - alpha)/(theta^2/r^2 - alpha))/2
  when alpha < theta^2 / r^2, else the rate is decreasing in beta.
* Heston and 3/2 volatility: the shifted rate is D beta - sqrt(C1 beta^2 +
  2 C2 beta + C3), strictly concave; interior optimum iff C1 > D^2.
* Stochastic-rate variants: the bundled reference curves are quadratic,
  C1 beta^2 + C2 beta + const, with vertex -C2 / (2 C1) when C1 < 0.

For the two stochastic-rate variants the optimizer maximizes the published
quadratic curve (see ``growth.display_growth_value``), which is what the
bundled reference scenarios pin down; the generator-consistent rate from
``growth.growth_rate`` differs in the sign of its financing-level term and
is typically convex in beta (boundary optima).  Both are reported.

When a finiteness condition excludes part of the leverage range, the search
is restricted to the finite region; if the optimum lands on the edge of the
infinite region the result is reported as a boundary with the condition
attached, since infinite growth formally dominates any interior value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import LetfGrowthError, NoFiniteRegion
from .growth import GrowthRate, display_growth_value, growth_curve, growth_rate
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
    "ConcavityProfile",
    "OptimalLeverage",
    "optimal_beta",
    "lambda_derivative",
    "golden_section_max",
    "objective_value",
]

UNCAPPED_BRACKET = (-50.0, 50.0)
GOLDEN_TOL = 1e-10


@dataclass(frozen=True)
class ConcavityProfile:
    """Shape coefficients of the rate as a function of beta.

    For the sqrt shape the (rescaled) objective is
    D*beta - sqrt(C1*beta^2 + 2*C2*beta + C3); strict concavity needs C1 > 0
    and C2^2 - C1*C3 < 0.  For the quadratic shape it is
    C1*beta^2 + C2*beta + const (C3, D unused).  ``shape`` is one of
    "strictly_concave_sqrt", "quadratic", "linear".
    """

    shape: str
    C1: float | None = None
    C2: float | None = None
    C3: float | None = None
    D: float | None = None
    const: float = 0.0


@dataclass(frozen=True)
class OptimalLeverage:
    """Result of the leverage search.

    ``method`` is one of "closed_form", "quadratic_vertex", "concave_search",
    "boundary".  For boundary results ``boundary_side`` is "+cap", "-cap",
    "+inf" or "-inf"; at an infinite side there is no finite maximizer and
    ``beta_star``/``rate_at_star`` are None (unbounded growth is reported,
    not a number).
    """

    beta_star: float | None
    rate_at_star: float | None
    method: str
    boundary_side: str | None = None
    profile: ConcavityProfile | None = None
    notes: tuple[str, ...] = ()


def objective_value(vp: ValidatedProblem, beta: float) -> float:
    """Objective the optimizer maximizes at one beta; -inf off the finite region.

    Equals the classified growth rate for every variant except the
    stochastic-rate ones, where it is the published quadratic curve
    (restricted to the region where the growth rate is classified finite).
    """
    p = vp.with_beta(beta)
    try:
        g = growth_rate(p)
    except LetfGrowthError:
        return -math.inf
    if isinstance(vp.model, (GbmVasicek, GbmInverseGarchRate)):
        return display_growth_value(p) if g.is_finite else -math.inf
    return _rate_or_minus_inf(g)


def _rate_or_minus_inf(g: GrowthRate | None) -> float:
    return g.rate if g is not None and g.is_finite else -math.inf


def golden_section_max(f, lo: float, hi: float, tol: float = GOLDEN_TOL,
                       max_iter: int = 200) -> float:
    """Golden-section maximizer of a unimodal f on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    it = 0
    while abs(b - a) > tol and it < max_iter:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        it += 1
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# Derivatives
# ---------------------------------------------------------------------------

def _sqrt_profile(m, alpha: float, r: float) -> ConcavityProfile:
    if isinstance(m, HestonSV):
        c1 = alpha * (1.0 - alpha) * m.delta ** 2 + (alpha * m.delta * m.rho) ** 2
        c2 = -m.a * alpha * m.delta * m.rho
        c3 = m.a ** 2
        dd = alpha * m.delta ** 2 * (m.mu - r) / m.theta - alpha * m.delta * m.rho
    else:  # ThreeHalvesSV
        shift = m.a + 0.5 * m.delta ** 2
        c1 = alpha * (1.0 - alpha) * m.delta ** 2 + (alpha * m.delta * m.rho) ** 2
        c2 = -alpha * m.delta * m.rho * shift
        c3 = shift ** 2
        dd = ((m.mu - r) * m.delta / m.theta - m.rho) * alpha * m.delta
    return ConcavityProfile(shape="strictly_concave_sqrt", C1=c1, C2=c2, C3=c3, D=dd)


def _quadratic_profile(m, alpha: float) -> ConcavityProfile:
    # Published reference curve: C1 b^2 + C2 b + const.
    a, th, de, sg, rho, mu = m.a, m.theta, m.delta, m.sigma, m.rho, m.mu
    c1 = (-0.5 * alpha * (1.0 - alpha) * sg ** 2
          + (alpha * de) ** 2 / (2.0 * a ** 2)
          + alpha ** 2 * de * sg * rho / a)
    c2 = (alpha * mu
          - (alpha * de) ** 2 / a ** 2
          + alpha * th / a
          - alpha ** 2 * de * sg * rho / a)
    const = (alpha * de) ** 2 / (2.0 * a ** 2) - alpha * th / a
    return ConcavityProfile(shape="quadratic", C1=c1, C2=c2, const=const)


def lambda_derivative(vp: ValidatedProblem, beta: float, mode: str = "exact") -> float:
    """d/d beta of the optimizer's objective at one beta.

    ``mode="exact"`` uses the coded closed form where one exists (all models
    except the quadratic one, which always differences numerically);
    ``mode="fd"`` central-differences the objective with step
    1e-6 * max(1, |beta|) as an independent check.
    """
    if mode == "fd" or isinstance(vp.model, Quadratic):
        h = 1e-6 * max(1.0, abs(beta))
        return (objective_value(vp, beta + h) - objective_value(vp, beta - h)) / (2.0 * h)
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    m = vp.model
    alpha, r = vp.alpha, vp.r
    if isinstance(m, Gbm):
        return alpha * (m.mu - r) - alpha * (1.0 - alpha) * m.sigma ** 2 * beta
    if isinstance(m, (Garch, InverseGarch)):
        return -r * alpha - 0.5 * alpha * m.sigma ** 2 * (2.0 * beta - 1.0)
    if isinstance(m, ExtendedCir):
        return alpha * (m.mu - r)
    if isinstance(m, ThreeHalves):
        half_plus = 0.5 + m.a / m.sigma ** 2
        root = math.sqrt(half_plus ** 2 + alpha * beta * (beta - 1.0))
        return -r * alpha - m.theta * alpha * (2.0 * beta - 1.0) / (2.0 * root)
    if isinstance(m, (HestonSV, ThreeHalvesSV)):
        prof = _sqrt_profile(m, alpha, r)
        q = prof.C1 * beta * beta + 2.0 * prof.C2 * beta + prof.C3
        shifted = prof.D - (prof.C1 * beta + prof.C2) / math.sqrt(q)
        return (m.theta / m.delta ** 2) * shifted
    if isinstance(m, (GbmVasicek, GbmInverseGarchRate)):
        prof = _quadratic_profile(m, alpha)
        return 2.0 * prof.C1 * beta + prof.C2
    raise TypeError(f"unknown model kind {m.kind!r}")


# ---------------------------------------------------------------------------
# Finite-region handling
# ---------------------------------------------------------------------------

def _finite_interval(vp: ValidatedProblem) -> tuple[float, float, str | None]:
    """Finite-classification region as an interval (lo, hi) in beta.

    Returns (lo, hi, condition text or None).  Only the GARCH-family and
    inverse-GARCH-rate conditions carve out half-lines; everything else is
    finite on all of R (within the validated parameter ranges).
    """
    m = vp.model
    alpha = vp.alpha
    if isinstance(m, Garch):
        return (-math.inf, (2.0 * m.a / m.sigma ** 2 + 1.0) / alpha,
                "2a/sigma^2 + 1 > alpha*beta")
    if isinstance(m, InverseGarch):
        return ((1.0 - 2.0 * m.theta / m.sigma ** 2) / alpha, math.inf,
                "alpha*beta + 2*theta/sigma^2 > 1")
    if isinstance(m, GbmInverseGarchRate):
        # alpha(1-beta)/a + (2/delta^2)(theta + alpha*beta*delta*sigma*rho) > 1
        # is linear in beta: s*beta + c0 > 1.
        s = -alpha / m.a + 2.0 * alpha * m.sigma * m.rho / m.delta
        c0 = alpha / m.a + 2.0 * m.theta / m.delta ** 2
        txt = "alpha*(1-beta)/a + (2/delta^2)*(theta + alpha*beta*delta*sigma*rho) > 1"
        if s > 0.0:
            return ((1.0 - c0) / s, math.inf, txt)
        if s < 0.0:
            return (-math.inf, (1.0 - c0) / s, txt)
        return ((-math.inf, math.inf, None) if c0 > 1.0
                else (math.nan, math.nan, txt))
    return (-math.inf, math.inf, None)


def _boundary(side: str, cap, objective, notes) -> OptimalLeverage:
    if side == "+":
        if cap is None:
            return OptimalLeverage(None, None, "boundary", "+inf", notes=tuple(notes))
        b = cap[1]
        val = objective(b)
        return OptimalLeverage(b, None if math.isinf(val) else val, "boundary",
                               "+cap", notes=tuple(notes))
    if cap is None:
        return OptimalLeverage(None, None, "boundary", "-inf", notes=tuple(notes))
    b = cap[0]
    val = objective(b)
    return OptimalLeverage(b, None if math.isinf(val) else val, "boundary",
                           "-cap", notes=tuple(notes))


def optimal_beta(vp: ValidatedProblem,
                 cap: tuple[float, float] | None = None) -> OptimalLeverage:
    """Maximize the growth rate over beta, by closed form where one exists.

    Parameters
    ----------
    vp : ValidatedProblem
        Its own beta is ignored; only model, preference and rate matter.
    cap : (lo, hi) or None
        Restrict the search to a closed interval (e.g. the market range
        (-3, 3)).  None searches all of R; directions of unbounded growth
        are then reported as infinite boundaries.

    Raises
    ------
    NoFiniteRegion
        If the growth rate is infinite on the entire requested range.
    """
    if cap is not None:
        lo, hi = float(cap[0]), float(cap[1])
        if not lo <= hi:
            raise ValueError("cap must be a nonempty closed interval")
        cap = (lo, hi)
    m = vp.model
    alpha, r = vp.alpha, vp.r
    notes: list[str] = []

    def obj(b: float) -> float:
        return objective_value(vp, b)

    def clamp_concave(vertex: float, method: str,
                      profile: ConcavityProfile | None) -> OptimalLeverage:
        """Interior vertex of a concave objective, clamped to cap and finite region."""
        f_lo, f_hi, cond_txt = _finite_interval(vp)
        if math.isnan(f_lo):
            raise NoFiniteRegion(f"growth rate infinite for all beta ({cond_txt})")
        lo = f_lo if cap is None else max(cap[0], f_lo)
        hi = f_hi if cap is None else min(cap[1], f_hi)
        if lo > hi:
            raise NoFiniteRegion(
                f"finite region [{f_lo:g}, {f_hi:g}] does not meet the cap"
                + (f" ({cond_txt})" if cond_txt else ""))
        if vertex < lo or vertex > hi:
            side = "+" if vertex > hi else "-"
            if cond_txt is not None and (
                    (side == "+" and hi == f_hi) or (side == "-" and lo == f_lo)):
                notes.append(
                    f"finite region restricted by {cond_txt}; growth is infinite "
                    f"beyond the {side} edge and formally dominates")
                edge_cap = cap if cap is not None else None
                return _boundary(side, edge_cap, obj, notes)
            notes.append("interior vertex outside the cap")
            return _boundary(side, cap, obj, notes)
        if cap is not None and (vertex == cap[0] or vertex == cap[1]):
            notes.append("interior vertex exactly at the cap edge")
        if cond_txt is not None:
            notes.append(f"search restricted to the finite region of {cond_txt}")
        return OptimalLeverage(vertex, obj(vertex), method, profile=profile,
                               notes=tuple(notes))

    if isinstance(m, Gbm):
        if alpha < 1.0:
            vertex = (m.mu - r) / ((1.0 - alpha) * m.sigma ** 2)
            return clamp_concave(vertex, "closed_form",
                                 ConcavityProfile(shape="quadratic",
                                                  C1=-0.5 * alpha * (1.0 - alpha) * m.sigma ** 2,
                                                  C2=alpha * (m.mu - r),
                                                  const=alpha * r))
        # alpha = 1: rate is linear in beta with slope mu - r.
        if m.mu == r:
            notes.append("objective constant in beta (alpha = 1, mu = r)")
            return OptimalLeverage(0.0, obj(0.0), "closed_form", notes=tuple(notes))
        notes.append("rate linear in beta at alpha = 1")
        return _boundary("+" if m.mu > r else "-", cap, obj, notes)

    if isinstance(m, (Garch, InverseGarch)):
        vertex = 0.5 - r / m.sigma ** 2
        prof = ConcavityProfile(shape="quadratic", C1=-0.5 * alpha * m.sigma ** 2,
                                C2=-r * alpha + 0.5 * alpha * m.sigma ** 2,
                                const=alpha * r)
        return clamp_concave(vertex, "closed_form", prof)

    if isinstance(m, ExtendedCir):
        slope = alpha * (m.mu - r)
        prof = ConcavityProfile(shape="linear", D=slope)
        if slope == 0.0:
            notes.append("rate constant in beta (mu = r)")
            return OptimalLeverage(0.0, obj(0.0), "closed_form", profile=prof,
                                   notes=tuple(notes))
        notes.append("rate affine in beta; a boundary leverage is preferred")
        out = _boundary("+" if slope > 0.0 else "-", cap, obj, notes)
        return OptimalLeverage(out.beta_star, out.rate_at_star, out.method,
                               out.boundary_side, prof, out.notes)

    if isinstance(m, ThreeHalves):
        ratio = m.theta ** 2 / r ** 2
        if alpha >= ratio:
            notes.append("rate decreasing in beta (alpha >= theta^2/r^2)")
            return _boundary("-", cap, obj, notes)
        half_plus_sq = (1.0 + 2.0 * m.a / m.sigma ** 2) ** 2
        vertex = 0.5 - 0.5 * math.sqrt((half_plus_sq - alpha) / (ratio - alpha))
        return clamp_concave(vertex, "closed_form", None)

    if isinstance(m, (HestonSV, ThreeHalvesSV)):
        prof = _sqrt_profile(m, alpha, r)
        c1, c2, c3, dd = prof.C1, prof.C2, prof.C3, prof.D
        if c1 > dd * dd:
            vertex = -c2 / c1 + (abs(dd) / c1) * math.sqrt(
                (c1 * c3 - c2 * c2) / (c1 - dd * dd))
            return clamp_concave(vertex, "closed_form", prof)
        if dd == 0.0:
            notes.append("degenerate flat objective (C1 <= D^2 with D = 0)")
            return OptimalLeverage(0.0, obj(0.0), "closed_form", profile=prof,
                                   notes=tuple(notes))
        notes.append("no interior critical point (C1 <= D^2); "
                     "rate monotone in beta")
        out = _boundary("+" if dd > 0.0 else "-", cap, obj, notes)
        return OptimalLeverage(out.beta_star, out.rate_at_star, out.method,
                               out.boundary_side, prof, out.notes)

    if isinstance(m, (GbmVasicek, GbmInverseGarchRate)):
        prof = _quadratic_profile(m, alpha)
        c1, c2 = prof.C1, prof.C2
        if c1 < 0.0:
            return clamp_concave(-c2 / (2.0 * c1), "quadratic_vertex", prof)
        if c1 == 0.0:
            if c2 == 0.0:
                notes.append("reference curve constant in beta")
                return OptimalLeverage(0.0, obj(0.0), "quadratic_vertex",
                                       profile=prof, notes=tuple(notes))
            notes.append("reference curve linear in beta (C1 = 0)")
            out = _boundary("+" if c2 > 0.0 else "-", cap, obj, notes)
            return OptimalLeverage(out.beta_star, out.rate_at_star, out.method,
                                   out.boundary_side, prof, out.notes)
        # Convex parabola: favored direction is away from the vertex.
        side = "+" if c2 / (2.0 * c1) > 0.0 else "-"
        notes.append("reference curve convex in beta (C1 > 0)")
        out = _boundary(side, cap, obj, notes)
        return OptimalLeverage(out.beta_star, out.rate_at_star, out.method,
                               out.boundary_side, prof, out.notes)

    if isinstance(m, Quadratic):
        lo, hi = cap if cap is not None else UNCAPPED_BRACKET
        if cap is None:
            notes.append(f"uncapped search bracketed on [{lo:g}, {hi:g}]")
        n_scan = max(25, int(round((hi - lo) / 0.25)) + 1)
        grid = [lo + i * (hi - lo) / (n_scan - 1) for i in range(n_scan)]
        vals = [_rate_or_minus_inf(p.growth) for p in growth_curve(vp, grid)]
        best_i = max(range(n_scan), key=vals.__getitem__)
        best_v = vals[best_i]
        if best_v == -math.inf:
            raise NoFiniteRegion("growth rate infinite or unsolvable on the whole range")
        tried = {grid[best_i]: best_v}

        def probe(b: float) -> float:
            tried[b] = obj(b)
            return tried[b]

        blo = grid[max(0, best_i - 1)]
        bhi = grid[min(n_scan - 1, best_i + 1)]
        beta_star = golden_section_max(probe, blo, bhi)
        rate_star = obj(beta_star)
        if not rate_star >= best_v:
            # The refinement walked off the scan maximum, e.g. past the end
            # of the finite region, where the objective drops to -inf.
            beta_star, rate_star = max(tried.items(), key=lambda kv: kv[1])
            notes.append("refinement left the scan maximum; best evaluated point returned")
        if cap is not None and (abs(beta_star - lo) < 1e-6 or abs(beta_star - hi) < 1e-6):
            side = "+" if abs(beta_star - hi) < 1e-6 else "-"
            notes.append("scan maximum at the cap edge")
            return _boundary(side, cap, obj, notes)
        return OptimalLeverage(beta_star, rate_star, "concave_search",
                               notes=tuple(notes))

    raise TypeError(f"unknown model kind {m.kind!r}")
