"""Optimal leverage ratio: argmax over beta of the long-term growth rate.

The module is model-agnostic.  Each model class in ``models`` states its
own leverage derivative, finite region in beta and closed-form optimum rule
(an :class:`Optimum` naming an interior vertex, a boundary side or a flat
objective); the code here clamps a vertex to the cap and the finite region,
resolves boundaries, and runs the numerical search for the quadratic model,
which has no closed-form optimum: a scan of the unclassified rate over beta,
the classification of its maximum, then Newton's method on the model's
exact leverage derivative next to it.

When a finiteness condition excludes part of the leverage range, the search
is restricted to the finite region; if the optimum lands on the edge of the
infinite region the result is reported as a boundary with the condition
attached, since infinite growth formally dominates any interior value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import LetfGrowthError, NoFiniteRegion
from .growth import GrowthRate, display_growth_value, growth_curve, growth_rate

if TYPE_CHECKING:
    from .models import ValidatedProblem

__all__ = [
    "ConcavityProfile",
    "OptimalLeverage",
    "optimal_beta",
    "lambda_derivative",
    "objective_value",
]

UNCAPPED_BRACKET = (-50.0, 50.0)
ROOT_TOL = 1e-12  # bracket width or Newton step at which the slope's root is taken


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
class Optimum:
    """A model's closed-form maximizer: an interior ``vertex`` (clamped to the
    cap and the finite region), a ``side`` ("+" or "-") the objective keeps
    increasing towards, or neither for a flat objective (beta = 0 reported).
    """

    vertex: float | None = None
    side: str | None = None
    method: str = "closed_form"
    profile: ConcavityProfile | None = None
    note: str | None = None


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
    (restricted to the region where the growth rate is classified finite),
    which the bundled reference scenarios pin down.  The generator-consistent
    rate differs in the sign of its financing-level term and is typically
    convex in beta (boundary optima).
    """
    p = vp.with_beta(beta)
    try:
        g = growth_rate(p)
    except LetfGrowthError:
        return -math.inf
    if vp.model.stochastic_rate:
        return display_growth_value(p) if g.is_finite else -math.inf
    return _rate_or_minus_inf(g)


def _rate_or_minus_inf(g: GrowthRate | None) -> float:
    return g.rate if g is not None and g.is_finite else -math.inf


def _hermite_root(x0, s0, c0, x1, s1, c1) -> float:
    """Root, by bisection, of the cubic Hermite through a slope's values s0, s1
    (of opposite signs) and derivatives c0, c1 at x0, x1."""
    h, lo, hi = x1 - x0, 0.0, 1.0
    for _ in range(53):
        t = 0.5 * (lo + hi)
        p = ((s0 * (1.0 + 2.0 * t) + h * c0 * t) * (1.0 - t) ** 2
             + (s1 * (3.0 - 2.0 * t) + h * c1 * (t - 1.0)) * t * t)
        lo, hi = (t, hi) if (p > 0.0) == (s0 > 0.0) else (lo, t)
    return x0 + h * 0.5 * (lo + hi)


def _slope_root(deriv, grid: list[float], i: int) -> float | None:
    """Root of the slope next to the scan maximum ``grid[i]``, or None;
    ``deriv(x)`` gives the slope at x and its derivative, the curvature.

    The slope's sign at grid[i] picks the neighbour to bracket the root
    with.  A nan slope marks a point past the edge of the finite or solvable
    region, so the bracket shrinks towards its finite end by bisection until
    the slope changes sign.  The root of the cubic Hermite through the
    bracket's slopes and curvatures starts Newton's method on the slope,
    which bisects where a Newton point leaves the bracket.  It stops once
    the bracket or the Newton step from the last point is within ROOT_TOL,
    or the bracket is two adjacent floats, and returns that point.  A slope
    that keeps its sign up to the edge of the finite region gives the finite
    point nearest it, to float resolution; up to the end of the grid, None.
    """
    x0, (s0, c0) = grid[i], deriv(grid[i])
    if s0 == 0.0:
        return x0
    j = i + 1 if s0 > 0.0 else i - 1
    if math.isnan(s0) or not 0 <= j < len(grid):
        return None
    x1, (s1, c1) = grid[j], deriv(grid[j])
    if not math.isnan(s1) and (s1 > 0.0) == (s0 > 0.0):
        return None
    x, newton = x1, False
    while True:
        mid = 0.5 * (x0 + x1)
        if math.isnan(s1):
            x, newton = mid, False
            if x in (x0, x1):
                return x0  # the edge of the finite region, to float resolution
        elif abs(x1 - x0) <= ROOT_TOL or mid in (x0, x1):
            return x
        elif not newton:
            x, newton = _hermite_root(x0, s0, c0, x1, s1, c1), True
        else:
            step = -s / c if c != 0.0 else math.nan
            if abs(step) <= ROOT_TOL:
                return x
            x = x + step if min(x0, x1) < x + step < max(x0, x1) else mid
        s, c = deriv(x)
        if s == 0.0:
            return x
        if math.isnan(s) or (s > 0.0) != (s0 > 0.0):
            x1, s1, c1 = x, s, c
        else:
            x0, s0, c0 = x, s, c


# ---------------------------------------------------------------------------
# Derivatives
# ---------------------------------------------------------------------------

def lambda_derivative(vp: ValidatedProblem, beta: float) -> float:
    """d/d beta of the optimizer's objective at one beta, nan where the
    objective is -inf.

    This is the model's own derivative: a closed form, or for the quadratic
    model the sensitivity of its Riccati solution in beta.  The closed forms
    stay finite off the finite region, so the objective is checked first; a
    model without a closed-form optimum (the quadratic one) answers nan
    there itself, from the one Riccati chain its ``rate_and_slope`` solves.
    """
    m = vp.model
    if m.optimum is not None and objective_value(vp, beta) == -math.inf:
        return math.nan
    return m.derivative(vp.alpha, beta, vp.r)


# ---------------------------------------------------------------------------
# Finite-region handling
# ---------------------------------------------------------------------------

def _boundary(side: str, cap, objective, notes, profile=None) -> OptimalLeverage:
    if cap is None:
        return OptimalLeverage(None, None, "boundary", side + "inf", profile, tuple(notes))
    b = cap[1] if side == "+" else cap[0]
    val = objective(b)
    return OptimalLeverage(b, None if math.isinf(val) else val, "boundary",
                           side + "cap", profile, tuple(notes))


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

    if m.optimum is not None:
        f_lo, f_hi, cond_txt = m.interval(alpha)
        if math.isnan(f_lo):
            raise NoFiniteRegion(f"growth rate infinite for all beta ({cond_txt})")
        opt = m.optimum(alpha, r)
        if opt.note is not None:
            notes.append(opt.note)
        if opt.side is not None:
            return _boundary(opt.side, cap, obj, notes, opt.profile)
        if opt.vertex is None:
            return OptimalLeverage(0.0, obj(0.0), opt.method, profile=opt.profile,
                                   notes=tuple(notes))
        # Interior vertex of a concave objective, clamped to cap and finite region.
        vertex = opt.vertex
        lo = f_lo if cap is None else max(cap[0], f_lo)
        hi = f_hi if cap is None else min(cap[1], f_hi)
        if lo > hi:
            raise NoFiniteRegion(
                f"finite region [{f_lo:g}, {f_hi:g}] does not meet the cap"
                + (f" ({cond_txt})" if cond_txt else ""))
        rate = obj(vertex) if lo <= vertex <= hi else -math.inf
        if rate == -math.inf:
            # Off the cap or the finite region, or on an open edge of the
            # latter: report the boundary at the nearer edge.
            side = "+" if hi - vertex <= vertex - lo else "-"
            if cond_txt is not None and (
                    (side == "+" and hi == f_hi) or (side == "-" and lo == f_lo)):
                notes.append(
                    f"finite region restricted by {cond_txt}; growth is infinite "
                    f"beyond the {side} edge and formally dominates")
            else:
                notes.append("interior vertex outside the cap")
            return _boundary(side, cap, obj, notes)
        if cap is not None and (vertex == cap[0] or vertex == cap[1]):
            notes.append("interior vertex exactly at the cap edge")
        if cond_txt is not None:
            notes.append(f"search restricted to the finite region of {cond_txt}")
        return OptimalLeverage(vertex, rate, opt.method, profile=opt.profile,
                               notes=tuple(notes))

    # No closed form (quadratic model): scan the rate alone, classify its
    # maximum, then refine to the root of the exact slope next to it.
    lo, hi = cap if cap is not None else UNCAPPED_BRACKET
    if cap is None:
        notes.append(f"uncapped search bracketed on [{lo:g}, {hi:g}]")
    n_scan = max(25, int(round((hi - lo) / 0.25)) + 1)
    grid = [lo + i * (hi - lo) / (n_scan - 1) for i in range(n_scan)]
    known: dict = {}  # beta -> (rate, -inf where not finite; slope; curvature)

    def deriv(*betas: float) -> tuple[float, float]:
        # Slope and curvature at the last beta; one chain solves the new ones.
        new = [b for b in betas if b not in known]
        known.update(zip(new, m.rate_and_slope(alpha, new, r)))
        return known[betas[-1]][1:]

    vals = m.rates(alpha, r, grid)
    best_i = max(range(n_scan), key=vals.__getitem__)
    deriv(*grid[max(best_i - 1, 0):best_i + 2])
    if known[grid[best_i]][0] == -math.inf:
        # The scan maximum is not finite: classify the whole grid.
        vals = [_rate_or_minus_inf(p.growth) for p in growth_curve(vp, grid)]
        best_i = max(range(n_scan), key=vals.__getitem__)
        if vals[best_i] == -math.inf:
            raise NoFiniteRegion("growth rate infinite or unsolvable on the whole range")
        deriv(*grid[max(best_i - 1, 0):best_i + 2])
    best_v = vals[best_i]
    known[grid[best_i]] = (best_v, *known[grid[best_i]][1:])
    beta_star = _slope_root(deriv, grid, best_i)
    if beta_star is None or not known[beta_star][0] >= best_v:
        # The slope keeps its sign up to the end of the grid, or its root is
        # below the scan maximum (the objective is not unimodal there).
        beta_star = max(known, key=lambda b: known[b][0])
        notes.append("refinement left the scan maximum; best evaluated point returned")
    rate_star = known[beta_star][0]
    if cap is not None and (abs(beta_star - lo) < 1e-6 or abs(beta_star - hi) < 1e-6):
        side = "+" if abs(beta_star - hi) < 1e-6 else "-"
        notes.append("scan maximum at the cap edge")
        return _boundary(side, cap, obj, notes)
    return OptimalLeverage(beta_star, rate_star, "concave_search", notes=tuple(notes))
