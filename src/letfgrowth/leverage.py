"""Optimal leverage ratio: argmax over beta of the long-term growth rate.

The module is model-agnostic.  Each model class in ``models`` states its
own leverage derivative, finite region in beta and closed-form optimum rule
(an :class:`Optimum` naming an interior vertex, a boundary side or a flat
objective); the code here clamps a vertex to the cap and the finite region,
resolves boundaries, and runs the numerical search for the quadratic model,
which has no closed-form optimum: a scan over beta, then the root of the
model's exact leverage derivative next to the scan maximum.

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
ROOT_TOL = 1e-12  # bracket width or secant step at which the slope's root is taken


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


def _slope_root(slope, grid: list[float], i: int) -> float | None:
    """Root of ``slope`` next to the scan maximum ``grid[i]``, or None.

    The slope's sign at grid[i] picks the neighbouring grid point to
    bracket the root with.  A nan slope marks a point past the edge of the
    finite or solvable region, so the bracket shrinks towards its finite
    end by bisection until the slope changes sign.  A bracket with a sign
    change is closed by a safeguarded secant (Illinois), which bisects
    where the secant point leaves the bracket, and stops once the bracket
    or the secant step from the last point is within ROOT_TOL.  A slope
    that keeps its sign up to the edge of the finite region gives the
    finite point nearest the edge, to float resolution; one that keeps it
    up to the end of the grid gives None.
    """
    x0, s0 = grid[i], slope(grid[i])
    if s0 == 0.0:
        return x0
    j = i + 1 if s0 > 0.0 else i - 1
    if math.isnan(s0) or not 0 <= j < len(grid):
        return None
    x1 = last = grid[j]
    s1 = slope(x1)
    if not math.isnan(s1) and (s1 > 0.0) == (s0 > 0.0):
        return None
    moved = 0  # end the last finite step replaced (-1: x0, 1: x1), for Illinois
    while abs(x1 - x0) > ROOT_TOL or math.isnan(s1):
        if math.isnan(s1):
            x = 0.5 * (x0 + x1)
            if x in (x0, x1):
                # The slope keeps its sign up to the edge of the finite
                # region, found to float resolution; x0 is nearest to it.
                return x0
        else:
            x = x1 - s1 * (x1 - x0) / (s1 - s0)
            if abs(x - last) <= ROOT_TOL:
                return last
            if not min(x0, x1) < x < max(x0, x1):
                x = 0.5 * (x0 + x1)
        s = slope(x)
        last = x
        if s == 0.0:
            return x
        if math.isnan(s):
            x1, s1, moved = x, s, 0
        elif (s > 0.0) != (s0 > 0.0):
            if moved == 1:
                s0 *= 0.5
            x1, s1, moved = x, s, 1
        else:
            if moved == -1:
                s1 *= 0.5
            x0, s0, moved = x, s, -1
    return last


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

    # No closed form (quadratic model): scan, then refine to the root of the
    # exact slope next to the scan maximum.
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

    def slope(b: float) -> float:
        val, s = m.rate_and_slope(alpha, b, r)
        tried.setdefault(b, val)
        return s

    beta_star = _slope_root(slope, grid, best_i)
    if beta_star is None or not tried[beta_star] >= best_v:
        # The slope keeps its sign up to the end of the grid, or its root is
        # below the scan maximum (the objective is not unimodal there).
        beta_star = max(tried, key=tried.__getitem__)
        notes.append("refinement left the scan maximum; best evaluated point returned")
    rate_star = tried[beta_star]
    if cap is not None and (abs(beta_star - lo) < 1e-6 or abs(beta_star - hi) < 1e-6):
        side = "+" if abs(beta_star - hi) < 1e-6 else "-"
        notes.append("scan maximum at the cap edge")
        return _boundary(side, cap, obj, notes)
    return OptimalLeverage(beta_star, rate_star, "concave_search", notes=tuple(notes))
