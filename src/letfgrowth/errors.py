"""Exception hierarchy shared across the package.

Every error raised by the library derives from ``LetfGrowthError`` so callers
(and the CLI exit-code mapping) can distinguish configuration problems from
numerical failures.
"""

from __future__ import annotations


class LetfGrowthError(Exception):
    """Base class for all library errors."""


class ConfigError(LetfGrowthError):
    """Malformed configuration document (unknown keys, missing fields, bad types)."""


class ParameterViolation(ConfigError):
    """A model parameter violates its admissibility condition.

    Attributes
    ----------
    field : str
        Name of the offending parameter.
    constraint : str
        The violated condition, e.g. ``"theta > sigma^2"``.
    """

    def __init__(self, field: str, constraint: str, message: str | None = None):
        self.field = field
        self.constraint = constraint
        super().__init__(message or f"parameter {field!r} violates {constraint}")


class MissingRate(ConfigError):
    """A constant-rate model was given without the short rate ``r``."""


class ExtraneousRate(ConfigError):
    """A stochastic-rate model was given a constant short rate ``r``."""


class ComplexKappa(LetfGrowthError):
    """The square-root argument of an eigenvalue exponent is negative."""


class GridOutsideDomain(LetfGrowthError):
    """A residual-check grid contains points outside the state space."""


class NoStabilizingSolution(LetfGrowthError):
    """The Riccati equation has no stabilizing solution for the given data."""


class IllConditioned(LetfGrowthError):
    """An invariant-subspace basis is too ill conditioned to trust."""


class SingularSystem(LetfGrowthError):
    """A linear system of the Riccati chain (the drift shift, a Newton step,
    the Lyapunov equation) is singular."""


class NotHurwitz(LetfGrowthError):
    """A closed-loop matrix required to be Hurwitz has an unstable eigenvalue."""


class AllPathsDiverged(LetfGrowthError):
    """Every simulated path overflowed; no estimate is possible."""


class SchemeUnstable(LetfGrowthError):
    """A discretization truncated negative states beyond its budget."""


class NoFiniteRegion(LetfGrowthError):
    """The growth rate is infinite on the whole requested leverage range."""


class ConditionUnmet(LetfGrowthError):
    """A closed form was requested outside the assumption that justifies it.

    Carries the violated inequality as text in ``condition``.
    """

    def __init__(self, condition: str, message: str | None = None):
        self.condition = condition
        super().__init__(message or f"assumption not met: {condition}")
