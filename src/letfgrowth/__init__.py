"""Long-term growth rates of expected power utility for leveraged funds.

A leveraged fund on a reference asset X multiplies the reference's
instantaneous return by a constant ratio beta, financing at the short rate.
This package evaluates lim (1/t) log E[L_t^alpha] in closed form for ten
diffusion models of the reference (and of stochastic volatility or rates),
finds the leverage ratio maximizing it, and cross-checks every limit with an
independent Monte Carlo oracle.
"""

from .errors import (
    AllPathsDiverged,
    ComplexKappa,
    ConditionUnmet,
    ConfigError,
    ExtraneousRate,
    GridOutsideDomain,
    IllConditioned,
    LetfGrowthError,
    MissingRate,
    NoFiniteRegion,
    NoStabilizingSolution,
    NotHurwitz,
    ParameterViolation,
    SchemeUnstable,
    SingularSystem,
)
from .models import (
    ConstantRate,
    ExtendedCir,
    Garch,
    Gbm,
    GbmInverseGarchRate,
    GbmVasicek,
    HestonSV,
    InverseGarch,
    Leverage,
    Preference,
    Problem,
    Quadratic,
    ThreeHalves,
    ThreeHalvesSV,
    ValidatedProblem,
    load_problem,
    validate,
)
from .eigen import (
    Eigenpair,
    GeneratorResidual,
    default_grid,
    eigenpair,
    generator_residual,
)
from .growth import (
    FinitenessCondition,
    GrowthRate,
    cir_exponential_moment_growth,
    growth_curve,
    growth_rate,
    inverse_garch_discount_growth,
    stationary_power_moment_garch,
)
from .leverage import OptimalLeverage, lambda_derivative, optimal_beta
from .riccati import (
    QuadraticSolution,
    RiccatiSolution,
    solve_quadratic_model,
    solve_stabilizing_riccati,
    stationary_covariance,
)
from .mc import (
    GrowthEstimate,
    MartingaleEstimate,
    SimConfig,
    cir_density,
    desk_config,
    garch_stationary_density,
    martingale_check,
    simulate_growth,
    verdict_for,
)

__version__ = "0.1.0"
