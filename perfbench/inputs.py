"""Seeded inputs for the benchmark workloads.

Every problem the library sees is built here from the ``--seed`` argument
(analytic workloads) or from the fixed acceptance catalog (``oracle_desk``,
see ``oracle_problems``).  Nothing in this module times or
checks anything.
"""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np

from letfgrowth import (
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
    validate,
)
from letfgrowth.errors import ParameterViolation

# The acceptance catalog (criteria 3-5 run on exactly these parameters).
CATALOG = {
    "gbm": Gbm(mu=0.05, sigma=0.2),
    "garch": Garch(theta=0.08, a=1.0, sigma=0.2),
    "inverse_garch": InverseGarch(theta=0.54, a=0.52, sigma=0.2),
    "extended_cir": ExtendedCir(theta=0.05, mu=0.15, sigma=0.2),
    "three_halves": ThreeHalves(theta=0.5, a=0.5, sigma=0.5),
    "heston_sv": HestonSV(mu=0.05, theta=0.16, a=3.1, delta=0.4, rho=-0.5,
                          v0=0.16 / 3.1),
    "three_halves_sv": ThreeHalvesSV(mu=0.05, theta=1.0, a=4.0, delta=1.0,
                                     rho=-0.5, v0=0.25),
    "gbm_vasicek": GbmVasicek(mu=0.05, sigma=0.2, theta=0.06, a=3.0,
                              delta=0.05, rho=-0.3, r0=0.02),
    "gbm_inverse_garch_rate": GbmInverseGarchRate(mu=0.05, sigma=0.2,
                                                  theta=0.27, a=5.0,
                                                  delta=0.2, rho=-0.3,
                                                  r0=0.05),
    "quadratic": Quadratic(b=[0.1, -0.05], Bmat=[[-1.0, 0.2], [0.0, -0.8]],
                           sigma=[[0.3, 0.0], [0.1, 0.25]]),
}
KINDS = tuple(CATALOG)
SCALAR_KINDS = KINDS[:-1]
SQRT_STATE_KINDS = ("extended_cir", "three_halves", "heston_sv", "three_halves_sv")

ALPHA, BETA, RATE = 0.5, 2.0, 0.01
JITTER = 0.15  # log-uniform spread of the seeded scalar parameters
BETA_GRID = -3.0 + 0.01 * np.arange(601)
CAP = (-3.0, 3.0)
SWEEP_ALPHAS = (0.3, 0.7, 1.0)
SWEEP_BETAS = (-3.0, 2.0, 3.0)
QUADRATIC_DIMS = (1, 2, 4, 6)
SEEDED_PER_KIND = 3
RICCATI_PER_DIM = 20
HAMILTONIAN_MARGIN = 0.05  # seeded quadratic models keep their Riccati branch
GARCH_INFINITE = Garch(theta=0.08, a=1.0, sigma=0.5)  # criterion 6


def problem(model, alpha=ALPHA, beta=BETA):
    """Validated problem; stochastic-rate models take no constant rate."""
    rate = None if model.kind in ("gbm_vasicek", "gbm_inverse_garch_rate") \
        else ConstantRate(RATE)
    return validate(Problem(model, Preference(alpha), Leverage(beta), rate))


def perturbed(model, rng: np.random.Generator):
    """Admissible copy of a scalar catalog model with jittered parameters.

    Positive parameters move by a log-uniform factor within +-JITTER,
    correlations by an additive +-0.1; draws that break a model bound are
    redrawn from the same stream, so the result depends only on the seed.
    """
    cls = type(model)
    for _ in range(100):
        kw = {}
        for f in fields(cls):
            v = getattr(model, f.name)
            if f.name == "rho":
                kw[f.name] = float(np.clip(v + rng.uniform(-0.1, 0.1), -0.95, 0.95))
            else:
                kw[f.name] = float(v * math.exp(rng.uniform(-JITTER, JITTER)))
        try:
            return problem(cls(**kw)).model
        except ParameterViolation:
            continue
    raise RuntimeError(f"no admissible perturbation of {model.kind}")


def scalar_problems(seed: int):
    """(label, kind, problem) for the nine scalar kinds: catalog + seeded."""
    rng = np.random.default_rng([seed, 1])
    out = []
    for kind in SCALAR_KINDS:
        out.append(("catalog", kind, problem(CATALOG[kind])))
        for i in range(SEEDED_PER_KIND):
            out.append((f"seeded{i}", kind, problem(perturbed(CATALOG[kind], rng))))
    return out


def random_stable_pair(rng: np.random.Generator, d: int):
    """Criterion-7 recipe: SPD diffusion a and a Hurwitz drift matrix B."""
    M = rng.normal(size=(d, d))
    a = M @ M.T + d * np.eye(d)
    B = rng.normal(size=(d, d))
    B = B - (np.max(np.linalg.eigvals(B).real) + 0.5 + rng.uniform(0, 2)) * np.eye(d)
    return a, B


def quadratic_model(rng: np.random.Generator, d: int) -> Quadratic:
    """Seeded quadratic model at the catalog model's scale.

    The drift matrix B follows the criterion-7 recipe; the diffusion is that
    recipe's a divided by 10d, which puts its eigenvalues near 0.1-0.5
    instead of d-5d.  Criterion 7 certifies the Riccati solver for q >= 0
    only; inside beta in (0, 1) the killing coefficient is negative, down to
    -alpha/2, and at the recipe's own scale the stabilizing branch is
    missing there on most draws.  A draw whose Hamiltonian at q = -alpha/2
    has an eigenvalue within HAMILTONIAN_MARGIN of the imaginary axis would
    lose the branch somewhere in (0, 1), so it is redrawn from the same
    stream, as ``perturbed`` redraws inadmissible parameters: every curve
    point and optimum of these models has a stabilizing solution.  The
    library's defects on the models where it is missing are measured by
    ``defect_probe_problems``.
    """
    for _ in range(100):
        a, B = random_stable_pair(rng, d)
        a = a / (10.0 * d)
        b = rng.normal(scale=0.1, size=d)
        if hamiltonian_margin(a, B, -ALPHA / 2.0) >= HAMILTONIAN_MARGIN:
            return Quadratic(b=b, Bmat=B, sigma=np.linalg.cholesky(a))
    raise RuntimeError(f"no quadratic model with a stabilizing branch at d={d}")


def hamiltonian_margin(a, B, q: float) -> float:
    """Distance of the Riccati Hamiltonian's spectrum from the imaginary axis.

    Zero means the stabilizing solution does not exist at killing
    coefficient q; for q < 0 the distance shrinks as |q| grows.
    """
    H = np.block([[B, -2.0 * a], [-q * a, -B.T]])
    return float(np.min(np.abs(np.linalg.eigvals(H).real)))


def quadratic_problems(seed: int):
    """(label, d, problem): the catalog model plus one seeded model per d."""
    rng = np.random.default_rng([seed, 2])
    out = [("catalog", 2, problem(CATALOG["quadratic"]))]
    for d in QUADRATIC_DIMS:
        out.append((f"seeded_d{d}", d, problem(quadratic_model(rng, d))))
    return out


def defect_probe_problems(seed: int):
    """(label, d, problem): one quadratic model per d at the criterion-7 scale.

    Diffusion a and drift B are the criterion-7 recipe unscaled.  On most
    draws the stabilizing branch is missing on part of beta in (0, 1), and
    there the library has two known defects: some curve points carry a
    numpy ``LinAlgError`` (the Schur reordering in
    ``solve_stabilizing_riccati``) instead of a library error, and
    ``optimal_beta`` can return a leverage whose objective is -inf.  These
    models are measured, not gated (see ``workloads.defect_probe``).
    """
    rng = np.random.default_rng([seed, 4])
    out = []
    for d in QUADRATIC_DIMS:
        a, B = random_stable_pair(rng, d)
        b = rng.normal(scale=0.1, size=d)
        out.append((f"criterion7_d{d}", d,
                    problem(Quadratic(b=b, Bmat=B, sigma=np.linalg.cholesky(a)))))
    return out


def riccati_instances(seed: int):
    """Criterion-7 random instances (d, a, B, q), RICCATI_PER_DIM per d <= 6."""
    rng = np.random.default_rng([seed, 3])
    out = []
    for _ in range(RICCATI_PER_DIM):
        for d in range(1, 7):
            a, B = random_stable_pair(rng, d)
            out.append((d, a, B, float(rng.uniform(0.0, 10.0))))
    return out


def oracle_problems():
    """(kind, problem) for all ten catalog models at (alpha, beta) = (0.5, 2).

    The oracle checks are single-seed statistical tests (3 standard
    errors), so ``oracle_desk`` runs the acceptance catalog and the
    library's default Monte Carlo seed; see ``README.md``.
    """
    return [(kind, problem(CATALOG[kind])) for kind in KINDS]


def garch_infinite_problem():
    return problem(GARCH_INFINITE, alpha=1.0, beta=10.0)
