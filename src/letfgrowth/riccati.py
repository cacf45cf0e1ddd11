"""Stabilizing Riccati machinery for the quadratic model.

The quadratic model prices the reference as X = exp(|Y|^2) for a
d-dimensional OU state Y with dY = (b + B Y) dt + sigma dW and a = sigma
sigma^T.  Its exponential-quadratic eigenfunction exp(-u^T y - y^T V y) is
admissible when V is the *stabilizing* solution of

    2 V a V - B^T V - V B - q a = 0,          q = 2 alpha beta (beta - 1),

meaning V is symmetric and the closed loop F = B - 2 a V is Hurwitz, and u
solves the linear system (2 V a - B^T) u = 2 V b.

Algorithm
---------
Form the 2d x 2d Hamiltonian-type matrix

    H = [[ B,   -2a ],
         [ -q a, -B^T ]],

take an ordered real Schur decomposition selecting the d-dimensional stable
invariant subspace spanned by [U; W], and set V = W U^{-1}.  (Eigenvalues of
H come in +/- pairs; a complementary stable subspace of dimension d exists
exactly when a stabilizing solution does.)  A Newton step then polishes V to
full accuracy: with F = B - 2 a V it solves the Sylvester equation
F^T E + E F = R(V) for the correction E, written as the d^2 x d^2 linear
system (F^T (x) I + I (x) F^T) vec E = vec R.  A V whose scaled residual
still fails the gate is polished again, at most three more times.  The
Lyapunov equation F Sigma + Sigma F^T + a = 0 of the stationary law is
solved in the same Kronecker form.

Only the ordered Schur decomposition runs one beta at a time.  Every step
after it -- the subspace dimension, conditioning and symmetry checks,
V = W U^{-1}, the polish and its residual gate, the Hurwitz test, u,
lambda, the Lyapunov covariance, the mean and the convergence matrices --
runs once on the stack of all betas of a call, so a beta grid costs a fixed
number of numpy calls per chunk instead of about fifteen per beta.  The
betas are taken in chunks of ``_chunk_size(d)``: 64, or fewer where a
stack of Kronecker matrices would pass 2^16 entries (512 KB), which keeps
the memory of a call flat in the grid size.  A beta that fails a check leaves
the stack and keeps its own error; when a batched solve meets a singular
member it is solved again one member at a time, so the ``SingularSystem``
lands on that beta alone.  The single-beta functions below are the
batch-of-one case of the same kernels.

The factor on the lower-left block is -q a, not -2 q a: with it, the scalar
case a=1, B=-1 gives V = (-1 + sqrt(1 + 2q))/2 and closed loop
-sqrt(1 + 2q), which is the unique stabilizing root of 2V^2 + 2V - q = 0.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import (
    IllConditioned,
    LetfGrowthError,
    NoStabilizingSolution,
    NotHurwitz,
    SingularSystem,
)
from .models import Quadratic

__all__ = [
    "RiccatiSolution",
    "StationaryGaussian",
    "ConvergenceMatrix",
    "QuadraticSolution",
    "solve_stabilizing_riccati",
    "scalar_stabilizing_v",
    "compute_u",
    "quadratic_eigenvalue",
    "stationary_covariance",
    "convergence_matrices",
    "solve_quadratic_model",
    "solve_quadratic_grid",
]

SYMMETRY_TOL = 1e-12
RESIDUAL_TOL = 1e-10
EIG_MARGIN = 1e-10
COND_LIMIT = 1e12
CHUNK_BETAS = 64
KRONECKER_ENTRIES = 2 ** 16


@dataclass(frozen=True)
class RiccatiSolution:
    """Stabilizing solution bundle.

    ``residual`` is the max-abs entry of 2VaV - B^T V - V B - q a; ``stable``
    records whether every eigenvalue of the closed loop B - 2aV has a
    strictly negative real part.
    """

    V: np.ndarray
    closed_loop: np.ndarray
    stable: bool
    residual: float
    u: np.ndarray | None = None
    lam: float | None = None


@dataclass(frozen=True)
class StationaryGaussian:
    """Invariant Gaussian law of the drift-shifted OU state."""

    mean: np.ndarray
    covariance: np.ndarray
    lyapunov_residual: float


@dataclass(frozen=True)
class ConvergenceMatrix:
    """Both forms of the moment-convergence test matrix.

    ``c_covariance``  = V + alpha*beta*I - Sigma_inf / 2
    ``c_precision``   = V + alpha*beta*I - inv(Sigma_inf) / 2

    The precision form is the exponent of the Gaussian integral whose
    convergence decides whether the expected utility stays finite, so
    classification uses it; the covariance form is reported alongside.
    Eigenvalues within EIG_MARGIN of zero set the marginal flags.
    """

    c_covariance: np.ndarray
    c_precision: np.ndarray
    eigs_covariance: np.ndarray
    eigs_precision: np.ndarray
    all_negative_covariance: bool
    all_negative_precision: bool
    marginal_covariance: bool
    marginal_precision: bool


# ---------------------------------------------------------------------------
# Stacked kernels: every array argument carries a leading beta axis
# ---------------------------------------------------------------------------

def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + np.swapaxes(M, -1, -2))


def _max_abs(M: np.ndarray) -> np.ndarray:
    """Max-abs entry of each matrix of a stack."""
    return np.max(np.abs(M), axis=(-2, -1))


def _chunk_size(d: int) -> int:
    """Betas per batched pass: at most CHUNK_BETAS, and few enough that a
    stack of d^2 x d^2 Kronecker matrices has at most KRONECKER_ENTRIES."""
    return max(1, min(CHUNK_BETAS, KRONECKER_ENTRIES // d ** 4))


def _kron_sum(A: np.ndarray) -> np.ndarray:
    """Stack of A (x) I + I (x) A, the matrix of X -> A X + X A^T acting on
    the row-major vec(X)."""
    n, d = A.shape[0], A.shape[-1]
    K = np.zeros((n, d * d, d * d))
    for i in range(d):
        K[:, i::d, i::d] += A                             # A X
        K[:, i * d:(i + 1) * d, i * d:(i + 1) * d] += A   # X A^T
    return K


def _solve_stack(A: np.ndarray, rhs: np.ndarray, what: str):
    """np.linalg.solve over a stack, with one error slot per member.

    ``rhs`` is a stack of right-hand sides, or one shared by every member.

    A batched solve raises for the whole stack when any member is singular,
    so that case is solved again member by member and only the singular
    members get a ``SingularSystem``.
    """
    try:
        return np.linalg.solve(A, rhs), [None] * len(A)
    except np.linalg.LinAlgError:
        pass
    rhs = np.broadcast_to(rhs, A.shape[:-1] + rhs.shape[-1:])
    x = np.full(rhs.shape, np.nan)
    errors: list = [None] * len(A)
    for i in range(len(A)):
        try:
            x[i] = np.linalg.solve(A[i], rhs[i])
        except np.linalg.LinAlgError as exc:
            errors[i] = SingularSystem(f"{what} is singular: {exc}")
    return x, errors


def _raise_first(errors) -> None:
    for exc in errors:
        if exc is not None:
            raise exc


class _Batch:
    """The betas still in a batched chain, and the error of each one that left.

    ``idx`` holds the original positions of the live betas, in order; the
    stacks a step works on are aligned with it.
    """

    def __init__(self, n: int):
        self.idx = np.arange(n)
        self.errors: list = [None] * n

    def drop(self, errors, *stacks):
        """Retire the live betas with an error; return the stacks without them."""
        if all(exc is None for exc in errors):
            return stacks
        bad = np.array([exc is not None for exc in errors], dtype=bool)
        for j in np.flatnonzero(bad):
            self.errors[self.idx[j]] = errors[j]
        keep = ~bad
        self.idx = self.idx[keep]
        return tuple(s[keep] for s in stacks)


def _residual_matrix(V, a, Bmat, q_coeff):
    """2VaV - B^T V - V B - q a for one V, or for a stack with one q each."""
    q = np.asarray(q_coeff, dtype=float)[..., None, None]
    return 2.0 * V @ a @ V - Bmat.T @ V - V @ Bmat - q * a


def riccati_residual(V: np.ndarray, a: np.ndarray, Bmat: np.ndarray,
                     q_coeff: float) -> float:
    return float(np.max(np.abs(_residual_matrix(V, a, Bmat, q_coeff))))


def scalar_stabilizing_v(a: float, B: float, q_coeff: float) -> float:
    """Closed-form stabilizing root for d = 1 (independent check path).

    2 a V^2 - 2 B V - q a = 0 has roots (B +- sqrt(B^2 + 2 q a^2)) / (2a);
    the '+' root makes B - 2 a V = -sqrt(B^2 + 2 q a^2) < 0.
    """
    disc = B * B + 2.0 * q_coeff * a * a
    if disc < 0.0:
        raise NoStabilizingSolution(f"negative discriminant {disc}")
    return (B + np.sqrt(disc)) / (2.0 * a)


def _schur_seeds(a, Bmat, qs, side: str):
    """Ordered real Schur vectors of each beta's Hamiltonian, one at a time."""
    n, d = len(qs), Bmat.shape[0]
    H = np.empty((n, 2 * d, 2 * d))
    H[:, :d, :d] = Bmat
    H[:, :d, d:] = -2.0 * a
    H[:, d:, :d] = -qs[:, None, None] * a
    H[:, d:, d:] = -Bmat.T
    Z = np.empty_like(H)
    errors: list = [None] * n
    for i in range(n):
        try:
            _, Z[i], sdim = sla.schur(H[i], output="real", sort=side)
        except np.linalg.LinAlgError as exc:
            # Rounding during the reordering moved an eigenvalue across the
            # imaginary axis: H has eigenvalues on or next to the axis, where
            # no stabilizing solution exists.
            errors[i] = NoStabilizingSolution(
                f"{side} Schur reordering failed (q_coeff={qs[i]}): {exc}")
            continue
        if sdim != d:
            errors[i] = NoStabilizingSolution(
                f"{side} invariant subspace has dimension {sdim}, expected {d} "
                f"(q_coeff={qs[i]})")
    return Z, errors


def _subspace_solutions(Z, d: int, batch: _Batch):
    """V = W U^{-1} from each Schur basis [U; W], with its checks."""
    U, W = Z[:, :d, :d], Z[:, d:, :d]
    cond = np.linalg.cond(U)
    ok = np.isfinite(cond) & (cond <= COND_LIMIT)
    U, W = batch.drop([None if good else
                       IllConditioned(f"subspace basis condition number {c:.3e}")
                       for good, c in zip(ok.tolist(), cond.tolist())], U, W)
    Vt, errors = _solve_stack(np.swapaxes(U, -1, -2), np.swapaxes(W, -1, -2),
                              "subspace basis U")
    (V,) = batch.drop(errors, np.swapaxes(Vt, -1, -2))
    asym = _max_abs(V - np.swapaxes(V, -1, -2))
    ok = asym <= 1e-6 * np.maximum(1.0, _max_abs(V))
    (V,) = batch.drop([None if good else NoStabilizingSolution(
        f"subspace solution not symmetric (skew {s:.3e})")
        for good, s in zip(ok.tolist(), asym.tolist())], V)
    return _sym(V)


def _newton_step(V, a, Bmat, qs):
    """Solve F^T E + E F = R(V), F = B - 2aV, and return sym(V + E)."""
    n, d = V.shape[0], V.shape[-1]
    F = Bmat - 2.0 * a @ V
    R = _residual_matrix(V, a, Bmat, qs)
    E, errors = _solve_stack(_kron_sum(np.swapaxes(F, -1, -2)),
                             R.reshape(n, d * d, 1), "Newton-step Sylvester system")
    return _sym(V + E.reshape(V.shape)), errors


def _polish(V, a, Bmat, qs, batch: _Batch):
    """Newton-polish each V, then up to three more steps where the residual
    gate still fails; betas that never pass it leave as IllConditioned."""
    V, errors = _newton_step(V, a, Bmat, qs[batch.idx])
    (V,) = batch.drop(errors, V)
    res = _max_abs(_residual_matrix(V, a, Bmat, qs[batch.idx]))
    scale = np.maximum(1.0, float(np.max(np.abs(a))) * np.maximum(1.0, _max_abs(V)) ** 2)
    for _ in range(3):
        redo = np.flatnonzero(~(res <= RESIDUAL_TOL * scale))
        if redo.size == 0:
            break
        q = qs[batch.idx[redo]]
        V[redo], step_errors = _newton_step(V[redo], a, Bmat, q)
        res[redo] = _max_abs(_residual_matrix(V[redo], a, Bmat, q))
        errors = [None] * len(V)
        for j, exc in zip(redo, step_errors):
            errors[j] = exc
        V, res, scale = batch.drop(errors, V, res, scale)
    ok = res <= RESIDUAL_TOL * scale
    return batch.drop([None if good else
                       IllConditioned(f"Riccati residual {r:.3e} after refinement")
                       for good, r in zip(ok.tolist(), res.tolist())], V, res)


def _riccati_stack(a, Bmat, qs, side: str, batch: _Batch):
    """V, closed loop, residual and closed-loop max real part for each q.

    ``side`` "lhp" is the stabilizing branch, Newton-polished; "rhp" is the
    anti-stable branch, unpolished.
    """
    d = Bmat.shape[0]
    Z, errors = _schur_seeds(a, Bmat, qs, side)
    (Z,) = batch.drop(errors, Z)
    V = _subspace_solutions(Z, d, batch)
    if side == "lhp":
        V, res = _polish(V, a, Bmat, qs, batch)
    else:
        res = _max_abs(_residual_matrix(V, a, Bmat, qs[batch.idx]))
    F = Bmat - 2.0 * a @ V
    max_re = np.linalg.eigvals(F).real.max(axis=-1)
    return V, F, res, max_re


def _drift_shift(V, a, Bmat, b):
    """Stack of u solving (2 V a - B^T) u = 2 V b, with one error slot each."""
    M = 2.0 * V @ a - Bmat.T
    rhs = 2.0 * V @ b
    with np.errstate(all="ignore"):
        u, errors = _solve_stack(M, rhs[..., None], "2Va - B^T")
        u = u[..., 0]
        resid = np.max(np.abs((M @ u[..., None])[..., 0] - rhs), axis=-1)
    resid = np.where(np.all(np.isfinite(u), axis=-1), resid, math.inf)
    ok = resid <= 1e-12 * np.maximum(1.0, np.max(np.abs(rhs), axis=-1))
    for j in np.flatnonzero(~ok):
        if errors[j] is None:
            errors[j] = SingularSystem(f"drift-shift system residual {resid[j]:.3e}")
    return u, errors


def _eigenvalues(V, u, a, b):
    """lambda = -u^T a u / 2 + tr(a V) + u^T b for each (V, u)."""
    uau = (u[:, None, :] @ a @ u[:, :, None])[:, 0, 0]
    return -0.5 * uau + np.trace(a @ V, axis1=-2, axis2=-1) + u @ b


def _stationary_stack(F, a, drift):
    """Sigma_inf, Lyapunov residual and mean for each Hurwitz F.

    ``drift`` is None (zero mean) or the stack of constant drift terms.
    """
    n, d = F.shape[0], F.shape[-1]
    sig, errors = _solve_stack(_kron_sum(F), -a.reshape(d * d, 1), "Lyapunov system")
    sig = _sym(sig.reshape(n, d, d))
    resid = _max_abs(F @ sig + sig @ np.swapaxes(F, -1, -2) + a)
    if drift is None:
        return sig, resid, np.zeros((n, d)), errors
    mean, mean_errors = _solve_stack(F, -drift[..., None], "closed loop")
    return sig, resid, mean[..., 0], [e or m for e, m in zip(errors, mean_errors)]


def _convergence_stack(V, alpha: float, betas, sigma_inf):
    """Both convergence matrices and their ascending eigenvalues per beta."""
    d = V.shape[-1]
    shift = (alpha * betas)[:, None, None] * np.eye(d)
    precision, errors = _solve_stack(sigma_inf, np.eye(d), "stationary covariance")
    c_cov = _sym(V + shift - 0.5 * sigma_inf)
    c_prec = _sym(V + shift - 0.5 * precision)
    return c_cov, c_prec, np.linalg.eigvalsh(c_cov), np.linalg.eigvalsh(c_prec), errors


def _convergence_matrix(c_cov, c_prec, e_cov, e_prec) -> ConvergenceMatrix:
    return ConvergenceMatrix(
        c_covariance=c_cov,
        c_precision=c_prec,
        eigs_covariance=e_cov,
        eigs_precision=e_prec,
        all_negative_covariance=bool(e_cov[-1] < -EIG_MARGIN),
        all_negative_precision=bool(e_prec[-1] < -EIG_MARGIN),
        marginal_covariance=bool(abs(e_cov[-1]) <= EIG_MARGIN),
        marginal_precision=bool(abs(e_prec[-1]) <= EIG_MARGIN),
    )


# ---------------------------------------------------------------------------
# Single-beta interface: the batch-of-one case of the kernels above
# ---------------------------------------------------------------------------

def _riccati_one(a, Bmat, q_coeff: float, side: str) -> RiccatiSolution:
    a = _sym(np.atleast_2d(np.asarray(a, dtype=float)))
    Bmat = np.atleast_2d(np.asarray(Bmat, dtype=float))
    batch = _Batch(1)
    V, F, res, max_re = _riccati_stack(a, Bmat, np.array([float(q_coeff)]), side, batch)
    _raise_first(batch.errors)
    return RiccatiSolution(V=V[0], closed_loop=F[0], stable=bool(max_re[0] < 0.0),
                           residual=float(res[0]))


def solve_stabilizing_riccati(a: np.ndarray, Bmat: np.ndarray,
                              q_coeff: float) -> RiccatiSolution:
    """Solve 2VaV - B^T V - V B - q a = 0 for the stabilizing V.

    Parameters
    ----------
    a : (d, d) array
        Symmetric positive definite diffusion matrix.
    Bmat : (d, d) array
        State-feedback matrix of the OU drift.
    q_coeff : float
        Coefficient of the quadratic killing rate, 2*alpha*beta*(beta-1).
        Existence is guaranteed for q_coeff >= 0 with B stabilizable;
        negative values are attempted and may raise.

    Raises
    ------
    NoStabilizingSolution, IllConditioned, SingularSystem
    """
    return _riccati_one(a, Bmat, q_coeff, "lhp")


def anti_stabilizing_riccati(a, Bmat, q_coeff) -> RiccatiSolution:
    """Anti-stable branch (for negative tests: its closed loop is not Hurwitz)."""
    return _riccati_one(a, Bmat, q_coeff, "rhp")


def compute_u(V: np.ndarray, a: np.ndarray, Bmat: np.ndarray,
              b: np.ndarray) -> np.ndarray:
    """Drift-shift vector u solving (2 V a - B^T) u = 2 V b.

    This is the well-posed form of u = 2 (2a - V^{-1} B^T)^{-1} b multiplied
    through by V, so it also covers singular V (q_coeff = 0 gives V = 0 and,
    for invertible B^T, u = 0).
    """
    V = np.atleast_2d(np.asarray(V, dtype=float))
    u, errors = _drift_shift(V[None], a, Bmat, np.asarray(b, dtype=float))
    _raise_first(errors)
    return u[0]


def quadratic_eigenvalue(V: np.ndarray, u: np.ndarray, a: np.ndarray,
                         b: np.ndarray) -> float:
    """Eigenvalue paired with exp(-u^T y - y^T V y):

    lambda = -u^T a u / 2 + tr(a V) + u^T b.
    """
    V = np.atleast_2d(np.asarray(V, dtype=float))
    u = np.asarray(u, dtype=float)
    return float(_eigenvalues(V[None], u[None], a, np.asarray(b, dtype=float))[0])


def stationary_covariance(closed_loop: np.ndarray, a: np.ndarray,
                          drift_const: np.ndarray | None = None) -> StationaryGaussian:
    """Invariant Gaussian of dY = (drift_const + F Y) dt + sigma dW.

    Solves the Lyapunov equation F Sigma + Sigma F^T + a = 0 and, when the
    constant drift term (b - a u under the transformed measure) is supplied,
    the mean equation F mu + drift_const = 0.

    Raises
    ------
    NotHurwitz
        If any eigenvalue of ``closed_loop`` has a non-negative real part.
    """
    F = np.atleast_2d(np.asarray(closed_loop, dtype=float))
    a = _sym(np.atleast_2d(np.asarray(a, dtype=float)))
    max_re = float(np.max(np.linalg.eigvals(F).real))
    if max_re >= 0.0:
        raise NotHurwitz(f"closed loop has eigenvalue with real part {max_re:.3e}")
    drift = None if drift_const is None else np.asarray(drift_const, dtype=float)[None]
    sig, resid, mean, errors = _stationary_stack(F[None], a, drift)
    _raise_first(errors)
    return StationaryGaussian(mean=mean[0], covariance=sig[0],
                              lyapunov_residual=float(resid[0]))


def convergence_matrices(V: np.ndarray, alpha: float, beta: float,
                         sigma_inf: np.ndarray) -> ConvergenceMatrix:
    """Both forms of the utility-moment convergence matrix (see class doc)."""
    c_cov, c_prec, e_cov, e_prec, errors = _convergence_stack(
        V[None], alpha, np.array([float(beta)]), sigma_inf[None])
    _raise_first(errors)
    return _convergence_matrix(c_cov[0], c_prec[0], e_cov[0], e_prec[0])


@dataclass(frozen=True)
class QuadraticSolution:
    """Everything the quadratic model needs downstream, solved once."""

    riccati: RiccatiSolution
    stationary: StationaryGaussian
    convergence: ConvergenceMatrix
    q_coeff: float

    @property
    def V(self) -> np.ndarray:
        return self.riccati.V

    @property
    def u(self) -> np.ndarray:
        return self.riccati.u

    @property
    def lam(self) -> float:
        return self.riccati.lam


def _solve_chunk(model: Quadratic, alpha: float, betas: np.ndarray) -> list:
    a, Bmat, b = _sym(model.a), model.Bmat, model.b
    qs = 2.0 * alpha * betas * (betas - 1.0)
    batch = _Batch(len(betas))
    V, F, res, max_re = _riccati_stack(a, Bmat, qs, "lhp", batch)
    V, F, res = batch.drop([None if hurwitz else
                            NoStabilizingSolution("closed loop is not Hurwitz")
                            for hurwitz in (max_re < 0.0).tolist()], V, F, res)
    u, errors = _drift_shift(V, a, Bmat, b)
    V, F, res, u = batch.drop(errors, V, F, res, u)
    lam = _eigenvalues(V, u, a, b)
    sig, lres, mean, stat_errors = _stationary_stack(F, a, b - u @ a.T)
    c_cov, c_prec, e_cov, e_prec, conv_errors = _convergence_stack(
        V, alpha, betas[batch.idx], sig)
    out = list(batch.errors)
    for j, i in enumerate(batch.idx):
        late = stat_errors[j] or conv_errors[j]
        out[i] = late if late is not None else QuadraticSolution(
            riccati=RiccatiSolution(V=V[j], closed_loop=F[j], stable=True,
                                    residual=float(res[j]), u=u[j], lam=float(lam[j])),
            stationary=StationaryGaussian(mean=mean[j], covariance=sig[j],
                                          lyapunov_residual=float(lres[j])),
            convergence=_convergence_matrix(c_cov[j], c_prec[j], e_cov[j], e_prec[j]),
            q_coeff=float(qs[i]))
    return out


def solve_quadratic_grid(model: Quadratic, alpha: float,
                         betas) -> Iterator[QuadraticSolution | LetfGrowthError]:
    """Solve the full eigen/stationarity chain at every beta of a grid.

    Yields, in order, the solution at each beta or the library error that
    :func:`solve_quadratic_model` raises there.  Each chunk of betas is
    solved when the previous one has been consumed, so a caller that keeps
    only what it derives from each solution holds one chunk at a time.
    """
    betas = np.asarray(betas, dtype=float).reshape(-1)
    step = _chunk_size(model.d)
    for start in range(0, betas.size, step):
        yield from _solve_chunk(model, alpha, betas[start:start + step])


def solve_quadratic_model(model: Quadratic, alpha: float, beta: float) -> QuadraticSolution:
    """Solve the full eigen/stationarity chain for one (alpha, beta).

    Raises ``NoStabilizingSolution`` if the stabilizing branch does not exist
    for the requested killing coefficient (possible when beta is inside
    (0, 1), where q_coeff < 0), and ``IllConditioned`` or ``SingularSystem``
    where a step of the chain cannot be trusted numerically.
    """
    (sol,) = solve_quadratic_grid(model, alpha, [beta])
    if isinstance(sol, LetfGrowthError):
        raise sol
    return sol
