"""Stabilizing Riccati machinery for the quadratic model.

The quadratic model prices the reference as X = exp(|Y|^2) for a
d-dimensional OU state Y with dY = (b + B Y) dt + sigma dW and a = sigma
sigma^T.  Its exponential-quadratic eigenfunction exp(-u^T y - y^T V y) is
admissible when V is the *stabilizing* solution of

    2 V a V - B^T V - V B - q a = 0,          q y^T a y the killing rate,

meaning V is symmetric and the closed loop F = B - 2 a V is Hurwitz, and u
solves the linear system (2 V a - B^T) u = 2 V b.

Algorithm
---------
Form the 2d x 2d Hamiltonian-type matrix

    H = [[ B,   -2a ],
         [ -q a, -B^T ]],

take a basis [U; W] of its d-dimensional stable invariant subspace and set
V = W U^{-1}.  (Eigenvalues of H come in +/- pairs; a complementary stable
subspace of dimension d exists exactly when a stabilizing solution does.)
The basis is seeded by eigenvectors (Potter 1966): one batched
``np.linalg.eig`` of the stack of Hamiltonians gives each beta's spectrum,
and the d eigenvectors whose eigenvalues have negative real part span the
stable subspace.  They are complex where eigenvalues pair up off the real
axis, but the subspace is closed under conjugation, so V is real up to
rounding; its real part is kept once its imaginary part and its asymmetry
are both negligible.  At q = 0 with B Hurwitz the stable subspace is
exactly span [I; 0], so those betas take that basis (V = 0) instead: a
defective B has too few eigenvectors to span it.  A Newton step then
polishes V to full accuracy: with F = B - 2 a V it solves the Sylvester
equation F^T E + E F = R(V) for the correction E, written as the
d^2 x d^2 linear system (F^T (x) I + I (x) F^T) vec E = vec R.  A V whose
scaled residual still fails the gate is polished again, at most three
more times.  The closed loop must then be Hurwitz.  The Lyapunov equation
F Sigma + Sigma F^T + a = 0 of the stationary law is solved in the same
Kronecker form.

The eigenvector seed is the only one.  A beta that fails a check -- the
spectrum does not split d/d, U is ill-conditioned or singular, V is not
real symmetric, the polish misses the gate, or the closed loop is not
Hurwitz -- keeps the error of that check, and the errors of the seed and
of the Hurwitz test name its q_coeff.  The anti-stabilizing branch,
used by negative tests only, is the stabilizing solution for -B mirrored:
V -> -V leaves the residual matrix unchanged and negates the closed loop.
The module needs numpy only.

Every step after the seed -- the subspace dimension, conditioning and
symmetry checks, V = W U^{-1}, the polish and its residual gate, the
Hurwitz test, u, lambda, the Lyapunov covariance, the mean and the
convergence matrices -- runs once on the stack of all betas of a call, so a
beta grid costs a fixed number of numpy calls per chunk instead of about
fifteen per beta.  The betas are taken in chunks of ``_chunk_size(d)``: 64,
or fewer where a stack of Kronecker matrices would pass 2^16 entries
(512 KB), which keeps the memory of a call flat in the grid size.  A beta
that fails a check leaves the stack; when a batched solve meets a singular
member, or a batched eig a member that does not converge, the stack is run
again one member at a time, so the error lands on that beta alone.  The
single-beta functions below are the batch-of-one case of the same kernels:
the stabilizing solve and its mirrored branch, the stationary law, the
eigenvalue slope, and the whole chain at one beta (``solve_quadratic_model``),
which is the only public route to u, lambda and the convergence matrices.

The leverage derivative of lambda comes from the solved chain by Riccati
sensitivity: V' solves the Lyapunov equation F^T V' + V' F = -q' a with
the polish's Kronecker operator, then u' one linear system (see
``eigenvalue_slope``).  q and q' = dq/dbeta come from the model's
``killing_coeff``, the coefficient its ``generator`` kills with.

The factor on the lower-left block is -q a, not -2 q a: with it, the scalar
case a=1, B=-1 gives V = (-1 + sqrt(1 + 2q))/2 and closed loop
-sqrt(1 + 2q), which is the unique stabilizing root of 2V^2 + 2V - q = 0.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    IllConditioned,
    LetfGrowthError,
    NoStabilizingSolution,
    NotHurwitz,
    SingularSystem,
)

if TYPE_CHECKING:
    from .models import Quadratic

__all__ = [
    "RiccatiSolution",
    "StationaryGaussian",
    "ConvergenceMatrix",
    "QuadraticSolution",
    "solve_stabilizing_riccati",
    "scalar_stabilizing_v",
    "stationary_covariance",
    "solve_quadratic_model",
    "solve_quadratic_grid",
    "eigenvalue_slope",
]

RESIDUAL_TOL = 1e-10
EIG_MARGIN = 1e-10
COND_LIMIT = 1e12
CHUNK_BETAS = 64
KRONECKER_ENTRIES = 2 ** 16


@dataclass(frozen=True)
class RiccatiSolution:
    """Stabilizing solution bundle.

    ``residual`` is the max-abs entry of 2VaV - B^T V - V B - q a.
    """

    V: np.ndarray
    closed_loop: np.ndarray
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
    A form is all-negative when its largest eigenvalue is below -EIG_MARGIN.
    """

    c_covariance: np.ndarray
    c_precision: np.ndarray
    eigs_covariance: np.ndarray
    eigs_precision: np.ndarray
    all_negative_covariance: bool
    all_negative_precision: bool


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
    x = np.full(rhs.shape, np.nan, dtype=np.result_type(A, rhs))
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


def scalar_stabilizing_v(a: float, B: float, q_coeff: float) -> float:
    """Closed-form stabilizing root for d = 1 (independent check path).

    2 a V^2 - 2 B V - q a = 0 has roots (B +- sqrt(B^2 + 2 q a^2)) / (2a);
    the '+' root makes B - 2 a V = -sqrt(B^2 + 2 q a^2) < 0.
    """
    disc = B * B + 2.0 * q_coeff * a * a
    if disc < 0.0:
        raise NoStabilizingSolution(f"negative discriminant {disc}")
    return (B + np.sqrt(disc)) / (2.0 * a)


def _hamiltonians(a, Bmat, qs):
    """Stack of each beta's Hamiltonian [[B, -2a], [-q a, -B^T]]."""
    n, d = len(qs), Bmat.shape[0]
    H = np.empty((n, 2 * d, 2 * d))
    H[:, :d, :d] = Bmat
    H[:, :d, d:] = -2.0 * a
    H[:, d:, :d] = -qs[:, None, None] * a
    H[:, d:, d:] = -Bmat.T
    return H


def _eig_seeds(H, qs):
    """Eigenvectors of each Hamiltonian's d stable eigenvalues, from one
    batched eig; a member whose spectrum does not split d/d gets an error.
    A batched eig raises for the whole stack when any member does not
    converge, so that case is run again member by member."""
    n, d = len(qs), H.shape[-1] // 2
    errors: list = [None] * n
    try:
        w, X = np.linalg.eig(H)
    except np.linalg.LinAlgError:
        w, X = np.zeros(H.shape[:-1], dtype=complex), np.zeros(H.shape, dtype=complex)
        for i in range(n):
            try:
                w[i], X[i] = np.linalg.eig(H[i])
            except np.linalg.LinAlgError as exc:
                errors[i] = NoStabilizingSolution(
                    f"eigendecomposition failed (q_coeff={qs[i]}): {exc}")
    re = w.real
    stable_first = np.argsort(re, axis=-1)[:, :d]
    Z = np.swapaxes(X[np.arange(n)[:, None], :, stable_first], -1, -2)
    return Z, [exc or (None if k == d else NoStabilizingSolution(
        f"stable eigenspace has dimension {k}, expected {d} (q_coeff={q})"))
        for exc, k, q in zip(errors, (re < 0.0).sum(axis=-1).tolist(), qs.tolist())]


def _subspace_solutions(Z, d: int, batch: _Batch):
    """V = W U^{-1} from each basis [U; W], with its checks."""
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
    if np.iscomplexobj(V):
        imag = _max_abs(V.imag)
        ok = imag <= 1e-6 * np.maximum(1.0, _max_abs(V))
        (V,) = batch.drop([None if good else NoStabilizingSolution(
            f"subspace solution not real (imaginary part {s:.3e})")
            for good, s in zip(ok.tolist(), imag.tolist())], V)
        V = V.real
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


def _riccati_stack(a, Bmat, qs, batch: _Batch):
    """V, closed loop and residual of the stabilizing branch for each q.

    ``batch`` holds every member of ``qs`` on entry; a member that fails a
    check leaves it with that check's error.
    """
    d = Bmat.shape[0]
    Z, errors = _eig_seeds(_hamiltonians(a, Bmat, qs), qs)
    zero = np.flatnonzero(qs == 0.0)
    if zero.size and np.linalg.eigvals(Bmat).real.max() < 0.0:
        # The stable subspace is then exactly span [I; 0] (V = 0), which a
        # defective B has too few eigenvectors to span.
        Z[zero] = np.eye(2 * d, d)
        for i in zero.tolist():
            errors[i] = None
    (Z,) = batch.drop(errors, Z)
    V = _subspace_solutions(Z, d, batch)
    V, res = _polish(V, a, Bmat, qs, batch)
    F = Bmat - 2.0 * a @ V
    hurwitz = np.linalg.eigvals(F).real.max(axis=-1) < 0.0
    return batch.drop([None if ok else NoStabilizingSolution(
        f"closed loop is not Hurwitz (q_coeff={q})")
        for ok, q in zip(hurwitz.tolist(), qs[batch.idx].tolist())], V, F, res)


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


def _lambda_terms(V, u, a, b):
    """u^T a u, tr(a V) and u^T b for each (V, u): the terms of
    lambda = -u^T a u / 2 + tr(a V) + u^T b."""
    uau = (u[:, None, :] @ a @ u[:, :, None])[:, 0, 0]
    return uau, np.trace(a @ V, axis1=-2, axis2=-1), u @ b


def _eigenvalue_slope_stack(V, F, u, a, Bmat, b, dqs):
    """d lambda / d beta at each solved (V, F, u), with q' = dq/d beta each.

    Riccati sensitivity (Kenney & Hewer 1990): differentiating the Riccati
    equation in beta gives the Lyapunov equation F^T V' + V' F = -q' a,
    solved in the Kronecker form of the Newton step; differentiating
    (2 V a - B^T) u = 2 V b gives (2 V a - B^T) u' = 2 V' (b - a u); and
    lambda' = -u'^T a u + tr(a V') + u'^T b.
    """
    n, d = V.shape[0], V.shape[-1]
    dV, errors = _solve_stack(_kron_sum(np.swapaxes(F, -1, -2)),
                              (-dqs[:, None, None] * a).reshape(n, d * d, 1),
                              "Riccati sensitivity system")
    dV = _sym(dV.reshape(n, d, d))
    du, du_errors = _solve_stack(2.0 * V @ a - Bmat.T,
                                 2.0 * dV @ (b - u @ a.T)[..., None], "2Va - B^T")
    du = du[..., 0]
    dlam = (-(du[:, None, :] @ a @ u[:, :, None])[:, 0, 0]
            + np.trace(a @ dV, axis1=-2, axis2=-1) + du @ b)
    return dlam, [e or m for e, m in zip(errors, du_errors)]


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
    )


# ---------------------------------------------------------------------------
# Single-beta interface: the batch-of-one case of the kernels above
# ---------------------------------------------------------------------------

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
        Coefficient q of the quadratic killing rate q y^T a y.
        Existence is guaranteed for q_coeff >= 0 with B stabilizable;
        negative values are attempted and may raise.

    Raises
    ------
    NoStabilizingSolution, IllConditioned, SingularSystem
    """
    a = _sym(np.atleast_2d(np.asarray(a, dtype=float)))
    Bmat = np.atleast_2d(np.asarray(Bmat, dtype=float))
    batch = _Batch(1)
    V, F, res = _riccati_stack(a, Bmat, np.array([float(q_coeff)]), batch)
    _raise_first(batch.errors)
    return RiccatiSolution(V=V[0], closed_loop=F[0], residual=float(res[0]))


def anti_stabilizing_riccati(a, Bmat, q_coeff) -> RiccatiSolution:
    """Anti-stable branch (for negative tests: its closed loop is not Hurwitz).

    V -> -V maps the Riccati equation for -B onto the one for B with the
    same residual matrix, and the closed loop -B - 2a(-V) onto minus
    B - 2aV; so the stabilizing solution for -B, mirrored, is this branch.
    """
    sol = solve_stabilizing_riccati(a, -np.asarray(Bmat, dtype=float), q_coeff)
    return RiccatiSolution(V=-sol.V, closed_loop=-sol.closed_loop, residual=sol.residual)


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


@dataclass(frozen=True)
class QuadraticSolution:
    """Everything the quadratic model needs downstream, solved once."""

    riccati: RiccatiSolution
    stationary: StationaryGaussian
    convergence: ConvergenceMatrix
    q_coeff: float
    lambda_terms: tuple[float, float, float]  # u^T a u, tr(a V), u^T b

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
    a, Bmat, b = model.a, model.Bmat, model.b
    qs = model.killing_coeff(alpha, betas)[0]
    batch = _Batch(len(betas))
    V, F, res = _riccati_stack(a, Bmat, qs, batch)
    u, errors = _drift_shift(V, a, Bmat, b)
    V, F, res, u = batch.drop(errors, V, F, res, u)
    uau, tr_av, ub = _lambda_terms(V, u, a, b)
    lam = -0.5 * uau + tr_av + ub
    sig, lres, mean, stat_errors = _stationary_stack(F, a, b - u @ a.T)
    c_cov, c_prec, e_cov, e_prec, conv_errors = _convergence_stack(
        V, alpha, betas[batch.idx], sig)
    out = list(batch.errors)
    for j, i in enumerate(batch.idx):
        late = stat_errors[j] or conv_errors[j]
        out[i] = late if late is not None else QuadraticSolution(
            riccati=RiccatiSolution(V=V[j], closed_loop=F[j], residual=float(res[j]),
                                    u=u[j], lam=float(lam[j])),
            stationary=StationaryGaussian(mean=mean[j], covariance=sig[j],
                                          lyapunov_residual=float(lres[j])),
            convergence=_convergence_matrix(c_cov[j], c_prec[j], e_cov[j], e_prec[j]),
            q_coeff=float(qs[i]),
            lambda_terms=(float(uau[j]), float(tr_av[j]), float(ub[j])))
    return out


def eigenvalue_slope(model: Quadratic, alpha: float, beta: float,
                     sol: QuadraticSolution) -> float:
    """d lambda / d beta at one beta, from the chain ``sol`` solved there.

    Raises ``SingularSystem`` where a sensitivity system is singular.
    """
    dlam, errors = _eigenvalue_slope_stack(
        sol.V[None], sol.riccati.closed_loop[None], sol.u[None], model.a,
        model.Bmat, model.b, np.array([model.killing_coeff(alpha, beta)[1]]))
    _raise_first(errors)
    return float(dlam[0])


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
