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
stable subspace.  Where eigenvalues pair up off the real axis the subspace
is closed under conjugation, so each conjugate pair of eigenvectors
(v, conj v) is replaced by (Re v, Im conj v), which spans the same real
subspace (Laub 1979): the basis, and V, are real for every beta.  V is
kept once its asymmetry is negligible.  At q = 0 with B Hurwitz the stable
subspace is exactly span [I; 0], so those betas take that basis (V = 0)
instead: a defective B has too few eigenvectors to span it.  A Newton step
then polishes V to full accuracy: with F = B - 2 a V it solves the
Lyapunov equation F^T E + E F = R(V) for the correction E.  A V whose
scaled residual still fails the gate is polished again, at most three
more times.  The closed loop must then be Hurwitz.  The Lyapunov equation
F Sigma + Sigma F^T + a = 0 of the stationary law is solved the same way:
each A X + X A^T = C, with C symmetrized, is solved for the upper triangle
of a symmetric X, p = d(d+1)/2 unknowns instead of the d^2 of the
Kronecker form (Magnus & Neudecker 1980), and X is mirrored back.

The eigenvector seed is the only one.  A beta that fails a check -- the
spectrum does not split d/d, U is ill-conditioned or singular, V is not
symmetric, the polish misses the gate, or the closed loop is not
Hurwitz -- keeps the error of that check, and the errors of the seed and
of the Hurwitz test name its q_coeff.  The anti-stabilizing branch,
used by negative tests only, is the stabilizing solution for -B mirrored:
V -> -V leaves the residual matrix unchanged and negates the closed loop.
The module needs numpy only.

Every step runs once on a stack of betas: a grid costs a fixed number of
numpy calls per chunk of ``_chunk_size(d)`` betas, as many as keep a stack
of p x p half operators within 2^16 entries (512 KB).  A failing
beta leaves the stack with its error; a failed batched solve or eig is
rerun per member.  A chunk's ``_Chain`` is solved in two stages: the rate
stage (V, F, residual, u and the lambda terms), all that the growth rate's
value and slopes read, then the stationary stage (Sigma_inf and the
precision-form convergence matrix with its eigenvalues), which classifies
it.  ``_Chain.solutions``, the one constructor of ``QuadraticSolution``,
adds the mean, Lyapunov residual and covariance form.  Each row of a stack
is computed from its own beta's inputs alone, so a beta solved in a grid
equals the same beta solved alone, bit for bit.

The first two leverage derivatives of lambda come from the solved chain by
Riccati sensitivity (Kenney & Hewer 1990; ``_eigenvalue_slope_stack``).
Differentiating the Riccati equation in beta gives the Lyapunov equation
F^T V' + V' F = -q' a, solved with the polish's half operator;
differentiating (2 V a - B^T) u = 2 V b gives (2 V a - B^T) u' =
2 V' (b - a u); and lambda' = -u'^T a u + tr(a V') + u'^T b.  Once more:
F^T V'' + V'' F = 4 V' a V' - q'' a with the same operator,
(2 V a - B^T) u'' = 2 V'' (b - a u) - 4 V' a u', and
lambda'' = -u''^T a u - u'^T a u' + tr(a V'') + u''^T b.  q, q' and q''
come from the model's ``killing_coeff``, the coefficient its ``generator``
kills with; the public route to the slope is ``leverage.lambda_derivative``.

The factor on the lower-left block is -q a, not -2 q a: with it, the scalar
case a=1, B=-1 gives V = (-1 + sqrt(1 + 2q))/2 and closed loop
-sqrt(1 + 2q), which is the unique stabilizing root of 2V^2 + 2V - q = 0.
The tests check every d = 1 solve against that closed form, which lives in
``tests/reference_laws.py`` because no library path needs it.
"""

from __future__ import annotations

import math
from collections import namedtuple
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
    "stationary_covariance",
    "solve_quadratic_model",
    "solve_quadratic_grid",
]

RESIDUAL_TOL = 1e-10
EIG_MARGIN = 1e-10
COND_LIMIT = 1e12
KRONECKER_ENTRIES = 2 ** 16
_HALF_PLANS: dict[int, tuple] = {}  # _half_plan(d), by d


@dataclass(frozen=True)
class RiccatiSolution:
    """Stabilizing solution bundle.

    ``residual`` is the max-abs entry of 2VaV - B^T V - V B - q a.
    """

    V: np.ndarray
    closed_loop: np.ndarray
    residual: float


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
    """Betas per batched pass: as many as keep a stack of p x p half
    operators, p = d(d+1)/2, within KRONECKER_ENTRIES."""
    return max(1, KRONECKER_ENTRIES // (d * (d + 1) // 2) ** 2)


def _rows(x: np.ndarray, M: np.ndarray) -> np.ndarray:
    """x[i] @ M for each row of the stack x, as n separate (1 x d) products:
    BLAS rounds one (n x d) product by row, differently for n = 1."""
    return (x[:, None, :] @ M)[:, 0]


def _half_plan(d: int):
    """(S, up, lo), built once per d and read-only: A.reshape(n, d*d) @ S, S
    of 0/1/2 entries, is ``_lyap_op(A)``; up and lo are the row-major vec
    positions of the upper triangle and of its mirror."""
    if d not in _HALF_PLANS:
        i, j = np.triu_indices(d)
        up, lo, p, eye = i * d + j, j * d + i, i.size, np.eye(d)
        dup = np.zeros((d * d, p))
        dup[up, np.arange(p)] = dup[lo, np.arange(p)] = 1.0
        S = np.stack([((np.kron(E, eye) + np.kron(eye, E))[up] @ dup).reshape(-1)
                      for E in np.eye(d * d).reshape(d * d, d, d)])
        for arr in (S, up, lo):
            arr.flags.writeable = False
        _HALF_PLANS[d] = S, up, lo
    return _HALF_PLANS[d]


def _lyap_op(A: np.ndarray) -> np.ndarray:
    """Stack of p x p half operators, p = d(d+1)/2: the Kronecker matrix
    A (x) I + I (x) A of X -> A X + X A^T restricted to symmetric X by the
    duplication matrix and read on the upper triangle, for each A."""
    n, d = A.shape[0], A.shape[-1]
    p = d * (d + 1) // 2
    return (A.reshape(n, d * d) @ _half_plan(d)[0]).reshape(n, p, p)


def _lyap_solve(L: np.ndarray, C: np.ndarray, what: str):
    """The symmetric X with A X + X A^T = C for each half operator L =
    _lyap_op(A) of a stack, with one error slot each.

    C is a stack, or one C shared by every member; it is symmetrized before
    its upper triangle is taken, and each solution is mirrored back.
    """
    d = C.shape[-1]
    _, up, lo = _half_plan(d)
    x, errors = _solve_stack(L, _sym(C).reshape(C.shape[:-2] + (d * d, 1))[..., up, :], what)
    X = np.empty((len(L), d * d))
    X[:, up] = X[:, lo] = x[..., 0]
    return X.reshape(len(L), d, d), errors


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
        if not any(errors):
            return stacks
        bad = np.array([exc is not None for exc in errors], dtype=bool)
        for j in np.flatnonzero(bad):
            self.errors[self.idx[j]] = errors[j]
        keep = ~bad
        self.idx = self.idx[keep]
        return tuple(s[keep] for s in stacks)

    def keep(self, ok, make_error, values, *stacks):
        """``drop`` the betas where ``ok`` is false, each with make_error(its
        entry of ``values``); no error is built when every member passes."""
        return stacks if ok.all() else self.drop([None if good else make_error(v) for good, v
                                                  in zip(ok.tolist(), values.tolist())], *stacks)


def _residual_matrix(V, a, Bmat, q_coeff):
    """2VaV - B^T V - V B - q a for one V, or for a stack with one q each."""
    q = np.asarray(q_coeff, dtype=float)[..., None, None]
    return 2.0 * V @ a @ V - Bmat.T @ V - V @ Bmat - q * a


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
    """A real basis of each Hamiltonian's stable invariant subspace from one
    batched eig (rerun per member if one fails), and an error where the
    spectrum does not split d/d.  A conjugate pair of stable eigenvectors
    (v, conj v) becomes (Re v, Im conj v), which spans the same subspace."""
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
    rows, stable_first = np.arange(n)[:, None], np.argsort(re, axis=-1)[:, :d]
    Z = np.swapaxes(X[rows, :, stable_first], -1, -2)
    Z = np.where(w[rows, stable_first].imag[:, None, :] < 0.0, Z.imag, Z.real)
    return Z, [exc or (None if k == d else NoStabilizingSolution(
        f"stable eigenspace has dimension {k}, expected {d} (q_coeff={q})"))
        for exc, k, q in zip(errors, (re < 0.0).sum(axis=-1).tolist(), qs.tolist())]


def _subspace_solutions(Z, d: int, batch: _Batch):
    """V = W U^{-1} from each basis [U; W], with its checks."""
    U, W = Z[:, :d, :d], Z[:, d:, :d]
    cond = np.linalg.cond(U)
    U, W = batch.keep(np.isfinite(cond) & (cond <= COND_LIMIT), lambda c: IllConditioned(
        f"subspace basis condition number {c:.3e}"), cond, U, W)
    Vt, errors = _solve_stack(np.swapaxes(U, -1, -2), np.swapaxes(W, -1, -2),
                              "subspace basis U")
    (V,) = batch.drop(errors, np.swapaxes(Vt, -1, -2))
    asym = _max_abs(V - np.swapaxes(V, -1, -2))
    (V,) = batch.keep(asym <= 1e-6 * np.maximum(1.0, _max_abs(V)), lambda s: (
        NoStabilizingSolution(f"subspace solution not symmetric (skew {s:.3e})")), asym, V)
    return _sym(V)


def _newton_step(V, a, Bmat, qs):
    """Solve F^T E + E F = R(V), F = B - 2aV, for symmetric E; return V + E."""
    F = Bmat - 2.0 * a @ V
    E, errors = _lyap_solve(_lyap_op(np.swapaxes(F, -1, -2)),
                            _residual_matrix(V, a, Bmat, qs), "Newton-step Sylvester system")
    return V + E, errors


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
    return batch.keep(res <= RESIDUAL_TOL * scale, lambda r: IllConditioned(
        f"Riccati residual {r:.3e} after refinement"), res, V, res)


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
    V, res = _polish(_subspace_solutions(Z, d, batch), a, Bmat, qs, batch)
    F = Bmat - 2.0 * a @ V
    return batch.keep(np.linalg.eigvals(F).real.max(axis=-1) < 0.0, lambda q: (
        NoStabilizingSolution(f"closed loop is not Hurwitz (q_coeff={q})")),
        qs[batch.idx], V, F, res)


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


def _eigenvalue_slope_stack(V, F, u, a, Bmat, b, dqs, d2q):
    """d lambda / d beta and d^2 lambda / d beta^2 at each solved (V, F, u), with
    q' = dq/d beta each and q'' = d^2 q / d beta^2, by the Riccati sensitivity
    equations of the module docstring.  The second-order solves reuse the
    first-order matrices, so the same members fail."""
    L, M, w = _lyap_op(np.swapaxes(F, -1, -2)), 2.0 * V @ a - Bmat.T, b - _rows(u, a.T)
    dV, errors = _lyap_solve(L, -dqs[:, None, None] * a, "Riccati sensitivity system")
    du, du_errors = _solve_stack(M, 2.0 * dV @ w[..., None], "2Va - B^T")
    du = du[..., 0]
    dlam = (-(du[:, None, :] @ a @ u[:, :, None])[:, 0, 0]
            + np.trace(a @ dV, axis1=-2, axis2=-1) + _rows(du, b))
    d2V = _lyap_solve(L, 4.0 * dV @ a @ dV - np.reshape(d2q, (-1, 1, 1)) * a,
                      "Riccati sensitivity system")[0]
    d2u = _solve_stack(M, 2.0 * d2V @ w[..., None] - 4.0 * dV @ a @ du[..., None],
                       "2Va - B^T")[0][..., 0]
    d2lam = (-(d2u[:, None, :] @ a @ u[:, :, None])[:, 0, 0]
             - (du[:, None, :] @ a @ du[:, :, None])[:, 0, 0]
             + np.trace(a @ d2V, axis1=-2, axis2=-1) + _rows(d2u, b))
    return dlam, d2lam, [e or m for e, m in zip(errors, du_errors)]


def _stationary_stack(F, a):
    """Sigma_inf solving F Sigma + Sigma F^T + a = 0 for each Hurwitz F."""
    return _lyap_solve(_lyap_op(F), -a, "Lyapunov system")


def _stationary_law(F, a, sig, drift):
    """Lyapunov residual and mean (zero if ``drift`` is None) of each law."""
    resid = _max_abs(F @ sig + sig @ np.swapaxes(F, -1, -2) + a)
    if drift is None:
        return resid, np.zeros(F.shape[:-1]), [None] * len(F)
    mean, errors = _solve_stack(F, -drift[..., None], "closed loop")
    return resid, mean[..., 0], errors


def _convergence_form(V, alpha: float, betas, M):
    """V + alpha*beta*I - M/2 per beta, symmetrized, and its ascending eigenvalues."""
    c = _sym(V + (alpha * betas)[:, None, None] * np.eye(V.shape[-1]) - 0.5 * M)
    return c, np.linalg.eigvalsh(c)


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
    sig, errors = _stationary_stack(F[None], a)
    resid, mean, mean_errors = _stationary_law(F[None], a, sig, drift)
    _raise_first(errors + mean_errors)
    return StationaryGaussian(mean=mean[0], covariance=sig[0],
                              lyapunov_residual=float(resid[0]))


@dataclass(frozen=True)
class QuadraticSolution:
    """The chain at one beta: the Riccati solution, u and lambda of the eigenfunction
    exp(-u^T y - y^T V y), the stationary law and both convergence matrices."""

    riccati: RiccatiSolution
    u: np.ndarray
    lam: float
    stationary: StationaryGaussian
    convergence: ConvergenceMatrix
    q_coeff: float
    lambda_terms: tuple[float, float, float]  # u^T a u, tr(a V), u^T b

    @property
    def V(self) -> np.ndarray:
        return self.riccati.V


class _Chain(namedtuple("_Chain", "model alpha betas batch q V F res u uau tr_av ub lam "
                                  "sig c_prec e_prec", defaults=(None, None, None))):
    """One chunk's chain: its ``_Batch`` (an error slot per beta), then a row
    per solved beta; the stationary fields stay None after the rate stage."""

    def solutions(self) -> list:
        """Each beta's ``QuadraticSolution``, or its error."""
        out = list(self.batch.errors)
        solved = [i for i, exc in enumerate(out) if exc is None]
        a, V, F, sig = self.model.a, self.V, self.F, self.sig
        lres, mean, errors = _stationary_law(F, a, sig, self.model.b - _rows(self.u, a.T))
        c_cov, e_cov = _convergence_form(V, self.alpha, self.betas[solved], sig)
        for j, i in enumerate(solved):
            out[i] = errors[j] or QuadraticSolution(
                RiccatiSolution(V[j], F[j], float(self.res[j])), self.u[j], float(self.lam[j]),
                StationaryGaussian(mean[j], sig[j], float(lres[j])),
                ConvergenceMatrix(c_cov[j], self.c_prec[j], e_cov[j], self.e_prec[j],
                                  bool(e_cov[j][-1] < -EIG_MARGIN),
                                  bool(self.e_prec[j][-1] < -EIG_MARGIN)),
                float(self.q[j]), (float(self.uau[j]), float(self.tr_av[j]), float(self.ub[j])))
        return out


def _rate_stage(model: Quadratic, alpha: float, betas: np.ndarray) -> _Chain:
    """A chunk's chain up to lambda: Riccati solution, drift shift, lambda terms."""
    a, Bmat, b = model.a, model.Bmat, model.b
    qs = model.killing_coeff(alpha, betas)[0]
    batch = _Batch(len(betas))
    V, F, res = _riccati_stack(a, Bmat, qs, batch)
    u, errors = _drift_shift(V, a, Bmat, b)
    V, F, res, u = batch.drop(errors, V, F, res, u)
    # The terms of lambda = -u^T a u / 2 + tr(a V) + u^T b.
    uau = (u[:, None, :] @ a @ u[:, :, None])[:, 0, 0]
    tr_av, ub = np.trace(a @ V, axis1=-2, axis2=-1), _rows(u, b)
    return _Chain(model, alpha, betas, batch, qs[batch.idx], V, F, res, u, uau, tr_av, ub,
                  -0.5 * uau + tr_av + ub)


def _stationary_stage(chain: _Chain) -> _Chain:
    """The rest of a chain: the stationary law and the convergence test."""
    model, batch = chain.model, chain.batch
    sig, stat_errors = _stationary_stack(chain.F, model.a)
    precision, conv_errors = _solve_stack(sig, np.eye(model.d), "stationary covariance")
    c_prec, e_prec = _convergence_form(chain.V, chain.alpha, chain.betas[batch.idx], precision)
    stacks = batch.drop([s or c for s, c in zip(stat_errors, conv_errors)],
                        *chain[4:13], sig, c_prec, e_prec)
    return _Chain(*chain[:4], *stacks)


def _solve_chunk(model: Quadratic, alpha: float, betas: np.ndarray) -> _Chain:
    return _stationary_stage(_rate_stage(model, alpha, betas))


def _solve_chains(model: Quadratic, alpha: float, betas, stationary=True) -> Iterator[_Chain]:
    """The chain of each ``_chunk_size(d)`` betas of a grid, solved lazily; its
    rate stage alone unless ``stationary``."""
    betas = np.asarray(betas, dtype=float).reshape(-1)
    step, solve = _chunk_size(model.d), _solve_chunk if stationary else _rate_stage
    for start in range(0, betas.size, step):
        yield solve(model, alpha, betas[start:start + step])


def solve_quadratic_grid(model: Quadratic, alpha: float,
                         betas) -> Iterator[QuadraticSolution | LetfGrowthError]:
    """Solve the full eigen/stationarity chain at every beta of a grid.

    Yields, in order, the solution at each beta or the library error that
    :func:`solve_quadratic_model` raises there.  Each chunk of betas is
    solved when the previous one has been consumed, so a caller that keeps
    only what it derives from each solution holds one chunk at a time.
    """
    for chain in _solve_chains(model, alpha, betas):
        yield from chain.solutions()


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
