"""Stabilizing Riccati solver, drift-shift system, stationary covariance."""

import numpy as np
import pytest

from letfgrowth import riccati
from letfgrowth.errors import NoStabilizingSolution, NotHurwitz, SingularSystem
from letfgrowth.models import Quadratic
from letfgrowth.riccati import (
    anti_stabilizing_riccati,
    compute_u,
    convergence_matrices,
    quadratic_eigenvalue,
    riccati_residual,
    scalar_stabilizing_v,
    solve_quadratic_grid,
    solve_quadratic_model,
    solve_stabilizing_riccati,
    stationary_covariance,
)


def _rng():
    return np.random.default_rng(20240811)


def random_spd(rng, d):
    M = rng.normal(size=(d, d))
    return M @ M.T + d * np.eye(d)


def random_hurwitz(rng, d):
    M = rng.normal(size=(d, d))
    # Shift the spectrum left of the imaginary axis.
    return M - (np.max(np.linalg.eigvals(M).real) + 0.5 + rng.uniform(0, 2)) * np.eye(d)


def test_zero_killing_gives_zero_solution():
    sol = solve_stabilizing_riccati(np.eye(2), -np.eye(2), 0.0)
    assert np.allclose(sol.V, 0.0, atol=1e-14)
    assert sol.stable


def test_scalar_closed_form():
    for c in (0.5, 2.0, 4.0, 10.0):
        sol = solve_stabilizing_riccati(np.array([[1.0]]), np.array([[-1.0]]), c)
        want = (-1.0 + np.sqrt(1.0 + 2.0 * c)) / 2.0
        assert sol.V[0, 0] == pytest.approx(want, abs=1e-13)
        assert sol.closed_loop[0, 0] == pytest.approx(-np.sqrt(1.0 + 2.0 * c), abs=1e-12)
        assert scalar_stabilizing_v(1.0, -1.0, c) == pytest.approx(want, rel=1e-15)


def test_isotropic_d2_reduces_to_scalar():
    c = 3.0
    sol = solve_stabilizing_riccati(np.eye(2), -np.eye(2), c)
    v = (-1.0 + np.sqrt(1.0 + 2.0 * c)) / 2.0
    assert np.allclose(sol.V, v * np.eye(2), atol=1e-12)


def test_matrix_vs_scalar_sweep():
    for B in (-0.3, -1.0, -2.5, 0.7):
        for a in (0.5, 1.0, 2.0):
            for q in (-0.2, 0.0, 0.1, 1.0, 5.0, 12.0):
                if B * B + 2.0 * q * a * a <= 0.0:
                    continue
                sol = solve_stabilizing_riccati(np.array([[a]]), np.array([[B]]), q)
                want = scalar_stabilizing_v(a, B, q)
                assert abs(sol.V[0, 0] - want) <= 1e-12 * max(1.0, abs(want))


def test_random_instances_residual_and_stability():
    rng = _rng()
    for _ in range(30):
        d = int(rng.integers(1, 7))
        a = random_spd(rng, d)
        B = random_hurwitz(rng, d)
        q = float(rng.uniform(0.0, 8.0))
        sol = solve_stabilizing_riccati(a, B, q)
        scale = max(1.0, np.max(np.abs(a)) * max(1.0, np.max(np.abs(sol.V))) ** 2)
        assert sol.residual <= 1e-10 * scale
        assert np.max(np.abs(sol.V - sol.V.T)) <= 1e-12 * max(1.0, np.max(np.abs(sol.V)))
        assert np.max(np.linalg.eigvals(sol.closed_loop).real) < 0.0


def test_anti_stable_branch_is_not_stabilizing():
    sol = anti_stabilizing_riccati(np.eye(2), -np.eye(2), 2.0)
    assert np.max(np.linalg.eigvals(sol.closed_loop).real) > 0.0
    assert not sol.stable


def test_no_stabilizing_solution_for_strongly_negative_killing():
    # q < 0 with 1 + 2q < 0 pushes the Hamiltonian spectrum off the real
    # axis symmetrically; there is no stable d-dimensional subspace.
    with pytest.raises(NoStabilizingSolution):
        solve_stabilizing_riccati(np.array([[1.0]]), np.array([[-1.0]]), -2.0)


def test_schur_reordering_failure_is_no_stabilizing_solution(monkeypatch):
    # scipy reports a reordering that loses an eigenvalue to the other half
    # plane as a numpy LinAlgError; the library reports a missing branch.
    def failing_schur(*args, **kwargs):
        raise np.linalg.LinAlgError("Leading eigenvalues do not satisfy sort condition")

    monkeypatch.setattr(riccati.sla, "schur", failing_schur)
    with pytest.raises(NoStabilizingSolution, match="Schur reordering failed"):
        solve_stabilizing_riccati(np.eye(2), -np.eye(2), 1.0)


def test_singular_member_of_a_batched_solve_fails_alone():
    A = np.stack([np.eye(2), np.zeros((2, 2)), 2.0 * np.eye(2)])
    x, errors = riccati._solve_stack(A, np.ones((3, 2, 1)), "test system")
    assert errors[0] is None and errors[2] is None
    assert isinstance(errors[1], SingularSystem)
    assert np.array_equal(x[0], np.ones((2, 1))) and np.array_equal(x[2], np.full((2, 1), 0.5))


def test_grid_matches_single_beta_solves():
    rng = _rng()
    d = 4
    m = Quadratic(b=rng.normal(scale=0.1, size=d), Bmat=random_hurwitz(rng, d),
                  sigma=np.linalg.cholesky(random_spd(rng, d)))
    betas = np.linspace(-2.0, 3.0, 2 * riccati._chunk_size(d) + 3)  # three chunks
    grid = list(solve_quadratic_grid(m, 0.5, betas))
    assert len(grid) == betas.size
    n_failed = 0
    for beta, got in zip(betas, grid):
        try:
            want = solve_quadratic_model(m, 0.5, float(beta))
        except NoStabilizingSolution as exc:
            assert type(got) is type(exc)
            n_failed += 1
            continue
        assert got.q_coeff == want.q_coeff
        for x, y in ((got.V, want.V), (got.u, want.u), (got.stationary.covariance,
                     want.stationary.covariance), (got.convergence.eigs_precision,
                     want.convergence.eigs_precision)):
            assert np.allclose(x, y, rtol=1e-12, atol=1e-14)
        assert got.lam == pytest.approx(want.lam, rel=1e-12, abs=1e-14)
    assert 0 < n_failed < betas.size
    # No beta of this grid has a stabilizing branch: the steps after the
    # Schur seed run on empty stacks.
    m1 = Quadratic(b=[0.0], Bmat=[[-0.3]], sigma=[[1.0]])
    assert all(isinstance(s, NoStabilizingSolution)
               for s in solve_quadratic_grid(m1, 0.5, np.linspace(0.1, 0.9, 5)))


def test_compute_u_cases():
    a = np.array([[1.0]])
    B = np.array([[-1.0]])
    sol = solve_stabilizing_riccati(a, B, 4.0)
    assert sol.V[0, 0] == pytest.approx(1.0, abs=1e-13)
    assert compute_u(sol.V, a, B, np.array([0.0]))[0] == 0.0
    assert compute_u(sol.V, a, B, np.array([1.0]))[0] == pytest.approx(2.0 / 3.0, abs=1e-13)
    # V = 0 with invertible B^T gives u = 0.
    assert compute_u(np.zeros((1, 1)), a, B, np.array([1.0]))[0] == 0.0


def test_compute_u_singular_system():
    with pytest.raises(SingularSystem):
        compute_u(np.zeros((2, 2)), np.eye(2), np.zeros((2, 2)), np.ones(2))


def test_quadratic_eigenvalue_values():
    a = np.array([[1.0]])
    B = np.array([[-1.0]])
    assert quadratic_eigenvalue(np.zeros((1, 1)), np.zeros(1), a, np.zeros(1)) == 0.0
    sol = solve_stabilizing_riccati(a, B, 4.0)
    assert quadratic_eigenvalue(sol.V, np.zeros(1), a, np.zeros(1)) == pytest.approx(1.0, abs=1e-12)
    u = compute_u(sol.V, a, B, np.array([1.0]))
    lam = quadratic_eigenvalue(sol.V, u, a, np.array([1.0]))
    assert lam == pytest.approx(13.0 / 9.0, abs=1e-12)  # -u a u/2 + tr(aV) + u b


def test_stationary_covariance_scalar_and_isotropic():
    st = stationary_covariance(np.array([[-2.0]]), np.array([[0.09]]))
    assert st.covariance[0, 0] == pytest.approx(0.09 / 4.0, rel=1e-12)
    st2 = stationary_covariance(-np.eye(2), np.eye(2))
    assert np.allclose(st2.covariance, 0.5 * np.eye(2), atol=1e-13)


def test_stationary_covariance_random_and_mean():
    rng = _rng()
    for _ in range(10):
        d = int(rng.integers(1, 5))
        F = random_hurwitz(rng, d)
        a = random_spd(rng, d)
        drift = rng.normal(size=d)
        st = stationary_covariance(F, a, drift_const=drift)
        assert st.lyapunov_residual <= 1e-10 * max(1.0, np.max(np.abs(a)))
        assert np.allclose(F @ st.mean + drift, 0.0, atol=1e-10)
        assert np.min(np.linalg.eigvalsh(st.covariance)) > 0.0


def test_stationary_covariance_rejects_unstable():
    with pytest.raises(NotHurwitz):
        stationary_covariance(np.array([[0.5]]), np.array([[1.0]]))


def test_convergence_matrix_discriminating_case():
    # d=1, a=1, B=-3, alpha=0.5, beta=2: the covariance form flags infinite
    # while the precision form (the actual Gaussian-integral exponent) says
    # finite.  The Monte Carlo suite confirms the precision form.
    m = Quadratic(b=[0.0], Bmat=[[-3.0]], sigma=[[1.0]])
    sol = solve_quadratic_model(m, 0.5, 2.0)
    assert sol.V[0, 0] == pytest.approx((-3.0 + np.sqrt(13.0)) / 2.0, abs=1e-12)
    conv = sol.convergence
    assert not conv.all_negative_covariance
    assert conv.all_negative_precision
    assert np.allclose(conv.c_covariance, conv.c_covariance.T)
    assert np.allclose(conv.c_precision, conv.c_precision.T)


def test_residual_helper_matches_definition():
    rng = _rng()
    a = random_spd(rng, 3)
    B = random_hurwitz(rng, 3)
    V = rng.normal(size=(3, 3))
    V = 0.5 * (V + V.T)
    R = 2 * V @ a @ V - B.T @ V - V @ B - 1.7 * a
    assert riccati_residual(V, a, B, 1.7) == pytest.approx(np.max(np.abs(R)))
