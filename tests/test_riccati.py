"""Stabilizing Riccati solver, drift-shift system, stationary covariance."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from letfgrowth import riccati
from letfgrowth.errors import (
    IllConditioned,
    LetfGrowthError,
    NoStabilizingSolution,
    NotHurwitz,
    SingularSystem,
)
from letfgrowth.growth import _classified, _condition, growth_curve, growth_rate
from letfgrowth.models import ConstantRate, Leverage, Preference, Problem, Quadratic, validate
from letfgrowth.riccati import (
    anti_stabilizing_riccati,
    solve_quadratic_grid,
    solve_quadratic_model,
    solve_stabilizing_riccati,
    stationary_covariance,
)

from reference_laws import scalar_stabilizing_v


def _rng():
    return np.random.default_rng(20240811)


def random_spd(rng, d):
    M = rng.normal(size=(d, d))
    return M @ M.T + d * np.eye(d)


def random_hurwitz(rng, d):
    M = rng.normal(size=(d, d))
    # Shift the spectrum left of the imaginary axis.
    return M - (np.max(np.linalg.eigvals(M).real) + 0.5 + rng.uniform(0, 2)) * np.eye(d)


def ill_conditioned_non_normal(rng, d):
    """a with eigenvalues 1e-3..10 in a random basis; B Hurwitz upper
    triangular with a large off-diagonal part, so far from normal."""
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    a = Q @ np.diag(np.logspace(-3.0, 1.0, d)) @ Q.T
    B = np.triu(rng.normal(scale=5.0, size=(d, d)), 1) - np.diag(rng.uniform(0.2, 2.0, d))
    return a, B


def non_hurwitz(rng, d):
    """SPD a with a B whose rightmost eigenvalue has real part in (0.05, 1)."""
    M = rng.normal(size=(d, d))
    shift = np.max(np.linalg.eigvals(M).real) - rng.uniform(0.05, 1.0)
    return random_spd(rng, d), M - shift * np.eye(d)


# (a, B) recipes of the sweep: criterion 7, the same at the catalog model's
# scale (a / 10d), an ill-conditioned a with a non-normal B, a non-Hurwitz B.
SWEEP_RECIPES = {
    "criterion7": lambda rng, d: (random_spd(rng, d), random_hurwitz(rng, d)),
    "catalog_scale": lambda rng, d: (random_spd(rng, d) / (10.0 * d), random_hurwitz(rng, d)),
    "ill_conditioned": ill_conditioned_non_normal,
    "non_hurwitz": non_hurwitz,
}
SWEEP_BETAS = np.union1d(np.linspace(-4.0, 5.0, 59), [0.0, 1.0])


def sweep_models(seed, per_dim):
    """(alpha, model) for per_dim models of each recipe at each d = 1..6."""
    rng = np.random.default_rng(seed)
    for recipe in SWEEP_RECIPES.values():
        for d in range(1, 7):
            for _ in range(per_dim):
                a, B = recipe(rng, d)
                yield float(rng.choice([0.3, 0.5, 1.0])), Quadratic(
                    b=rng.normal(scale=0.1, size=d), Bmat=B, sigma=np.linalg.cholesky(a))


def test_zero_killing_gives_zero_solution():
    sol = solve_stabilizing_riccati(np.eye(2), -np.eye(2), 0.0)
    assert np.allclose(sol.V, 0.0, atol=1e-14)
    assert np.max(np.linalg.eigvals(sol.closed_loop).real) < 0.0


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
    assert np.min(np.linalg.eigvals(sol.closed_loop).real) > 0.0
    # The mirrored stabilizing solve for -B: the residual matrix is the same
    # one, and every closed-loop eigenvalue lies in the right half plane.
    rng = _rng()
    for d in range(1, 7):
        a, B = random_spd(rng, d), random_hurwitz(rng, d)
        q = float(rng.uniform(0.0, 10.0))
        sol = anti_stabilizing_riccati(a, B, q)
        V = sol.V
        assert sol.residual == np.max(np.abs(2.0 * V @ a @ V - B.T @ V - V @ B - q * a))
        assert np.min(np.linalg.eigvals(sol.closed_loop).real) > 0.0


def test_every_route_gives_one_riccati_shape():
    # The stabilizing solve, its mirrored branch and the whole chain hand
    # back the same (V, closed loop, residual); u and lambda are the chain's.
    m = Quadratic(b=[0.1, -0.05], Bmat=[[-1.0, 0.2], [0.0, -0.8]],
                  sigma=[[0.3, 0.0], [0.1, 0.25]])
    sol = solve_quadratic_model(m, 0.5, 2.0)
    for ric in (sol.riccati, solve_stabilizing_riccati(m.a, m.Bmat, sol.q_coeff),
                anti_stabilizing_riccati(m.a, m.Bmat, sol.q_coeff)):
        assert [f.name for f in dataclasses.fields(ric)] == ["V", "closed_loop", "residual"]
    assert sol.V is sol.riccati.V
    uau, tr_av, ub = sol.lambda_terms
    assert sol.lam == -0.5 * uau + tr_av + ub


def test_no_stabilizing_solution_for_strongly_negative_killing():
    # q < 0 with 1 + 2q < 0 pushes the Hamiltonian spectrum off the real
    # axis symmetrically; there is no stable d-dimensional subspace.
    with pytest.raises(NoStabilizingSolution):
        solve_stabilizing_riccati(np.array([[1.0]]), np.array([[-1.0]]), -2.0)


@pytest.mark.parametrize("d", range(1, 7))
def test_stabilizing_solution_matches_scipy_care(d):
    # An independent reference: scipy's CARE solver with input matrix
    # chol(2a), state weight q a and unit control weight solves the same
    # equation for q >= 0.
    rng = np.random.default_rng([20240811, d])
    for q in (0.0, *rng.uniform(0.0, 10.0, size=5)):
        a, B = random_spd(rng, d), random_hurwitz(rng, d)
        V = solve_stabilizing_riccati(a, B, q).V
        X = scipy.linalg.solve_continuous_are(B, np.linalg.cholesky(2.0 * a), q * a,
                                              np.eye(d))
        assert np.max(np.abs(V - X)) <= 1e-12 * max(1.0, np.max(np.abs(X)))


@pytest.mark.parametrize("d", [2, 3])
def test_defective_drift_at_zero_killing(d):
    # A Jordan block has a single eigenvector, too few to span the stable
    # subspace; at q = 0 that subspace is exactly span [I; 0], so V = 0.
    sol = solve_stabilizing_riccati(np.eye(d), np.eye(d, k=1) - np.eye(d), 0.0)
    assert np.all(sol.V == 0.0)
    assert np.max(np.linalg.eigvals(sol.closed_loop).real) < 0.0


def test_defective_drift_curve_solves_at_beta_one():
    m = Quadratic(b=[0.1, -0.05], Bmat=[[-1.0, 1.0], [0.0, -1.0]], sigma=np.eye(2))
    vp = validate(Problem(m, Preference(0.5), Leverage(1.0), ConstantRate(0.01)))
    (point,) = growth_curve(vp, [1.0])
    assert point.error is None and point.growth.is_finite


# A d = 2 model that solves at every beta of its grid (q != 0 at each).
SOLVED_MODEL = Quadratic(b=[0.1, -0.05], Bmat=[[-1.0, 0.2], [0.0, -0.8]],
                         sigma=[[0.3, 0.0], [0.1, 0.25]])
SOLVED_BETAS = np.linspace(-2.0, 3.0, 24)


def test_eig_failure_is_retried_member_by_member(monkeypatch):
    m, betas = SOLVED_MODEL, SOLVED_BETAS
    want = list(solve_quadratic_grid(m, 0.5, betas))
    assert not any(isinstance(w, LetfGrowthError) for w in want)
    eig = np.linalg.eig

    def stack_fails(H):
        if H.ndim > 2:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eig(H)

    def always_fails(H):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", stack_fails)
    for g, w in zip(solve_quadratic_grid(m, 0.5, betas), want):
        assert np.allclose(g.V, w.V, rtol=1e-12, atol=1e-15)
        assert g.lam == pytest.approx(w.lam, rel=1e-12, abs=1e-15)
    monkeypatch.setattr(np.linalg, "eig", always_fails)
    got = list(solve_quadratic_grid(m, 0.5, betas))
    assert all(isinstance(g, NoStabilizingSolution) and "eigendecomposition failed" in str(g)
               for g in got)


def test_sweep_members_solve_or_raise_a_library_error():
    # 192 models over four recipes and d = 1..6, 61 betas each: every
    # member either passes the residual gate with a Hurwitz closed loop or
    # carries a library error, never a numpy one.
    counts = {"solved": 0, "failed": 0}
    for alpha, m in sweep_models(20261018, 8):
        scale_a = float(np.max(np.abs(m.a)))
        for sol in solve_quadratic_grid(m, alpha, SWEEP_BETAS):
            if isinstance(sol, LetfGrowthError):
                counts["failed"] += 1
                continue
            counts["solved"] += 1
            scale = max(1.0, scale_a * max(1.0, float(np.max(np.abs(sol.V)))) ** 2)
            assert sol.riccati.residual <= riccati.RESIDUAL_TOL * scale
            assert np.max(np.linalg.eigvals(sol.riccati.closed_loop).real) < 0.0
    assert counts["solved"] > 0 and counts["failed"] > 0


def test_singular_member_of_a_batched_solve_fails_alone():
    A = np.stack([np.eye(2), np.zeros((2, 2)), 2.0 * np.eye(2)])
    x, errors = riccati._solve_stack(A, np.ones((3, 2, 1)), "test system")
    assert errors[0] is None and errors[2] is None
    assert isinstance(errors[1], SingularSystem)
    assert np.array_equal(x[0], np.ones((2, 1))) and np.array_equal(x[2], np.full((2, 1), 0.5))


def chunks_of(monkeypatch, n, d):
    """Shrink the Kronecker budget so that a grid at dimension d is solved in
    chunks of n betas, which keeps several-chunk grids cheap."""
    monkeypatch.setattr(riccati, "KRONECKER_ENTRIES", n * d ** 4)
    assert riccati._chunk_size(d) == n


def growth_from_solution(alpha, beta, r, sol):
    """The classification a QuadraticSolution gives at beta: the precision
    form's top eigenvalue decides, and the rate is alpha r (1 - beta) - lambda
    split into the chain's lambda terms."""
    uau, tr_av, ub = sol.lambda_terms
    cond = _condition("", -float(sol.convergence.eigs_precision[-1]), 0.0)
    return _classified(cond, {"rate_term": r * alpha * (1.0 - beta), "half_uau": 0.5 * uau,
                              "trace_aV": -tr_av, "u_b": -ub})


def growth_hex(g):
    return (g.classification, None if g.rate is None else g.rate.hex(),
            g.condition.lhs.hex(), {k: v.hex() for k, v in g.components.items()})


@pytest.mark.parametrize("d", [1, 2, 4])
def test_curve_and_slope_match_the_solution_objects(monkeypatch, d):
    # growth_curve and rate_and_slope read the stacked chain; each value must
    # be, bit for bit, what the per-beta QuadraticSolution of the same grid
    # (or of the same single beta) gives.
    rng = np.random.default_rng([20261019, d])
    m = Quadratic(b=rng.normal(scale=0.1, size=d), Bmat=random_hurwitz(rng, d),
                  sigma=np.linalg.cholesky(4.0 * random_spd(rng, d)))
    alpha, r = 0.5, 0.01
    chunks_of(monkeypatch, 64, d)
    betas = np.linspace(-2.05, 3.0, 2 * 64 + 3)  # three chunks
    assert np.all(betas != 0.0)
    vp = validate(Problem(m, Preference(alpha), Leverage(1.0), ConstantRate(r)))
    n_failed = 0
    for point, sol in zip(growth_curve(vp, betas), solve_quadratic_grid(m, alpha, betas)):
        if isinstance(sol, LetfGrowthError):
            n_failed += 1
            assert point.error == f"{type(sol).__name__}: {sol}"
            continue
        assert growth_hex(point.growth) == growth_hex(
            growth_from_solution(alpha, point.beta, r, sol))
    assert 0 < n_failed < betas.size
    got = []
    for beta in betas[::7].tolist():
        want = (-np.inf, np.nan, np.nan)
        (sol,) = solve_quadratic_grid(m, alpha, [beta])
        if (not isinstance(sol, LetfGrowthError)
                and (g := growth_from_solution(alpha, beta, r, sol)).is_finite):
            dlam, d2lam, errors = riccati._eigenvalue_slope_stack(
                sol.V[None], sol.riccati.closed_loop[None], sol.u[None], m.a, m.Bmat, m.b,
                *m.killing_coeff(alpha, np.array([beta]))[1:])
            if errors[0] is None:
                want = (g.rate, -r * alpha - float(dlam[0]), -float(d2lam[0]))
        (one,) = m.rate_and_slope(alpha, [beta], r)
        assert [float(x).hex() for x in one] == [float(x).hex() for x in want]
        got.append(one)
    # A stack of betas gives each beta's values alone, bit for bit.
    stacked = m.rate_and_slope(alpha, betas[::7], r)
    assert [[x.hex() for x in t] for t in stacked] == [[x.hex() for x in t] for t in got]


@pytest.mark.parametrize("d", range(1, 7))
def test_scan_rates_match_the_curve_bit_for_bit(d):
    # The rate stage alone gives growth_curve's rate at every finite point,
    # the money-market rate at beta = 0, and -inf only where the curve
    # point carries an error.
    m = seeded_model(d, scale=4.0)
    betas = np.linspace(-4.0, 5.0, 37)  # beta = 0 included
    vp = validate(Problem(m, Preference(0.5), Leverage(1.0), ConstantRate(0.01)))
    rates = m.rates(0.5, 0.01, betas)
    seen = {"finite": 0, "infinite": 0, "error": 0}
    for rate, point in zip(rates, growth_curve(vp, betas)):
        if point.error is not None:
            seen["error"] += 1
        elif point.growth.is_finite:
            seen["finite"] += 1
            assert rate.hex() == point.growth.rate.hex()
        else:
            seen["infinite"] += 1
        assert rate != -np.inf or point.error is not None
    assert rates[16] == 0.5 * 0.01 and betas[16] == 0.0
    assert seen["finite"] >= 20 and seen["infinite"] > 0 and seen["error"] > 0


def test_curve_points_match_growth_rate_bit_for_bit():
    # A curve point is solved in a stack of the whole grid, growth_rate in a
    # stack of one; each row of a stack is computed from its own beta alone.
    rng = np.random.default_rng(20261019)
    models = [Quadratic(b=[0.1, -0.05], Bmat=[[-1.0, 0.2], [0.0, -0.8]],
                        sigma=[[0.3, 0.0], [0.1, 0.25]])]
    for d in (2, 4):
        models.append(Quadratic(b=rng.normal(scale=0.1, size=d), Bmat=random_hurwitz(rng, d),
                                sigma=np.linalg.cholesky(random_spd(rng, d) / (10 * d))))
    betas = -3.0 + 0.01 * np.arange(601)
    for m in models:
        vp = validate(Problem(m, Preference(0.5), Leverage(1.0), ConstantRate(0.01)))
        for point in growth_curve(vp, betas):
            g = growth_rate(validate(Problem(m, Preference(0.5), Leverage(point.beta),
                                             ConstantRate(0.01))))
            assert growth_hex(point.growth) == growth_hex(g)


@pytest.mark.parametrize("d", range(1, 9))
def test_chunk_size_fits_the_kronecker_budget(d):
    n = riccati._chunk_size(d)
    assert n >= 1 and n * d ** 4 <= riccati.KRONECKER_ENTRIES


def counted_chunks(monkeypatch):
    count = {"chunks": 0}
    solve_chunk = riccati._solve_chunk

    def counted(*args):
        count["chunks"] += 1
        return solve_chunk(*args)

    monkeypatch.setattr(riccati, "_solve_chunk", counted)
    return count


def seeded_model(d, scale=1.0, seed=20261020):
    rng = np.random.default_rng([seed, d])
    return Quadratic(b=rng.normal(scale=0.1, size=d), Bmat=random_hurwitz(rng, d),
                     sigma=np.linalg.cholesky(scale * random_spd(rng, d)))


CURVE_BETAS = -3.0 + 0.01 * np.arange(601)


@pytest.mark.parametrize("d", [1, 2])
def test_curve_is_one_stack_at_small_d(monkeypatch, d):
    count = counted_chunks(monkeypatch)
    vp = validate(Problem(seeded_model(d), Preference(0.5), Leverage(1.0), ConstantRate(0.01)))
    assert len(growth_curve(vp, CURVE_BETAS)) == CURVE_BETAS.size
    assert count["chunks"] == 1


def test_curve_memory_stays_within_the_chunk_budget_at_d6(monkeypatch):
    # At d = 6 a chunk is 50 betas (50 Kronecker matrices of 36 x 36, about
    # 0.5 MB); the curve's 600 betas off zero are 12 chunks, solved one after
    # the other.
    d = 6
    count = counted_chunks(monkeypatch)
    vp = validate(Problem(seeded_model(d, 1.0 / (10 * d)), Preference(0.5), Leverage(1.0),
                          ConstantRate(0.01)))
    tracemalloc.start()
    try:
        points = growth_curve(vp, CURVE_BETAS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(points) == CURVE_BETAS.size and count["chunks"] == 12
    assert peak < 3 * 2 ** 20  # about 1.1 MB; one stack of all 600 betas takes 7


def solution_bytes(sol):
    """Every field of a QuadraticSolution as bytes, or its error's text."""
    if isinstance(sol, LetfGrowthError):
        return f"{type(sol).__name__}: {sol}"

    def flat(x):
        return b"".join(flat(v) for v in x) if isinstance(x, tuple) else np.asarray(x).tobytes()

    return flat(dataclasses.astuple(sol))


@pytest.mark.parametrize("chunk", [64, 128, 320, None], ids=["64", "128", "320", "default"])
def test_grid_matches_single_beta_solves(monkeypatch, chunk):
    # On the d = 2 grid some betas have a complex Hamiltonian spectrum, some a
    # real one and some no stabilizing branch.  Every field of each grid
    # solution, and each error, is the single-beta solve's, at any chunk size.
    rng = _rng()
    m4 = Quadratic(b=rng.normal(scale=0.1, size=4), Bmat=random_hurwitz(rng, 4),
                   sigma=np.linalg.cholesky(random_spd(rng, 4)))
    m2 = seeded_model(2, seed=7)
    qs = m2.killing_coeff(0.5, CURVE_BETAS)[0]
    cplx = (np.linalg.eigvals(riccati._hamiltonians(m2.a, m2.Bmat, qs)).imag != 0.0).any(axis=-1)
    assert 0 < cplx.sum() < cplx.size
    if chunk is not None:
        chunks_of(monkeypatch, chunk, 2)  # d = 4 then takes chunk / 16 betas
    for m, betas in ((m2, CURVE_BETAS), (m4, np.linspace(-2.0, 3.0, 2 * 64 + 3))):
        grid = list(solve_quadratic_grid(m, 0.5, betas))
        want = [next(solve_quadratic_grid(m, 0.5, [beta])) for beta in betas.tolist()]
        assert [solution_bytes(s) for s in grid] == [solution_bytes(s) for s in want]
        solved = [s for s in grid if not isinstance(s, LetfGrowthError)]
        assert 0 < len(solved) < betas.size
        assert all(s.stationary.lyapunov_residual <= 1e-12 * max(1.0, float(np.max(np.abs(m.a))))
                   for s in solved)
    # No beta of this grid has a stabilizing branch: the steps after the
    # eigenvector seed run on empty stacks.
    m1 = Quadratic(b=[0.0], Bmat=[[-0.3]], sigma=[[1.0]])
    assert all(isinstance(s, NoStabilizingSolution)
               for s in solve_quadratic_grid(m1, 0.5, np.linspace(0.1, 0.9, 5)))


def test_chain_runs_in_real_arithmetic(monkeypatch):
    # Some betas of this d = 2 grid have a real Hamiltonian spectrum and some
    # a stable conjugate pair of eigenvalues; the seed's basis is real either
    # way, so no complex array reaches a cond or solve of the chain.
    m2 = seeded_model(2)
    qs = m2.killing_coeff(0.5, CURVE_BETAS)[0]
    w = np.linalg.eigvals(riccati._hamiltonians(m2.a, m2.Bmat, qs))
    split = (w.real < 0.0).sum(axis=-1) == 2
    cplx = (w.imag != 0.0).any(axis=-1)
    assert (split & cplx).any() and (split & ~cplx).any()
    seen = []
    for name in ("cond", "solve"):
        def recorded(*args, _f=getattr(np.linalg, name)):
            seen.extend(np.asarray(x).dtype for x in args)
            return _f(*args)
        monkeypatch.setattr(np.linalg, name, recorded)
    assert any(not isinstance(s, LetfGrowthError)
               for s in solve_quadratic_grid(m2, 0.5, CURVE_BETAS))
    assert seen and all(dt == np.float64 for dt in seen)


def same_but(i, got, want):
    """Every solution or error of ``got`` but the i-th is ``want``'s, byte for byte."""
    return ([solution_bytes(s) for j, s in enumerate(got) if j != i]
            == [solution_bytes(s) for j, s in enumerate(want) if j != i])


def knocked_newton_steps(monkeypatch, member, knock_later):
    """Wrap the Newton step to move ``member`` of the first stack 1e-3 off
    its result, and every member of each later (re-polish) stack too when
    ``knock_later`` is set; returns the size of each stack stepped."""
    step, sizes = riccati._newton_step, []

    def knocked(V, a, Bmat, qs):
        V, errors = step(V, a, Bmat, qs)
        target = member if not sizes else slice(None) if knock_later else None
        sizes.append(len(V))
        if target is not None:
            V[target] += 1e-3 * np.array([[1.0, 0.5], [0.5, 1.0]])
        return V, errors

    monkeypatch.setattr(riccati, "_newton_step", knocked)
    return sizes


def test_member_left_above_the_gate_is_polished_again(monkeypatch):
    want = list(solve_quadratic_grid(SOLVED_MODEL, 0.5, SOLVED_BETAS))
    sizes = knocked_newton_steps(monkeypatch, 5, knock_later=False)
    got = list(solve_quadratic_grid(SOLVED_MODEL, 0.5, SOLVED_BETAS))
    assert sizes[0] == SOLVED_BETAS.size and 1 < len(sizes) <= 4 and set(sizes[1:]) == {1}
    assert same_but(5, got, want)
    scale = max(1.0, float(np.max(np.abs(SOLVED_MODEL.a)))
                * max(1.0, float(np.max(np.abs(got[5].V)))) ** 2)
    assert got[5].riccati.residual <= riccati.RESIDUAL_TOL * scale
    assert np.allclose(got[5].V, want[5].V, rtol=1e-9, atol=1e-12)


def test_member_that_never_passes_the_gate_fails_alone(monkeypatch):
    want = list(solve_quadratic_grid(SOLVED_MODEL, 0.5, SOLVED_BETAS))
    sizes = knocked_newton_steps(monkeypatch, 5, knock_later=True)
    got = list(solve_quadratic_grid(SOLVED_MODEL, 0.5, SOLVED_BETAS))
    assert sizes == [SOLVED_BETAS.size, 1, 1, 1]
    assert isinstance(got[5], IllConditioned)
    assert str(got[5]).startswith("Riccati residual") and "after refinement" in str(got[5])
    assert same_but(5, got, want)


def test_drift_shift_residual_failure_fails_that_beta_alone(monkeypatch):
    want = list(solve_quadratic_grid(SOLVED_MODEL, 0.5, SOLVED_BETAS))
    solve_stack = riccati._solve_stack

    def off_by_one(A, rhs, what):
        x, errors = solve_stack(A, rhs, what)
        if what == "2Va - B^T":
            x[7] += 1.0
        return x, errors

    monkeypatch.setattr(riccati, "_solve_stack", off_by_one)
    got = list(solve_quadratic_grid(SOLVED_MODEL, 0.5, SOLVED_BETAS))
    assert isinstance(got[7], SingularSystem)
    assert str(got[7]).startswith("drift-shift system residual")
    assert same_but(7, got, want)


def unit_model(b):
    """d = 1 with a = 1 and B = -1; at alpha = 1, beta = 2 the killing
    coefficient is q = 4 and the stabilizing root V = 1."""
    return Quadratic(b=[b], Bmat=[[-1.0]], sigma=[[1.0]])


def test_compute_u_cases():
    # (2 V a - B^T) u = 2 V b gives u = 2b/3 at V = 1.
    for b, u in ((0.0, 0.0), (1.0, 2.0 / 3.0)):
        sol = solve_quadratic_model(unit_model(b), 1.0, 2.0)
        assert sol.q_coeff == 4.0
        assert sol.V[0, 0] == pytest.approx(1.0, abs=1e-13)
        assert sol.u[0] == pytest.approx(u, abs=1e-13)
    # beta = 1 kills nothing: V = 0 with invertible B^T gives u = 0.
    sol = solve_quadratic_model(unit_model(1.0), 1.0, 1.0)
    assert sol.V[0, 0] == 0.0 and sol.u[0] == 0.0


def test_quadratic_eigenvalue_values():
    # lambda = -u a u / 2 + tr(a V) + u b.
    assert solve_quadratic_model(unit_model(0.0), 1.0, 1.0).lam == 0.0
    assert solve_quadratic_model(unit_model(0.0), 1.0, 2.0).lam == pytest.approx(1.0, abs=1e-12)
    lam = solve_quadratic_model(unit_model(1.0), 1.0, 2.0).lam
    assert lam == pytest.approx(13.0 / 9.0, abs=1e-12)


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
