import numpy as np
import pytest
import scipy.linalg

from _oracles import _fgm_gradient, _fgm_objective, _psd, _sym, fgm_reference
from omegapair import fgm
from omegapair import regions as rg
from omegapair.bench import grcar, msd
from omegapair.dh import project_psd, skew, sym
from omegapair.fgm import (FgmOptions, _Workspace, estimate_lipschitz, gradient,
                           initial_quadruple, objective, project, solve_hurwitz)
from omegapair.pencil import admissibility_check


def _random_point(rng, n):
    return np.stack([sym(rng.standard_normal((n, n))), skew(rng.standard_normal((n, n))),
                     sym(rng.standard_normal((n, n))), rng.standard_normal((n, n))])


def test_objective_exact_cases():
    X = np.stack([np.eye(2), np.zeros((2, 2)), np.eye(2), np.eye(2)])
    assert objective(np.eye(2), -np.eye(2), X) == 0.0
    X0 = np.stack([np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2)])
    assert objective(np.eye(2), np.zeros((2, 2)), X0) == 0.0


def test_objective_matches_elementwise_recomputation():
    rng = np.random.default_rng(0)
    n = 4
    for _ in range(10):
        E, A = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        X = _random_point(rng, n)
        T, J, R, Q = X
        mu = float(rng.uniform(0.5, 2.0))
        ra = A - (J - R) @ Q
        re = E - T @ Q
        by_hand = sum(ra[i, j] ** 2 for i in range(n) for j in range(n)) \
            + mu * sum(re[i, j] ** 2 for i in range(n) for j in range(n))
        assert objective(E, A, X, mu) == pytest.approx(by_hand, rel=1e-12)


def test_gradient_vanishes_at_global_minimizer():
    X = np.stack([np.eye(3), np.zeros((3, 3)), np.eye(3), np.eye(3)])
    T, J, R, Q = X
    pair_E, pair_A = T @ Q, (J - R) @ Q
    G = gradient(pair_E, pair_A, X)
    assert G.shape == X.shape
    for g in G:
        np.testing.assert_allclose(g, 0.0, atol=1e-14)


def _fd_gradient(E, A, X, mu, D, h):
    def f(s):
        return objective(E, A, X + s * D, mu)
    return (f(h) - f(-h)) / (2 * h)


def test_gradient_matches_central_finite_differences():
    rng = np.random.default_rng(1)
    n = 4
    for _ in range(20):
        E, A = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        X = _random_point(rng, n)
        mu = float(rng.uniform(0.5, 2.0))
        gT, gJ, gR, gQ = gradient(E, A, X, mu)
        D = _random_point(rng, n)
        dT, dJ, dR, dQ = D
        scale = 1 + max(np.linalg.norm(M) for M in X)
        fd = _fd_gradient(E, A, X, mu, D, 1e-6 * scale)
        analytic = (np.sum(gT * dT) + np.sum(gJ * dJ) + np.sum(gR * dR)
                    + np.sum(gQ * dQ))
        assert fd == pytest.approx(analytic, rel=1e-5, abs=1e-8 * scale)


def test_gradient_mu_linearity():
    rng = np.random.default_rng(2)
    n = 3
    E, A = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    X = _random_point(rng, n)
    T, J, R, Q = X
    gT1, _, _, gQ1 = gradient(E, A, X, 1.0)
    gT2, _, _, gQ2 = gradient(E, A, X, 2.0)
    np.testing.assert_allclose(gT2, 2.0 * gT1, atol=1e-12)
    # the E-residual part of the Q gradient doubles; isolate it by
    # subtracting the A-residual part (mu-independent)
    gQ_a = 2.0 * (J - R).T @ ((J - R) @ Q - A)
    np.testing.assert_allclose(gQ2 - gQ_a, 2.0 * (gQ1 - gQ_a), atol=1e-10)


@pytest.mark.parametrize("n", [3, 10, 50, 200])
def test_workspace_calls_match_fresh_calls_and_per_matrix_formulas_bit_for_bit(n):
    # the sizes span small and blocked matmuls and short and pairwise sums
    rng = np.random.default_rng(n)
    E, A = rng.standard_normal((2, n, n))
    for mu in (1.0, 0.37):
        ws = _Workspace(E, A, mu)
        project(_random_point(rng, n), ws)  # leave the scratch dirty
        for _ in range(2):
            X = _random_point(rng, n)
            f = objective(E, A, X, mu, ws)
            assert f == objective(E, A, X, mu) == _fgm_objective(E, A, X, mu)
            G = gradient(E, A, X, mu, ws)
            assert np.array_equal(G, gradient(E, A, X, mu))
            for g, ref in zip(G, _fgm_gradient(E, A, X, mu)):
                assert np.array_equal(g, ref)


def _one_sided_point(rng, n, k):
    """A structured [T, J, R, Q] whose T has k negative eigenvalues and R k
    positive ones, all at least 0.1 from zero."""
    def block(sign):
        U = np.linalg.qr(rng.standard_normal((n, n)))[0]
        w = rng.uniform(0.1, 2.0, n)
        w[:k] *= -1.0
        return sym((U * (sign * w)) @ U.T)
    return np.stack([block(1.0), skew(rng.standard_normal((n, n))), block(-1.0),
                     rng.standard_normal((n, n))])


@pytest.fixture
def drivers(monkeypatch):
    """The LAPACK drivers `fgm.project` calls, in order."""
    calls = []
    for name in ("dsyevx", "dsyevd"):
        def spy(*args, _name=name, _real=getattr(fgm, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(fgm, name, spy)
    return calls


# |project(M) - psd(M)| <= PROJECT_TOL n eps ||M||_2 elementwise, with psd
# from the oracle's eigh. Over the points of the test below at seeds 0-199
# (n = 1, 3, 10), 0-59 (n = 50) and 0-5 (n = 200), the worst case is 3.16 at
# n = 3, 1.72 at n = 10, 0.20 at n = 50 and 0.033 at n = 200 (0 at n = 1).
PROJECT_TOL = 8.0


def _assert_projected(Z, before, work):
    T, J, R, Q = before
    assert project(Z, work) is Z
    eps = np.finfo(float).eps
    for M, ref in ((Z[0], T), (Z[2], R)):
        assert np.array_equal(M, M.T)
        tol = PROJECT_TOL * M.shape[0] * eps * np.linalg.norm(ref, 2)
        assert np.abs(M - _psd(ref)).max() <= tol
    assert np.array_equal(Z[1], J)
    assert np.array_equal(Z[3], Q)


@pytest.mark.parametrize("n", [1, 3, 10, 50, 200])
def test_project_works_in_place_and_matches_per_matrix_psd(n, drivers):
    rng = np.random.default_rng(100 + n)
    ws = _Workspace(*rng.standard_normal((2, n, n)))
    k = max(1, n // 20)  # a short side within the crossover of n / 10
    # (workspace, side guesses set before the call, point, drivers expected)
    long_side = "dsyevd" if n >= 10 else "dsyevx"  # n // 2 pairs, past n / 10 from n = 10
    cases = [
        (None, None, _one_sided_point(rng, n, k), ["dsyevd"] * 2),  # no guesses
        (ws, None, _one_sided_point(rng, n, k), ["dsyevd"] * 2),    # the first trial
        (ws, [k, n - k], _one_sided_point(rng, n, k), ["dsyevx"] * 2),
        (ws, [n, 0], _one_sided_point(rng, n, k), ["dsyevx"] * 2),  # both sides guessed wrong
        (ws, [n // 2, n // 2], _random_point(rng, n), [long_side] * 2)]
    for work, guess, Z, expected in cases:
        if guess is not None:
            ws.nonpos = list(guess)
        before = Z.copy()
        drivers.clear()
        _assert_projected(Z, before, work)
        assert drivers == expected
        counts = [int(np.sum(np.linalg.eigvalsh(M) <= 0.0)) for M in before[::2]]
        assert work is None or ws.nonpos == counts


@pytest.mark.parametrize("n", [1, 10, 200])
def test_project_leaves_a_psd_block_unchanged_bit_for_bit(n, drivers):
    rng = np.random.default_rng(n)
    B = rng.standard_normal((2, n, n))
    BB = B @ B.mT
    Z = _random_point(rng, n)
    Z[::2] = (BB + BB.mT) / 2.0 + np.eye(n)  # exactly symmetric, eigenvalues at least 1
    before = Z.copy()
    # no guess, then the negative side and the positive side by dsyevx
    for guess, expected in ((None, "dsyevd"), ([0, 0], "dsyevx"), ([n, n], "dsyevx")):
        ws = _Workspace(Z[3], Z[3])
        if guess is not None:
            ws.nonpos = guess
        drivers.clear()
        assert np.array_equal(project(Z, ws), before)
        assert drivers == [expected] * 2


def test_project_hands_no_non_finite_block_to_lapack(monkeypatch, capfd):
    class Reached(Exception):
        pass

    def eigensolver(M, *args, **kwargs):
        if not np.isfinite(M).all():
            raise AssertionError("an eigensolver was called on a non-finite matrix")
        raise Reached

    monkeypatch.setattr(fgm, "dsyevx", eigensolver)
    monkeypatch.setattr(fgm, "dsyevd", eigensolver)
    rng = np.random.default_rng(7)
    n = 10
    E, A = rng.standard_normal((2, n, n))
    ws = _Workspace(E, A)
    for bad in (np.inf, -np.inf, np.nan):
        for b in (0, 2):
            Z = _one_sided_point(rng, n, 1)
            Z[b, 3, 4] = Z[b, 4, 3] = bad
            before = Z.copy()
            ws.nonpos = [1, n - 1]
            assert project(Z, ws) is Z
            assert np.array_equal(Z, before, equal_nan=True)
            with np.errstate(invalid="ignore", over="ignore"):
                assert not np.isfinite(objective(E, A, Z, 1.0, ws))
    # finite blocks whose sum overflows reach the eigensolver: the guard's
    # sum is not finite, and its entry-by-entry test passes them
    for huge in (1e308, -1e308):
        for b in (0, 2):
            Z = _one_sided_point(rng, n, 1)
            Z[b, 3, 4] = Z[b, 4, 3] = huge
            with np.errstate(over="ignore"):
                assert not np.isfinite(np.add.reduce(Z[::2], axis=None))
                with pytest.raises(Reached):
                    project(Z, ws)
    assert capfd.readouterr().err == ""


def test_a_non_finite_trial_point_ends_in_the_overflow_error(monkeypatch, capfd):
    # a first step of 2e308 overflows: the first trial point is +-inf and NaN
    monkeypatch.setattr(fgm, "estimate_lipschitz", lambda *args, **kwargs: 1e-308)
    pair = grcar(10, 2)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            FloatingPointError, match="objective overflowed during line search"):
        solve_hurwitz(pair.E, pair.A, FgmOptions(max_iters=5, max_time_s=1e9))
    assert capfd.readouterr().err == ""


def test_project_recomputes_an_unconverged_block_with_dsyevd(monkeypatch, drivers, capfd):
    subset = fgm.dsyevx

    def unconverged(*args, **kwargs):
        w, V, m, ifail, _ = subset(*args, **kwargs)
        return w, V, m, ifail, 1  # info > 0: some eigenvectors did not converge

    monkeypatch.setattr(fgm, "dsyevx", unconverged)
    rng = np.random.default_rng(8)
    n = 10
    ws = _Workspace(*rng.standard_normal((2, n, n)))
    ws.nonpos = [1, n - 1]
    Z = _one_sided_point(rng, n, 1)
    drivers.clear()
    _assert_projected(Z, Z.copy(), ws)
    assert drivers == ["dsyevx", "dsyevd", "dsyevx", "dsyevd"]
    assert ws.nonpos == [1, n - 1]

    monkeypatch.setattr(fgm, "dsyevd", lambda a, **kwargs: (np.zeros(n), a, 1))
    with pytest.raises(np.linalg.LinAlgError):
        project(_one_sided_point(rng, n, 1))
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("pair, mu, iters, stop", [
    (grcar(10, 2), 1.0, 300, "iteration budget"),
    (grcar(10, 2), 0.37, 300, "iteration budget"),
    (msd(10, 0.05)[0], 1.0, 300, "iteration budget"),
    # stops at 56 after failed line searches, through the momentum-dropping restarts
    (grcar(10, 1), 1.0, 20_000, "converged (no descent after restarts)"),
    # R takes dsyevd on every trial and is rebuilt from 44 to 78 pairs
    (grcar(200, 3), 1.0, 5, "iteration budget")],
    ids=["grcar-10-2", "grcar-10-2-mu-0.37", "msd-10-0.05", "grcar-10-1-restarts",
         "grcar-200-3"])
def test_every_trial_point_is_exactly_structured(monkeypatch, pair, mu, iters, stop):
    # `project` relies on it: it symmetrizes neither its input nor its output
    calls = []

    def structured(Z):
        T, J, R, _ = Z
        return (np.array_equal(T, T.T) and np.array_equal(R, R.T)
                and np.array_equal(J, -J.T))

    def spy(Z, work=None):
        assert structured(Z)
        calls.append(None)
        assert structured(project(Z, work))
        return Z

    monkeypatch.setattr(fgm, "project", spy)
    res = solve_hurwitz(pair.E, pair.A, FgmOptions(mu=mu, max_iters=iters, max_time_s=1e9))
    assert res.stop_reason == stop
    assert len(calls) > res.iterations


def test_project_examples():
    X = project(np.stack([np.eye(2), np.zeros((2, 2)), np.diag([1.0, -1.0]), np.eye(2)]))
    np.testing.assert_allclose(X[2], np.diag([1.0, 0.0]), atol=1e-14)

    rng = np.random.default_rng(3)
    T = sym(rng.standard_normal((3, 3)))
    T = T @ T.T
    J = skew(rng.standard_normal((3, 3)))
    R = sym(rng.standard_normal((3, 3)))
    R = R @ R.T
    Q = rng.standard_normal((3, 3))
    X = project(np.stack([T, J, R, Q]))
    np.testing.assert_allclose(X[0], T, atol=1e-12)
    np.testing.assert_allclose(X[1], J, atol=1e-14)
    np.testing.assert_allclose(X[2], R, atol=1e-12)
    np.testing.assert_allclose(X[3], Q)

    M = sym(rng.standard_normal((2, 2)))
    w, V = np.linalg.eigh(M)
    oracle = V @ np.diag(np.maximum(w, 0)) @ V.T
    np.testing.assert_allclose(project(np.stack([M, np.zeros((2, 2)), M, np.eye(2)]))[0],
                               oracle, atol=1e-12)


def test_initialization_rule():
    rng = np.random.default_rng(4)
    E, A = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
    T, J, R, Q = initial_quadruple(E, A)
    np.testing.assert_allclose(Q, np.eye(4))
    np.testing.assert_allclose(T, project_psd(E), atol=1e-12)
    np.testing.assert_allclose(J, skew(A), atol=1e-14)
    np.testing.assert_allclose(R, project_psd(-sym(A)), atol=1e-12)


def test_estimate_lipschitz_identity_case():
    # at (T, J, R, Q) = (I, 0, I, I) with A = -I the extremal direction is
    # dT = dR = s, dQ = 2s for symmetric s, giving curvature 2 * 3 = 6
    X = np.stack([np.eye(3), np.zeros((3, 3)), np.eye(3), np.eye(3)])
    L = estimate_lipschitz(np.eye(3), -np.eye(3), X, 1.0)
    assert L == pytest.approx(6.0, rel=1e-3)


def test_solve_stable_input_is_fixed_point():
    res = solve_hurwitz(np.eye(3), -np.eye(3), FgmOptions(max_time_s=2.0))
    assert res.relative_error <= 1e-12
    assert res.admissible
    assert res.objective <= 1e-20


def test_every_line_search_has_the_same_trial_budget(monkeypatch):
    # E = I, A = -I starts at its optimum: no trial descends, and the solve
    # ends after three line searches of LS_MAX trials each, the first one
    # included
    calls = []

    def counting_project(C, work):
        calls.append(None)
        return project(C, work)

    monkeypatch.setattr(fgm, "project", counting_project)
    res = solve_hurwitz(np.eye(3), -np.eye(3), FgmOptions(max_time_s=1e9))
    assert res.stop_reason == "converged (no descent after restarts)"
    assert len(calls) == 3 * fgm.LS_MAX


def test_solve_small_unstable_instance():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((3, 3)) + 0.5 * np.eye(3)
    E = np.eye(3)
    # an iteration budget; the wall clock is only a safety cap
    res = solve_hurwitz(E, A, FgmOptions(max_iters=2000, max_time_s=60.0))
    assert res.stop_reason != "time budget"
    assert res.objective < np.sum(A * A) + np.sum(E * E)
    # every trace row is best-so-far, hence non-increasing
    objs = [row[1] for row in res.trace]
    assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))
    # final quadruple is feasible
    assert np.linalg.eigvalsh(res.dh.T)[0] >= -1e-10
    assert np.linalg.eigvalsh(res.dh.R)[0] >= -1e-10
    np.testing.assert_allclose(res.dh.J, -res.dh.J.T)
    # realized eigenvalues essentially in the closed left half-plane
    assert res.admissible
    rep = res.admissibility.spectrum
    assert rep.finite_eigenvalues.real.max() <= 1e-8


def test_orthogonal_conjugation_gives_identical_objective_sequence(monkeypatch):
    # one fixed step 1 / 20 for both: the curvature estimate's random start
    # is not conjugated with the data
    monkeypatch.setattr(fgm, "estimate_lipschitz", lambda *args, **kwargs: 20.0)
    rng = np.random.default_rng(6)
    n = 4
    A = rng.standard_normal((n, n)) + 0.3 * np.eye(n)
    E = np.eye(n) + 0.1 * rng.standard_normal((n, n))
    U = scipy.linalg.qr(rng.standard_normal((n, n)))[0]
    monkeypatch.setattr(FgmOptions, "trace_every", 1)
    opts = FgmOptions(max_time_s=60.0, max_iters=400)
    res1 = solve_hurwitz(E, A, opts)
    res2 = solve_hurwitz(U.T @ E @ U, U.T @ A @ U, opts)
    o1 = np.array([r[1] for r in res1.trace])
    o2 = np.array([r[1] for r in res2.trace])
    m = min(len(o1), len(o2))
    np.testing.assert_allclose(o1[:m], o2[:m], rtol=1e-10, atol=1e-12)


def test_nan_inputs_abort_with_diagnostic():
    A = np.full((2, 2), np.nan)
    with pytest.raises(ValueError, match="A has a non-finite entry"):
        solve_hurwitz(np.eye(2), A, FgmOptions(max_time_s=1.0))


def test_option_validation():
    with pytest.raises(ValueError):
        FgmOptions(mu=0.0)


def _per_matrix_project(Z, work=None):
    """`fgm.project` as the reference loop projects: one `eigh` per block,
    full rebuild, symmetrized."""
    Z[0] = _sym(_psd(Z[0]))
    Z[2] = _sym(_psd(Z[2]))
    return Z


def _assert_matches_reference(monkeypatch, E, A, opts):
    # the loop's own projection rounds differently from the oracle's `eigh`;
    # with the oracle's projection in its place, the gradient, momentum, line
    # search, step growth, restarts and trace must match the reference bit
    # for bit, with one projection per line-search trial
    projections = []

    def spy(Z, work=None):
        projections.append(1)
        return _per_matrix_project(Z, work)

    monkeypatch.setattr(fgm, "project", spy)
    res = solve_hurwitz(E, A, opts)
    trace, iterations, stop_reason, best, restarts, trials = fgm_reference(
        E, A, opts.max_iters, mu=opts.mu, trace_every=opts.trace_every, seed=opts.seed)
    assert len(projections) == trials
    assert res.iterations == iterations
    assert res.stop_reason == stop_reason
    assert len(res.trace) == len(trace)
    for row, ref in zip(res.trace, trace):
        assert np.array_equal(row[1:], ref)
    assert not res.shifted
    for M, ref in zip((res.dh.T, res.dh.J, res.dh.R, res.dh.Q), best):
        assert np.array_equal(M, ref)
    return restarts


def test_stacked_loop_matches_per_matrix_reference_on_grcar(monkeypatch):
    pair = grcar(10, 2)
    # the reference has no finish, so each budget is one the finish does
    # not lift
    for mu, iters in ((1.0, 300), (0.37, 500)):
        _assert_matches_reference(monkeypatch, pair.E, pair.A,
                                  FgmOptions(mu=mu, max_iters=iters, max_time_s=1e9))


def test_stacked_loop_matches_per_matrix_reference_through_a_restart(monkeypatch):
    rng = np.random.default_rng(1)
    E, A = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
    for mu in (1.0, 0.37):
        restarts = _assert_matches_reference(
            monkeypatch, E, A, FgmOptions(mu=mu, max_iters=300, max_time_s=1e9))
        assert restarts >= 1


def test_result_survives_a_later_solve():
    # the loop's scratch is per solve: a second solve of the same size must
    # not write into the first one's quadruple, pair or trace
    first_pair, second_pair = grcar(10, 1), grcar(10, 2)
    opts = FgmOptions(max_iters=200, max_time_s=1e9)
    res = solve_hurwitz(first_pair.E, first_pair.A, opts)
    kept = [M.copy() for M in (res.dh.T, res.dh.J, res.dh.R, res.dh.Q, res.pair.E, res.pair.A)]
    trace = list(res.trace)
    solve_hurwitz(second_pair.E, second_pair.A, opts)
    for M, copy in zip((res.dh.T, res.dh.J, res.dh.R, res.dh.Q, res.pair.E, res.pair.A), kept):
        assert np.array_equal(M, copy)
    assert res.trace == trace


def test_a_solve_does_not_depend_on_the_solves_before_it():
    # the side guesses of the projection live in the solve's workspace
    pair, other = grcar(10, 2), grcar(12, 3)
    opts = FgmOptions(max_iters=300, max_time_s=1e9)
    first = solve_hurwitz(pair.E, pair.A, opts)
    solve_hurwitz(other.E, other.A, opts)
    again = solve_hurwitz(pair.E, pair.A, opts)
    assert (again.objective, again.relative_error, again.iterations, again.stop_reason) == \
        (first.objective, first.relative_error, first.iterations, first.stop_reason)
    assert [row[1:] for row in again.trace] == [row[1:] for row in first.trace]
    for M, ref in zip((again.dh.T, again.dh.J, again.dh.R, again.dh.Q, again.pair.E, again.pair.A),
                      (first.dh.T, first.dh.J, first.dh.R, first.dh.Q, first.pair.E, first.pair.A)):
        assert (M == ref).all()


def test_small_stall_window_stops_on_objective_stall(monkeypatch):
    monkeypatch.setattr(fgm, "STALL_WINDOW", 20)
    monkeypatch.setattr(fgm, "STALL_REL_TOL", 1e-3)
    rng = np.random.default_rng(9)
    E, A = rng.standard_normal((4, 4)), rng.standard_normal((4, 4)) + np.eye(4)
    res = solve_hurwitz(E, A, FgmOptions(max_iters=20_000, max_time_s=1e9))
    assert res.stop_reason == "objective stall"
    assert res.converged
    assert res.iterations % 20 == 0 and res.iterations < 20_000


def test_zero_time_budget_stops_before_the_first_iteration():
    # the start row and the closing row; a budget stop is not convergence
    pair = grcar(10, 1)
    res = solve_hurwitz(pair.E, pair.A, FgmOptions(max_time_s=0.0))
    assert (res.iterations, res.stop_reason, res.converged) == (0, "time budget", False)
    assert len(res.trace) == 2


def test_grcar_10_3_boundary_optimum_comes_back_lifted_and_admissible():
    # at 30k iterations the best quadruple has lambda_min(T) ~ -3e-15 and a
    # near-infinite eigenvalue at +1.7e6; the finish's PSD lift moves it left
    pair = grcar(10, 3)
    res = solve_hurwitz(pair.E, pair.A, FgmOptions(max_iters=30_000, max_time_s=1e9))
    assert res.iterations == 30_000 and res.stop_reason == "iteration budget"
    assert res.admissible and res.shifted
    assert admissibility_check(res.pair, rg.hurwitz(), margin_tol=1e-6).admissible
    assert abs(res.relative_error - res.trace[-1][2]) <= 1e-9
