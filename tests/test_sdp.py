import numpy as np
import pytest
import scipy.linalg

from omegapair import regions as rg
from omegapair.dh import project_psd, skew, sym
from omegapair.sdp import (ConstraintSet, ConvexSubproblem, InfeasibleStartError,
                           _barrier, _barrier_grad_hess, initial_point, solve_subproblem)

from _oracles import barrier_blocks, random_well_conditioned, stability_lmi_blocks


def _composite():
    return rg.intersect(rg.vertical_strip(-5.0, 5.0), rg.horizontal_strip(3.0),
                        rg.left_parabola(6.0, 1.0), rg.right_parabola(-6.0, 1.0))


def test_identity_instance_recovers_exact_quadruple():
    sp = ConvexSubproblem(np.eye(2), -np.eye(2), np.eye(2), 1.0, rg.hurwitz(),
                          require_R_psd=True)
    sol = solve_subproblem(sp)
    assert sol.converged
    assert sol.objective <= 1e-12
    np.testing.assert_allclose(sol.T, np.eye(2), atol=1e-6)
    np.testing.assert_allclose(sol.R, np.eye(2), atol=1e-6)
    np.testing.assert_allclose(sol.J, 0.0, atol=1e-6)


def test_projection_special_case_matches_clipping_oracle():
    rng = np.random.default_rng(0)
    G = sym(rng.standard_normal((5, 5)))
    sp = ConvexSubproblem(G, np.zeros((5, 5)), np.eye(5), 1.0, region=None,
                          require_R_psd=True)
    sol = solve_subproblem(sp, accuracy=1e-10)
    np.testing.assert_allclose(sol.T, project_psd(G), atol=1e-6)


def test_closed_form_projections_no_region():
    rng = np.random.default_rng(1)
    E = rng.standard_normal((4, 4))
    A = rng.standard_normal((4, 4))
    sp = ConvexSubproblem(E, A, np.eye(4), 1.0, region=None, require_R_psd=True)
    sol = solve_subproblem(sp, accuracy=1e-10)
    np.testing.assert_allclose(sol.J, skew(A), atol=1e-6)
    np.testing.assert_allclose(sol.R, project_psd(-sym(A)), atol=1e-6)
    np.testing.assert_allclose(sol.T, project_psd(sym(E)), atol=1e-6)


def test_disk_instance_beats_grid_search_slice():
    """The solver over the full variable space is at least as good as a
    dense grid over the scalar slice T = t I, J = j S, R = r I."""
    rng = np.random.default_rng(2)
    E = np.eye(2)
    A = rng.standard_normal((2, 2))
    p = rg.disk(0.0, 1.0)
    reg = rg.from_primitive(p)
    delta = 1e-8
    sp = ConvexSubproblem(E, A, np.eye(2), 1.0, reg, require_R_psd=False,
                          delta_lmi=delta)
    sol = solve_subproblem(sp, accuracy=1e-8)

    S = np.array([[0.0, 1.0], [-1.0, 0.0]])
    best = np.inf
    for t in np.linspace(0.0, 1.5, 40):
        for j in np.linspace(-1.0, 1.0, 40):
            for r in np.linspace(-1.0, 1.0, 40):
                T, J, R = t * np.eye(2), j * S, r * np.eye(2)
                if t < 0 or np.linalg.eigvalsh(
                        stability_lmi_blocks(p, T, J, R))[0] <= delta:
                    continue
                val = (np.sum((A - (J - R)) ** 2) + np.sum((E - T) ** 2))
                best = min(best, val)
    assert sol.objective <= best + 1e-4


def test_initial_point_examples():
    n = 3
    E, A = np.eye(n), np.zeros((n, n))
    sp = ConvexSubproblem(E, A, np.eye(n), 1.0, rg.hurwitz(), require_R_psd=True)
    cs = ConstraintSet(n, rg.hurwitz(), True, sp.delta_lmi)
    T, J, R = initial_point(sp, cs)
    assert min(cs.margins(cs.pack(T, J, R))) >= 1.0

    spd = ConvexSubproblem(E, A, np.eye(n), 1.0, rg.schur())
    T, J, R = initial_point(spd)
    np.testing.assert_allclose(R, 0.0, atol=1e-12)

    strip = rg.from_primitive(rg.vertical_strip(-3.0, -1.0))
    sps = ConvexSubproblem(E, A, np.eye(n), 1.0, strip, require_R_psd=True)
    T, J, R = initial_point(sps)
    np.testing.assert_allclose(T, np.eye(n))
    np.testing.assert_allclose(R, 2.0 * np.eye(n))


def test_initial_point_infeasible_intersection():
    reg = rg.intersect(rg.disk(-3.0, 1.0), rg.disk(3.0, 1.0))
    sp = ConvexSubproblem(np.eye(2), np.zeros((2, 2)), np.eye(2), 1.0, reg)
    with pytest.raises(InfeasibleStartError):
        initial_point(sp)
    with pytest.raises(InfeasibleStartError):
        solve_subproblem(sp)


def test_stage_objectives_non_increasing():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 4)) * 2
    sp = ConvexSubproblem(np.eye(4), A, np.eye(4), 1.0, rg.schur())
    sol = solve_subproblem(sp, accuracy=1e-8)
    stages = sol.stage_objectives
    for a, b in zip(stages, stages[1:]):
        assert b <= a + 1e-9 * (1 + abs(a))


def test_stage_newton_sums_to_barrier_iterations():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 4)) * 2
    sp = ConvexSubproblem(np.eye(4), A, np.eye(4), 1.0, rg.schur())
    cold = solve_subproblem(sp, accuracy=1e-8)
    warm = solve_subproblem(sp, init=(cold.T, cold.J, cold.R), accuracy=1e-10,
                            gap0=1e-6)
    free = solve_subproblem(ConvexSubproblem(np.eye(4), A, np.eye(4), 1.0,
                                             fixed_T=np.eye(4)))
    for sol in (cold, warm, free):
        assert len(sol.stage_newton) == len(sol.stage_objectives)
        assert sum(sol.stage_newton) == sol.barrier_iterations
        assert all(k >= 1 for k in sol.stage_newton)


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("case", ["schur", "hurwitz_psd_R", "composite", "frozen_T"])
def test_barrier_derivatives_match_dense_oracle(case, n):
    """g.dx = -sum tr(G^-1 dG) and dx'H dx = sum tr(G^-1 dG G^-1 dG)."""
    rng = np.random.default_rng(n)
    region = {"schur": rg.schur(), "hurwitz_psd_R": rg.hurwitz()}.get(case, _composite())
    psd_R = case == "hurwitz_psd_R"
    T_fixed = (np.eye(n) + 0.3 * sym(rng.standard_normal((n, n)))
               if case == "frozen_T" else None)
    sp = ConvexSubproblem(np.eye(n), rng.standard_normal((n, n)), np.eye(n), 1.0,
                          region, require_R_psd=psd_R, fixed_T=T_fixed)
    cs = ConstraintSet(n, region, psd_R, sp.delta_lmi, T_fixed)
    x0 = cs.pack(*initial_point(sp, cs))

    def oracle(x, direction=False):
        """G_b at a point x, or dG_b along a direction x."""
        T, J, R = cs.split(x)
        if direction and T_fixed is not None:
            T = np.zeros((n, n))  # a direction does not move a frozen T
        return barrier_blocks(region.B, region.C, T, J, R,
                              0.0 if direction else sp.delta_lmi,
                              psd_T=T_fixed is None, psd_R=psd_R)

    # a random interior point off the start's symmetric (I, 0, rho I)
    step = rng.standard_normal(cs.m)
    while min(np.linalg.eigvalsh(G)[0] for G in oracle(x0 + step)) <= 0.0:
        step /= 2.0
    x = x0 + step
    G = oracle(x)
    g, H = _barrier_grad_hess(cs.blocks, x, cs.m)
    g2, H2 = _barrier_grad_hess(cs.blocks, x, cs.m, _barrier(cs.blocks, x)[0])
    np.testing.assert_array_equal(g, g2)
    np.testing.assert_array_equal(H, H2)
    for _ in range(3):
        dx = rng.standard_normal(cs.m)
        WdG = [np.linalg.solve(Gb, dGb) for Gb, dGb in zip(G, oracle(dx, direction=True))]
        first = -sum(np.trace(M) for M in WdG)
        second = sum(np.trace(M @ M) for M in WdG)
        assert g @ dx == pytest.approx(first, rel=1e-10)
        assert dx @ H @ dx == pytest.approx(second, rel=1e-10)


def test_returned_point_interior_and_gap():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((3, 3))
    eps = 1e-7
    sp = ConvexSubproblem(np.eye(3), A, np.eye(3), 1.0, rg.schur())
    sol = solve_subproblem(sp, accuracy=eps)
    assert sol.converged
    assert sol.gap_estimate <= eps
    assert all(m > 0 for m in sol.margins)


def test_kkt_residual_at_return():
    """Scaled stationarity of the barrier-augmented objective at return."""
    rng = np.random.default_rng(5)
    A = rng.standard_normal((3, 3))
    E = np.eye(3)
    eps = 1e-8 * (1 + np.sum(A * A))
    sp = ConvexSubproblem(E, A, np.eye(3), 1.0, rg.schur())
    cs = ConstraintSet(3, sp.region, False, sp.delta_lmi)
    sol = solve_subproblem(sp, accuracy=eps, constraints=cs)
    # dual feasibility and complementarity come from the final barrier:
    # Z_b = G_b^{-1} / t with sum_b <Z_b, G_b> = nu / t <= eps
    assert sol.gap_estimate <= eps
    # primal stationarity: gradient of f matches the conic multipliers
    x = cs.pack(sol.T, sol.J, sol.R)
    t_final = cs.nu / sol.gap_estimate
    from omegapair.sdp import _Objective

    obj = _Objective(sp, cs)
    _, gf = obj.value_grad(x)
    gphi, _ = _barrier_grad_hess(cs.blocks, x, cs.m)
    resid = np.linalg.norm(gf + gphi / t_final)
    scale = 1.0 + np.linalg.norm(gf) + sol.objective
    assert resid <= np.sqrt(eps) * scale


def test_orthogonal_change_of_basis_invariance():
    rng = np.random.default_rng(6)
    n = 3
    E = rng.standard_normal((n, n))
    A = rng.standard_normal((n, n))
    Q = random_well_conditioned(n, rng)
    U = scipy.linalg.qr(rng.standard_normal((n, n)))[0]
    reg = rg.from_primitive(rg.disk(0.0, 2.0))
    delta = 1e-6 * (1.0 + np.linalg.norm(A, "fro"))
    sol = solve_subproblem(
        ConvexSubproblem(E, A, Q, 1.0, reg, delta_lmi=delta), accuracy=1e-9)
    sol2 = solve_subproblem(
        ConvexSubproblem(U.T @ E @ U, U.T @ A @ U, U.T @ Q @ U, 1.0, reg,
                         delta_lmi=delta), accuracy=1e-9)
    assert sol2.objective == pytest.approx(sol.objective, abs=1e-6 * (1 + sol.objective))
    np.testing.assert_allclose(sol2.T, U.T @ sol.T @ U, atol=1e-6)
    np.testing.assert_allclose(sol2.J, U.T @ sol.J @ U, atol=1e-6)
    np.testing.assert_allclose(sol2.R, U.T @ sol.R @ U, atol=1e-6)


def test_warm_start_is_used_and_respected():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((3, 3))
    sp = ConvexSubproblem(np.eye(3), A, np.eye(3), 1.0, rg.schur())
    cs = ConstraintSet(3, sp.region, False, sp.delta_lmi)
    sol = solve_subproblem(sp, constraints=cs)
    assert sol.initial_point_used
    sol2 = solve_subproblem(sp, init=(sol.T, sol.J, sol.R), constraints=cs,
                            gap0=10 * sol.gap_estimate)
    assert not sol2.initial_point_used
    assert sol2.objective <= sol.objective + 1e-9 * (1 + sol.objective)


def test_diagnostic_trace_csv(tmp_path):
    rng = np.random.default_rng(9)
    A = rng.standard_normal((3, 3))
    sp = ConvexSubproblem(np.eye(3), A, np.eye(3), 1.0, rg.schur())
    path = tmp_path / "subproblem_trace.csv"
    solve_subproblem(sp, trace_path=str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,objective,gap,min_margin"
    assert len(lines) >= 2
    last = lines[-1].split(",")
    assert float(last[3]) > 0  # interior at return


def test_fixed_T_mode_optimizes_J_R_only():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((3, 3))
    E = np.eye(3)
    sp = ConvexSubproblem(E, A, np.eye(3), 1.0, rg.schur(), fixed_T=np.eye(3))
    sol = solve_subproblem(sp, accuracy=1e-9)
    np.testing.assert_allclose(sol.T, np.eye(3))
    # fixed-T optimum cannot beat the free-T optimum
    sol_free = solve_subproblem(
        ConvexSubproblem(E, A, np.eye(3), 1.0, rg.schur()), accuracy=1e-9)
    assert sol_free.objective <= sol.objective + 1e-7 * (1 + sol.objective)
