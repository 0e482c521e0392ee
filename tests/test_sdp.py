import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from omegapair import regions as rg
from omegapair import bcd, sdp
from omegapair.bcd import BcdOptions, solve_general
from omegapair.bench import grcar
from omegapair.dh import project_psd, skew, sym
from omegapair.sdp import (ConvexSubproblem, InfeasibleStartError, _adjoint, _barrier,
                           _barrier_grad_hess, _line_slopes, _line_step, _linear, _Objective,
                           _step_spectrum, initial_point, solve_subproblem)

from _oracles import (barrier_blocks, random_well_conditioned, skew_basis,
                      stability_lmi_blocks, sym_basis)


def _composite():
    return rg.intersect(rg.vertical_strip(-5.0, 5.0), rg.horizontal_strip(3.0),
                        rg.left_parabola(6.0, 1.0), rg.right_parabola(-6.0, 1.0))


def _barrier_derivs(sp, x):
    """The barrier's gradient, Hessian and inverse factors at the interior x."""
    return _barrier_grad_hess(sp, _barrier(sp, sp.values(x)))


def _dense_split(x, n, T=None):
    """(T, J, R) at x on the oracle's orthonormal bases, x holding the
    coordinates of T (unless T is given, frozen), J and R in that order."""
    bases = ([] if T is not None else [sym_basis(n)]) + [skew_basis(n), sym_basis(n)]
    parts = np.split(x, np.cumsum([len(b) for b in bases])[:-1])
    mats = tuple(np.tensordot(p, b, axes=1) for p, b in zip(parts, bases, strict=True))
    return mats if T is None else (T, *mats)


@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_pack_and_split_round_trip_inner_product_and_oracle_basis(n, frozen):
    """`pack` gives the coordinates of (sym T, skew J, sym R) on the
    oracle's bases (no T when it is frozen), `split` turns them back (a
    frozen T its fixed value), the split of each unit coordinate is its
    basis matrix, and coordinates keep the Frobenius inner product."""
    rng = np.random.default_rng(n)
    T_fixed = np.eye(n) + 0.1 * sym(rng.standard_normal((n, n))) if frozen else None
    sp = ConvexSubproblem(np.eye(n), np.zeros((n, n)), 1.0, rg.hurwitz(),
                          fixed_T=T_fixed)
    M, N = rng.standard_normal((2, 3, n, n))
    parts, skip = [sym, skew, sym], int(frozen)  # skip the T of a frozen T
    x = sp.pack(*M)
    want = [part(Mk) for part, Mk in zip(parts, M)]
    if frozen:
        want[0] = T_fixed
    np.testing.assert_allclose(sp.split(x), want, rtol=0.0, atol=1e-15)
    bases = [sym_basis(n), skew_basis(n), sym_basis(n)][skip:]
    np.testing.assert_allclose(
        x, np.concatenate([np.einsum("ij,kij->k", Mk, b) for Mk, b in zip(M[skip:], bases)]),
        rtol=0.0, atol=1e-15)
    for e in np.eye(sp.m):  # a unit direction moves no frozen T
        np.testing.assert_allclose(_linear(sp.tjr, e).reshape(3, n, n),
                                   _dense_split(e, n, np.zeros((n, n)) if frozen else None),
                                   rtol=0.0, atol=1e-15)
    # sym and skew parts are Frobenius-orthogonal, and the coordinates of each
    # part orthonormal: x.y is the sum of the parts' inner products
    inner = sum(np.sum(part(Mk) * part(Nk))
                for part, Mk, Nk in zip(parts[skip:], M[skip:], N[skip:]))
    assert x @ sp.pack(*N) == pytest.approx(inner, rel=1e-14, abs=1e-14)


@pytest.mark.parametrize("n, depth", [(1, 3), (2, 3), (4, 3), (6, 12)],
                         ids=["1", "2", "4", "6x12"])
@pytest.mark.parametrize("si, sj", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_trace_pairs_match_dense_sum(si, sj, n, depth):
    """[sum_x tr(U_x S_i V_x S_j)]_ij for non-symmetric stacks U and V of
    `depth` matrices, the S_i and S_j from the oracle's bases (the skew one
    empty at n = 1). 12 is about as deep as the composite region's pairs
    stack (8 to 15 sub-blocks)."""
    rng = np.random.default_rng(n)
    U, V = rng.standard_normal((2, depth, n, n))
    basis = {1: sym_basis(n), -1: skew_basis(n)}
    dense = np.array([[sum(np.trace(Ux @ Si @ Vx @ Sj) for Ux, Vx in zip(U, V))
                       for Sj in basis[sj]] for Si in basis[si]])
    dense = dense.reshape(len(basis[si]), len(basis[sj]))
    got = sdp._trace_pairs(U, V, si, sj)
    assert got.shape == dense.shape
    np.testing.assert_allclose(got, dense, rtol=1e-13,
                               atol=1e-13 * np.abs(dense).max(initial=0.0))


def test_identity_instance_recovers_exact_quadruple():
    sp = ConvexSubproblem(np.eye(2), -np.eye(2), 1.0, rg.hurwitz())
    sol = solve_subproblem(sp, np.eye(2), accuracy=1e-8)
    assert sol.converged
    assert sol.objective <= 1e-12
    np.testing.assert_allclose(sol.T, np.eye(2), atol=1e-6)
    np.testing.assert_allclose(sol.R, np.eye(2), atol=1e-6)
    np.testing.assert_allclose(sol.J, 0.0, atol=1e-6)


def test_projection_special_case_matches_clipping_oracle():
    rng = np.random.default_rng(0)
    G = sym(rng.standard_normal((5, 5)))
    sp = ConvexSubproblem(G, np.zeros((5, 5)), 1.0, region=None)
    sol = solve_subproblem(sp, np.eye(5), accuracy=1e-10)
    np.testing.assert_allclose(sol.T, project_psd(G), atol=1e-6)


def test_closed_form_projections_no_region():
    """A cold solve to 1e-10, far beyond COLD_REACH of its start, grows t
    stage by stage and meets the closed-form projections."""
    rng = np.random.default_rng(1)
    E = rng.standard_normal((4, 4))
    A = rng.standard_normal((4, 4))
    sp = ConvexSubproblem(E, A, 1.0, region=None)
    sol = solve_subproblem(sp, np.eye(4), accuracy=1e-10)
    assert len(sol.stage_newton) > 2 and sol.converged
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
    sp = ConvexSubproblem(E, A, 1.0, reg)
    sol = solve_subproblem(sp, np.eye(2), accuracy=1e-8)

    # the block is affine in (T, J, R): its value at the origin plus its
    # change along each of the three unit points, broadcast over the grid
    S = np.array([[0.0, 1.0], [-1.0, 0.0]])
    I, Z = np.eye(2), np.zeros((2, 2))
    origin = stability_lmi_blocks(p, Z, Z, Z)
    unit = [stability_lmi_blocks(p, *tjr) - origin
            for tjr in ((I, Z, Z), (Z, S, Z), (Z, Z, I))]
    t, j, r = np.meshgrid(np.linspace(0.0, 1.5, 40), np.linspace(-1.0, 1.0, 40),
                          np.linspace(-1.0, 1.0, 40), indexing="ij")
    grid = (origin + t[..., None, None] * unit[0] + j[..., None, None] * unit[1]
            + r[..., None, None] * unit[2])
    feasible = np.linalg.eigvalsh(grid)[..., 0] > sp.delta_lmi
    vals = (np.sum((A - (j[..., None, None] * S - r[..., None, None] * I)) ** 2, axis=(-2, -1))
            + np.sum((E - t[..., None, None] * I) ** 2, axis=(-2, -1)))
    best = vals[feasible].min()
    assert sol.objective <= best + 1e-4


def test_initial_point_examples():
    n = 3
    E, A = np.eye(n), np.zeros((n, n))
    sp = ConvexSubproblem(E, A, 1.0, rg.hurwitz())
    T, J, R = initial_point(sp)
    assert min(sp.margins(sp.pack(T, J, R))) >= 1.0

    spd = ConvexSubproblem(E, A, 1.0, rg.schur())
    T, J, R = initial_point(spd)
    np.testing.assert_allclose(R, 0.0, atol=1e-12)

    strip = rg.from_primitive(rg.vertical_strip(-3.0, -1.0))
    sps = ConvexSubproblem(E, A, 1.0, strip)
    T, J, R = initial_point(sps)
    np.testing.assert_allclose(T, np.eye(n))
    np.testing.assert_allclose(R, 2.0 * np.eye(n))


def test_the_real_section_is_worked_out_once_per_subproblem(monkeypatch):
    """A subproblem works out its region's real section once, where it
    decides `require_R_psd`; `initial_point` and a solve from the default
    start read it from the subproblem, and `dataclasses.replace` makes a
    subproblem that works out its own."""
    calls = []

    def counting(region):
        calls.append(region)
        return rg.real_section(region)

    monkeypatch.setattr(sdp, "real_section", counting)
    pair = grcar(4, 1)
    sp = ConvexSubproblem(pair.E, pair.A, 1.0, _composite())
    initial_point(sp)
    assert solve_subproblem(sp, np.eye(4), accuracy=1e-6).initial_point_used
    assert len(calls) == 1 and sp.section == rg.real_section(sp.region)
    assert dataclasses.replace(sp, region=rg.schur()).section == rg.real_section(rg.schur())
    assert len(calls) == 2


@pytest.mark.parametrize("primitive", [rg.right_half_plane(0.5), rg.horizontal_strip(0.5)],
                         ids=["right_half_plane", "horizontal_strip"])
def test_initial_point_with_a_free_R_over_a_section_open_to_the_right(primitive):
    """A region whose real section is open to the right, (0.5, inf), or to
    both sides leaves R free (the region reaches past the closed left
    half-plane), and the scalar search then tries levels off the one
    finite end or around 0. The start is strictly feasible with R = rho I,
    rho in the negated section, the subproblem from it converges, and a
    5-sweep BCD solve of Grcar(6,1) in the region is admissible."""
    region = rg.from_primitive(primitive)
    pair = grcar(6, 1)
    sp = ConvexSubproblem(pair.E, pair.A, 1.0, region)
    assert not sp.require_R_psd
    T, J, R = initial_point(sp)
    rho = R[0, 0]
    np.testing.assert_array_equal(R, rho * np.eye(6))
    lo, hi = rg.real_section(region)
    assert lo < -rho < hi
    assert min(sp.margins(sp.pack(T, J, R))) > sp.delta_lmi
    sol = solve_subproblem(sp, np.eye(6), accuracy=1e-8)
    assert sol.converged and sol.initial_point_used
    res = solve_general(pair.E, pair.A, region, BcdOptions(max_outer_iters=5))
    assert res.iterations == 5 and res.admissible


def test_initial_point_infeasible_intersection():
    reg = rg.intersect(rg.disk(-3.0, 1.0), rg.disk(3.0, 1.0))
    sp = ConvexSubproblem(np.eye(2), np.zeros((2, 2)), 1.0, reg)
    with pytest.raises(InfeasibleStartError):
        initial_point(sp)
    with pytest.raises(InfeasibleStartError):
        solve_subproblem(sp, np.eye(2), accuracy=1e-8)


def test_stage_objectives_non_increasing():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 4)) * 2
    sp = ConvexSubproblem(np.eye(4), A, 1.0, rg.schur())
    sol = solve_subproblem(sp, np.eye(4), accuracy=1e-8)
    stages = sol.stage_objectives
    for a, b in zip(stages, stages[1:]):
        assert b <= a + 1e-9 * (1 + abs(a))


def test_barrier_derivatives_are_not_recomputed_at_an_unmoved_point(monkeypatch):
    # a stage that ends centered leaves x to the next stage, whose first
    # Newton step must reuse the derivatives taken there: each point has
    # its own factors, so no two calls in a row may get the same ones
    points = []

    def recording(sp, factors):
        points.append(factors)
        return _barrier_grad_hess(sp, factors)

    monkeypatch.setattr(sdp, "_barrier_grad_hess", recording)
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 4)) * 2
    sp = ConvexSubproblem(np.eye(4), A, 1.0, rg.schur())
    cold = solve_subproblem(sp, np.eye(4), accuracy=1e-8)
    n_cold = len(points)
    warm = solve_subproblem(sp, np.eye(4), init=[(cold.T, cold.J, cold.R)], accuracy=1e-10,
                            gap0=1e-6)
    for sol, xs in ((cold, points[:n_cold]), (warm, points[n_cold:])):
        assert len(sol.stage_newton) >= 2
        assert not any(a is b for a, b in zip(xs, xs[1:]))


def test_non_finite_newton_system_raises_value_error(monkeypatch):
    # the barrier gradient is taken anew at every accepted point; a NaN in
    # it at the second point must end the solve with a clear error
    calls = []

    def nan_on_second_call(sp, factors):
        calls.append(factors)
        g, H, inverses = _barrier_grad_hess(sp, factors)
        return g * (np.nan if len(calls) == 2 else 1.0), H, inverses

    monkeypatch.setattr(sdp, "_barrier_grad_hess", nan_on_second_call)
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 4)) * 2
    sp = ConvexSubproblem(np.eye(4), A, 1.0, rg.schur())
    with pytest.raises(ValueError, match="infs or NaNs"):
        solve_subproblem(sp, np.eye(4), accuracy=1e-8)
    assert len(calls) == 2


def test_stage_newton_sums_to_barrier_iterations():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 4)) * 2
    sp = ConvexSubproblem(np.eye(4), A, 1.0, rg.schur())
    cold = solve_subproblem(sp, np.eye(4), accuracy=1e-8)
    warm = solve_subproblem(sp, np.eye(4), init=[(cold.T, cold.J, cold.R)], accuracy=1e-10,
                            gap0=1e-6)
    no_region = solve_subproblem(ConvexSubproblem(np.eye(4), A, 1.0, fixed_T=np.eye(4)),
                                 np.eye(4), accuracy=1e-8)
    for sol in (cold, warm, no_region):
        assert len(sol.stage_newton) == len(sol.stage_objectives)
        assert sum(sol.stage_newton) == sol.barrier_iterations
        assert all(k >= 1 for k in sol.stage_newton)


def _interior_case(case, n):
    """A subproblem of one of four constraint layouts, a random interior
    point x off the start's symmetric (I, 0, rho I), the dense-oracle
    blocks, which read x on the oracle's bases, and the generator for
    further draws."""
    rng = np.random.default_rng(n)
    region = {"schur": rg.schur(), "hurwitz_psd_R": rg.hurwitz()}.get(case, _composite())
    psd_R = case == "hurwitz_psd_R"
    T_fixed = (np.eye(n) + 0.3 * sym(rng.standard_normal((n, n)))
               if case == "frozen_T" else None)
    sp = ConvexSubproblem(np.eye(n), rng.standard_normal((n, n)), 1.0, region,
                          fixed_T=T_fixed)
    x0 = sp.pack(*initial_point(sp))

    def oracle(x, direction=False):
        """G_b at a point x, or dG_b along a direction x (which does not
        move a frozen T)."""
        frozen = None if T_fixed is None else np.zeros((n, n)) if direction else T_fixed
        return barrier_blocks(region.B, region.C, *_dense_split(x, n, frozen),
                              0.0 if direction else sp.delta_lmi,
                              psd_T=T_fixed is None, psd_R=psd_R)

    step = rng.standard_normal(sp.m)
    for _ in range(60):
        if min(np.linalg.eigvalsh(G)[0] for G in oracle(x0 + step)) > 0.0:
            return sp, oracle, x0 + step, rng
        step /= 2.0
    raise AssertionError(f"no interior point within 60 halvings of a step from the "
                         f"start of {case} at n = {n}: the start is not interior")


CASES = ["schur", "hurwitz_psd_R", "composite", "frozen_T"]


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("case", CASES)
def test_barrier_derivatives_match_dense_oracle(case, n):
    """g.dx = -sum tr(G^-1 dG) and dx'H dx = sum tr(G^-1 dG G^-1 dG)."""
    sp, oracle, x, rng = _interior_case(case, n)
    G = oracle(x)
    g, H, _ = _barrier_derivs(sp, x)
    for _ in range(3):
        dx = rng.standard_normal(sp.m)
        WdG = [np.linalg.solve(Gb, dGb) for Gb, dGb in zip(G, oracle(dx, direction=True))]
        first = -sum(np.trace(M) for M in WdG)
        second = sum(np.trace(M @ M) for M in WdG)
        assert g @ dx == pytest.approx(first, rel=1e-10)
        assert dx @ H @ dx == pytest.approx(second, rel=1e-10)


@pytest.mark.parametrize("case", CASES)
def test_barrier_hessian_entries_match_dense_oracle(case):
    """H_ij = sum tr(G^-1 dG_i G^-1 dG_j), dG_i the change of G_b along
    the coordinate direction e_i, entry by entry: a run pair added to the
    wrong slice of H shows here even where a quadratic form hides it."""
    sp, oracle, x, _ = _interior_case(case, 3)
    _, H, _ = _barrier_derivs(sp, x)
    dense = np.zeros((sp.m, sp.m))
    for b, Gb in enumerate(oracle(x)):
        # W[i] = G_b^-1 dG_b along e_i
        W = np.linalg.solve(Gb, np.stack([oracle(e, direction=True)[b] for e in np.eye(sp.m)]))
        dense += np.einsum("iab,jba->ij", W, W)
    assert H == pytest.approx(dense, rel=1e-10)


def test_block_terms_follow_nonzero_groups_in_x_order():
    """Each block holds its terms, (group, M_g) pairs in x order, one per
    variable group with a nonzero M_g; a group whose M_g is zero is left
    out."""
    n = 4
    A = np.random.default_rng(0).standard_normal((n, n))
    full = ConvexSubproblem(np.eye(n), A, 1.0, _composite())
    frozen = ConvexSubproblem(np.eye(n), A, 1.0, _composite(),
                              fixed_T=np.eye(n))
    schur = ConvexSubproblem(np.eye(n), A, 1.0, rg.schur())

    def names(sp, b):
        return [k for g, _ in b.terms for k, h in sp.groups.items() if h is g]

    for sp in (full, frozen, schur):
        # the groups tile x in the order T, J, R with their svec sizes
        sizes = {"T": n * (n + 1) // 2, "J": n * (n - 1) // 2, "R": n * (n + 1) // 2}
        stops = np.cumsum([sizes[k] for k in sp.groups])
        assert [g.sl.stop for g in sp.groups.values()] == list(stops)
        assert sp.m == stops[-1]
        for b in sp.blocks:
            starts = [g.sl.start for g, _ in b.terms]
            assert starts == sorted(set(starts))
            assert len(names(sp, b)) == len(b.terms)
            for _, M in b.terms:
                assert np.any(M)
                assert len(M) * n == len(b.G0)
    # the schur() region block: every group
    assert names(schur, schur.blocks[-1]) == ["T", "J", "R"]
    # a vertical-strip part couples T and R but not J (the composite region
    # is not in the closed left half-plane: T >= 0 is the one PSD block)
    assert names(full, full.blocks[1]) == ["T", "R"]
    # a horizontal-strip part has C + C^T = 0, so it leaves R out
    assert names(full, full.blocks[3]) == ["T", "J"]
    # with T frozen, T is no variable: the same strip part is R alone
    assert "T" not in frozen.groups
    assert names(frozen, frozen.blocks[0]) == ["R"]


def test_constraint_blocks_hold_no_expanded_basis():
    """Building the n = 30 composite subproblem keeps each block as its
    Kronecker terms: the coefficients M_g (x) S_j of its m = 1365
    variables, expanded, would take about 81 MB."""
    pair = grcar(30, 1)
    region = rg.intersect(rg.disk(0.0, 3.0), rg.left_conic_sector(0.0, 0.8),
                          rg.left_half_plane(-0.1))
    tracemalloc.start()
    try:
        sp = ConvexSubproblem(pair.E, pair.A, 1.0, region)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sp.m == 1365
    assert peak < 2e6


def test_barrier_hessian_peak_stays_near_its_size():
    """One barrier Hessian at the n = 20 composite start point (m = 610,
    H 2.8 MB) traces a peak of at most 2.06 H: 2.01 measured, 2.12 where
    `_trace_pairs` reordered its gathered rows by a copy. Past about twice
    the largest recent block, glibc returns the heap's free top to the
    system and the next call faults on every page again (1433 minor faults
    per call at 2.12, none at 2.01)."""
    pair = grcar(20, 1)
    sp = ConvexSubproblem(pair.E, pair.A, 1.0, _composite())
    factors = _barrier(sp, sp.values(sp.pack(*initial_point(sp))))
    _barrier_grad_hess(sp, factors)  # the first call fills the svec caches
    tracemalloc.start()
    try:
        _, H, _ = _barrier_grad_hess(sp, factors)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sp.m == 610
    assert peak <= 2.06 * H.nbytes


@pytest.mark.parametrize("n", [1, 3, 6])
@pytest.mark.parametrize("case", CASES)
def test_block_values_and_changes_match_dense_oracle(case, n):
    """The compiled gather's block values G_b(x) and changes dG_b along dx
    are the dense oracle's, block by block in the solver's order. An entry
    that no term reaches reads the zero slot, so at an all-NaN x exactly the
    entries some coordinate moves are NaN and the rest keep G0 (at n = 1
    the skew J has no coordinates and reaches nothing)."""
    sp, _, x, rng = _interior_case(case, n)
    _, split_blocks, _ = _dense_problem(sp)
    frozen = sp.fixed_T is not None

    def change(d):  # the oracle's dG_b along d; a direction does not move a frozen T
        return split_blocks(*_dense_split(d, n, np.zeros((n, n)) if frozen else None), 0.0)

    dx = rng.standard_normal(sp.m)
    for got, dense in ((sp.values(x), split_blocks(*_dense_split(x, n, sp.fixed_T),
                                                   sp.delta_lmi)),
                       (sp.change(dx), change(dx))):
        assert got.shape == (sum(len(D) ** 2 for D in dense),)
        for Gb, D in zip(sp.views(got), dense, strict=True):
            np.testing.assert_allclose(Gb, D, rtol=0.0, atol=1e-14 * np.abs(D).max(initial=1.0))
    reached = [sum(np.abs(D) for D in Ds) > 0.0
               for Ds in zip(*(change(e) for e in np.eye(sp.m)))]
    at_nan = sp.views(sp.values(np.full(sp.m, np.nan)))
    for Gb, G0, live in zip(at_nan, sp.views(sp.values(np.zeros(sp.m))), reached):
        np.testing.assert_array_equal(np.isnan(Gb), live)
        np.testing.assert_array_equal(Gb[~live], G0[~live])


@pytest.mark.parametrize("n", [1, 3, 5])
@pytest.mark.parametrize("case", CASES)
def test_adjoint_is_the_adjoint_of_the_linear_part(case, n):
    """W._linear(y) = _adjoint(W).y for the blocks' gather and the (T, J, R)
    split's, the two maps the solver reads x through (at n = 1 the skew J
    has no coordinates); a frozen T's entries of W drop out of the
    split's adjoint."""
    sp, _, _, rng = _interior_case(case, n)
    for gather in (sp.gather, sp.tjr):
        y = rng.standard_normal(sp.m)
        W = rng.standard_normal(len(gather.G0))
        Ly, AW = _linear(gather, y), _adjoint(gather, W, sp.m)
        assert Ly.shape == W.shape and AW.shape == y.shape
        scale = np.abs(W) @ np.abs(Ly) + 1e-300
        assert abs(W @ Ly - AW @ y) <= 1e-14 * scale
    W = np.zeros((3, n, n))
    W[0] = rng.standard_normal((n, n))  # at the T entries alone
    assert np.any(_adjoint(sp.tjr, W, sp.m)) == (sp.fixed_T is None)


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("case", CASES)
def test_line_merit_matches_dense_oracle(case, n):
    """The closed-form s-derivatives of the line merit psi(x + s dx) - psi(x)
    (`_line_slopes`) equal t gf.dx - sum tr(G^-1 dG) and
    t dx'H_f dx + sum tr(G^-1 dG G^-1 dG) at x + s dx, and
    s_max = 1 / max(-mu) is where the first block turns singular. The dG_b
    returned with mu are the dense blocks' change along dx."""
    sp, oracle, x, rng = _interior_case(case, n)
    t = 7.0
    obj = _Objective(sp, np.eye(n))

    def definite(x):
        return min(np.linalg.eigvalsh(G)[0] for G in oracle(x)) > 0.0

    gf = obj.grad(x)
    _, split_blocks, _ = _dense_problem(sp)
    _, _, inverses = _barrier_derivs(sp, x)
    for _ in range(3):
        dx = rng.standard_normal(sp.m)
        mu, dG = _step_spectrum(sp, inverses, dx)
        # a direction does not move a frozen T
        dTJR = _dense_split(dx, n, None if sp.fixed_T is None else np.zeros((n, n)))
        for dGb, dense in zip(sp.views(dG), split_blocks(*dTJR, 0.0), strict=True):
            np.testing.assert_allclose(dGb, dense, rtol=0.0, atol=1e-12 * np.abs(dense).max())
        assert mu.min() < 0.0
        s_max = 1.0 / -mu.min()
        for frac in (0.1, 0.5, 0.9):
            s = frac * s_max
            xs = x + s * dx
            WdG = [np.linalg.solve(G, dG)
                   for G, dG in zip(oracle(xs), oracle(dx, direction=True))]
            dense = (t * (obj.grad(xs) @ dx) - sum(np.trace(M) for M in WdG),
                     t * (dx @ obj.H @ dx) + sum(np.trace(M @ M) for M in WdG))
            closed = _line_slopes(s, t, gf @ dx, obj.curvature(dx), mu)
            assert closed == pytest.approx(dense, rel=1e-9)
        assert definite(x + 0.999 * s_max * dx)
        assert not definite(x + 1.001 * s_max * dx)


@pytest.mark.parametrize("n", [1, 3, 5])
@pytest.mark.parametrize("case", CASES)
def test_split_and_objective_gradient_match_dense_forms(case, n):
    """`split` gives sum_i x_i S_i over each group's coordinates on the
    oracle's orthonormal bases S_i (a frozen T its fixed value), and f's
    gradient, the split's adjoint at the weighted residuals, is
    -2 mu <(E - T Q) Q^T, S_i> on T, -2 <(A - (J - R) Q) Q^T, S_i> on J and
    its negation on R, at mu != 1 and a random Q."""
    sp, _, x, rng = _interior_case(case, n)
    sp = dataclasses.replace(sp, mu=0.7)
    Q = random_well_conditioned(n, rng)
    T, J, R = _dense_split(x, n, sp.fixed_T)
    for got, want in zip(sp.split(x), (T, J, R), strict=True):
        np.testing.assert_array_equal(got, want)
    DA = -2.0 * (sp.A - (J - R) @ Q) @ Q.T
    parts = {"T": (-2.0 * sp.mu * (sp.E - T @ Q) @ Q.T, sym_basis(n)),
             "J": (DA, skew_basis(n)), "R": (-DA, sym_basis(n))}
    dense = np.concatenate([np.einsum("ij,kij->k", *parts[k]) for k in sp.groups])
    np.testing.assert_allclose(_Objective(sp, Q).grad(x), dense, rtol=0.0,
                               atol=1e-13 * np.abs(dense).max())


def test_line_search_survives_a_negative_computed_curvature():
    """With cond(Q) = 1e9, cond(Q)^2 is past 1 / machine eps, and along some
    eigenvector dx of the computed H_f the computed dx'(H_f dx) is negative,
    so the line merit's computed second derivative t dx'H_f dx + sum mu^2
    at s = 0 is too at a large t. `_Objective.curvature` forms dx'H_f dx
    from (dJ - dR) Q and dT Q, nonnegative by construction, and
    `_line_step` fed the negative value returns a step in [0, s_max)
    rather than raising."""
    found = None
    for seed in range(20):
        rng = np.random.default_rng(seed)
        U, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        V, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        Q = U @ np.diag(np.logspace(4, -5, 3)) @ V.T
        sp = ConvexSubproblem(np.eye(3), rng.standard_normal((3, 3)), 1.0, rg.hurwitz())
        obj = _Objective(sp, Q)
        _, vectors = np.linalg.eigh(obj.H)
        negative = [dx for dx in vectors[:, :5].T if float(dx @ (obj.H @ dx)) < 0.0]
        if negative:
            found = (sp, obj, negative[0])
            break
    assert found is not None
    sp, obj, dx = found
    x = sp.pack(*initial_point(sp))
    if obj.grad(x) @ dx > 0.0:
        dx = -dx  # a descent direction for t f at a large t
    computed, curv = float(dx @ (obj.H @ dx)), obj.curvature(dx)
    dT, dJ, dR = _dense_split(dx, 3)
    dense = 2.0 * (np.linalg.norm((dJ - dR) @ Q) ** 2 + sp.mu * np.linalg.norm(dT @ Q) ** 2)
    assert computed < 0.0 <= curv
    assert curv == pytest.approx(dense, rel=1e-12)
    _, _, inverses = _barrier_derivs(sp, x)
    mu, _ = _step_spectrum(sp, inverses, dx)
    t = 10.0 * float(mu @ mu) / -computed  # t dx'H_f dx + sum mu^2 < 0 at s = 0
    cap = 1.0 / -mu.min()
    slope = float(obj.grad(x) @ dx)
    assert 0.0 <= _line_step(t, slope, computed, mu) < cap
    assert 0.0 < _line_step(t, slope, curv, mu) < cap


def _reference_line_step(t, slope_f, curv_f, mu):
    """The minimizer of t (s slope_f + s^2 curv_f / 2) - sum log(1 + s mu)
    over [0, 0.99 s_max], by Brent's method on its derivative, which is
    increasing: the cap where the derivative is still negative there."""
    def slope(s):
        return t * (slope_f + s * curv_f) - np.sum(mu / (1.0 + s * mu))

    cap = 0.99 / -mu.min() if mu.min() < 0.0 else 1.0
    while mu.min() >= 0.0 and slope(cap) < 0.0:
        cap *= 2.0
    if slope(cap) <= 0.0:
        return cap
    return scipy.optimize.brentq(slope, 0.0, cap, xtol=1e-300, rtol=4.0 * np.finfo(float).eps)


def test_line_step_matches_a_reference_minimizer(monkeypatch):
    """Along Newton-like directions (slope -lambda^2 and curvature
    lambda^2 at s = 0), one in five with no negative mu and one in seven
    pulled far along by its slope, `_line_step` lands within 2e-6 of
    Brent's minimizer in the scalar Newton decrement's metric (it stops at
    decrement 1e-6), in at most 6 evaluations of the slopes on average (4.6
    measured; a Newton iteration damped by 1 / (1 + lambda) took 12.5, and
    50 left it short of 26 of these minimizers)."""
    calls = []
    line_slopes = sdp._line_slopes

    def counting(*args):
        calls.append(None)
        return line_slopes(*args)

    monkeypatch.setattr(sdp, "_line_slopes", counting)
    draws = 300
    for seed in range(draws):
        rng = np.random.default_rng(seed)
        mu = rng.standard_normal(30) * 10.0 ** rng.uniform(-2.0, 1.0)
        if seed % 5 == 0:
            mu = np.abs(mu)
        t = 10.0 ** rng.uniform(-1.0, 3.0)
        curv = abs(rng.standard_normal()) * 10.0 ** rng.uniform(-3.0, 1.0)
        lam2 = t * curv + mu @ mu
        slope = (mu.sum() - lam2) / t
        if seed % 7 == 0:
            slope -= 100.0 * lam2 / t
        s, ref = _line_step(t, slope, curv, mu), _reference_line_step(t, slope, curv, mu)
        curvature = t * curv + np.sum((mu / (1.0 + ref * mu)) ** 2)
        assert abs(s - ref) * np.sqrt(curvature) <= 2e-6
    assert len(calls) <= 6 * draws


def test_returned_point_interior_and_gap():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((3, 3))
    eps = 1e-7
    sp = ConvexSubproblem(np.eye(3), A, 1.0, rg.schur())
    sol = solve_subproblem(sp, np.eye(3), accuracy=eps)
    assert sol.converged
    assert sol.gap_estimate <= eps
    assert min(sp.margins(sp.pack(sol.T, sol.J, sol.R))) > 0.0


def _most_central_t(sp, Q, init, t0):
    """The t minimizing ||t gf + g_phi|| in the norm of (t0 H_f + H_phi)^-1
    at the point `init`, by dense solves: where the start is most central."""
    obj = _Objective(sp, Q)
    x = sp.pack(*init)
    gphi, Hphi, _ = _barrier_derivs(sp, x)
    gf = obj.grad(x)
    K = t0 * obj.H + Hphi
    return -(gf @ np.linalg.solve(K, gphi)) / (gf @ np.linalg.solve(K, gf))


def _racing_accuracies(nu):
    """Accuracies eps near 1e-7 at which the x10 growth from nu / (10 eps)
    lands one ulp short of nu / eps."""
    racing = [eps for eps in (1e-7 * (1.0 + np.arange(100) / 1000.0)).tolist()
              if nu / (nu / (10.0 * eps) * sdp.BARRIER_GROWTH) > eps]
    assert len(racing) >= 5
    return racing


def test_warm_start_one_growth_from_the_final_stage_runs_two_stages():
    """A warm start with gap0 = 10 eps that is most central below
    t0 = nu / (10 eps) (a point solved to 1e-5) starts at t0, and one x10
    growth lands on nu / eps up to rounding. Where that rounding leaves
    nu / t above eps, the growth is still the last stage: two stages, not
    a third at 10 nu / eps."""
    rng = np.random.default_rng(4)
    sp = ConvexSubproblem(np.eye(3), rng.standard_normal((3, 3)), 1.0, rg.schur())
    nu = sp.nu
    loose = solve_subproblem(sp, np.eye(3), accuracy=1e-5)
    init = (loose.T, loose.J, loose.R)
    for eps in _racing_accuracies(nu):
        t0 = nu / (10.0 * eps)
        assert _most_central_t(sp, np.eye(3), init, t0) <= t0
        sol = solve_subproblem(sp, np.eye(3), init=[init], accuracy=eps, gap0=10.0 * eps)
        assert len(sol.stage_newton) == 2
        assert sol.gap_estimate <= eps
        assert sol.converged


def test_warm_start_at_the_optimum_begins_in_the_final_stage():
    """A warm start already optimal at its Q (solved to 1e-7) is most
    central far above t0 = nu / (10 eps): the solve starts in the final
    stage, whose first Newton step certifies the gap."""
    rng = np.random.default_rng(4)
    sp = ConvexSubproblem(np.eye(3), rng.standard_normal((3, 3)), 1.0, rg.schur())
    nu = sp.nu
    cold = solve_subproblem(sp, np.eye(3), accuracy=1e-7)
    init = (cold.T, cold.J, cold.R)
    for eps in _racing_accuracies(nu):
        t0 = nu / (10.0 * eps)
        assert _most_central_t(sp, np.eye(3), init, t0) >= nu / eps
        sol = solve_subproblem(sp, np.eye(3), init=[init], accuracy=eps, gap0=10.0 * eps)
        assert sol.stage_newton == [1]
        assert sol.gap_estimate <= eps
        assert sol.converged


@pytest.mark.parametrize("case", CASES)
def test_cold_start_at_bcd_cold_accuracy_runs_one_stage(case):
    """BCD's cold subproblem asks for `bcd.EPS_INIT` times the data scale,
    within COLD_REACH of the default start's t0 = nu / f(x): the solve
    starts in its final stage and converges there, within its accuracy of
    a tight solve."""
    rng = np.random.default_rng(0)
    region = {"schur": rg.schur(), "hurwitz_psd_R": rg.hurwitz()}.get(case, _composite())
    T_fixed = (np.eye(4) + 0.2 * sym(rng.standard_normal((4, 4)))
               if case == "frozen_T" else None)
    E, A = np.eye(4), 2.0 * rng.standard_normal((4, 4))
    sp = ConvexSubproblem(E, A, 1.0, region, fixed_T=T_fixed)
    accuracy = bcd.EPS_INIT * (1.0 + np.sum(A * A) + np.sum(E * E))
    f0 = _Objective(sp, np.eye(4)).value(sp.pack(*initial_point(sp)))
    assert sdp.BARRIER_GROWTH * accuracy < f0 <= sdp.COLD_REACH * accuracy  # two growths
    sol = solve_subproblem(sp, np.eye(4), accuracy=accuracy)
    tight = solve_subproblem(sp, np.eye(4), accuracy=1e-11)
    assert len(sol.stage_newton) == 1
    assert sol.converged and sol.gap_estimate <= accuracy
    assert tight.objective - 1e-11 <= sol.objective <= tight.objective + accuracy


@pytest.mark.parametrize("ratio, stages", [(10.0, 2), (8.0, 2), (4.0, 1)])
def test_warm_start_jumps_to_its_final_stage_only_within_warm_reach(ratio, stages, monkeypatch):
    """A warm start most central below t0 = nu / gap0 starts at t0. At
    gap0 = 10 eps, BCD's floor, t_final = nu / eps is exactly 10 t0, beyond
    WARM_REACH: the solve grows t once, two stages. At gap0 = 8 eps the
    growth lands at 1.25 t_final, and the last stage runs at t_final all
    the same. At gap0 = 4 eps the final stage is within reach and the solve
    starts there. Every solve's last Newton factor is at t_final."""
    rng = np.random.default_rng(4)
    sp = ConvexSubproblem(np.eye(3), rng.standard_normal((3, 3)), 1.0, rg.schur())
    nu, eps = sp.nu, 1e-7
    loose = solve_subproblem(sp, np.eye(3), accuracy=1e-5)
    init = (loose.T, loose.J, loose.R)
    t0 = nu / (ratio * eps)
    assert _most_central_t(sp, np.eye(3), init, t0) <= t0
    assert (nu / eps) / t0 == ratio
    assert (ratio <= sdp.WARM_REACH) == (stages == 1)
    factored_at, factor = [], sdp._newton_factor

    def recording(buf, t, Hf, Hphi):
        factored_at.append(t)
        return factor(buf, t, Hf, Hphi)

    monkeypatch.setattr(sdp, "_newton_factor", recording)
    sol = solve_subproblem(sp, np.eye(3), init=[init], accuracy=eps, gap0=ratio * eps)
    assert len(sol.stage_newton) == stages
    assert sol.converged and sol.gap_estimate <= eps
    assert factored_at[-1] == nu / eps


# the stage schedules of the cold solves below before the start rose to the
# most central t, when every solve started at t0
_T0_SCHEDULES = {
    "schur": [2, 4, 3, 4, 3, 2, 3, 4, 3],
    "hurwitz_psd_R": [3, 3, 3, 4, 3, 3, 3, 2, 3],
    "composite": [3, 2, 3, 3, 3, 2, 3, 2, 2],
    "frozen_T": [2, 2, 2, 1, 2, 1, 1, 1, 1],
}


@pytest.mark.parametrize("case", CASES)
def test_start_most_central_below_t0_keeps_its_stage_schedule(case):
    """A cold start most central at or below its t0 = nu / f(x) starts at
    t0 and takes the stage schedule every solve took when the barrier
    always started at t0, at accuracy 1e-8 (1 + f(x))."""
    rng = np.random.default_rng(0)
    region = {"schur": rg.schur(), "hurwitz_psd_R": rg.hurwitz()}.get(case, _composite())
    T_fixed = (np.eye(4) + 0.2 * sym(rng.standard_normal((4, 4)))
               if case == "frozen_T" else None)
    sp = ConvexSubproblem(np.eye(4), 2.0 * rng.standard_normal((4, 4)), 1.0, region,
                          fixed_T=T_fixed)
    start = initial_point(sp)
    f0 = _Objective(sp, np.eye(4)).value(sp.pack(*start))
    t0 = sp.nu / f0
    assert _most_central_t(sp, np.eye(4), start, t0) <= t0
    sol = solve_subproblem(sp, np.eye(4), accuracy=1e-8 * (1.0 + f0))
    assert sol.stage_newton == _T0_SCHEDULES[case]
    assert sol.converged


def test_final_stage_short_of_centering_is_not_converged(monkeypatch):
    rng = np.random.default_rng(4)
    sp = ConvexSubproblem(np.eye(3), rng.standard_normal((3, 3)), 1.0, rg.schur())
    assert solve_subproblem(sp, np.eye(3), accuracy=1e-7).converged
    monkeypatch.setattr(sdp, "MAX_NEWTON_PER_STAGE", 1)
    sol = solve_subproblem(sp, np.eye(3), accuracy=1e-7)
    assert sol.stage_newton[-1] == 1
    assert sol.gap_estimate <= 1e-7
    assert not sol.converged


def test_gap_guess_below_the_warm_start_suboptimality_still_converges():
    """A warm start whose gap0 (1e-2) is far below its true suboptimality
    starts the barrier at a t too large to centre x in
    MAX_NEWTON_PER_STAGE steps. Such a stage must not raise t: the solve
    converges within its accuracy of a tight solve, in far fewer than the
    6 x 60 = 360 steps that growing t x10 after each short stage takes."""
    rng = np.random.default_rng(4)
    A = 2.0 * rng.standard_normal((4, 4))
    sp = ConvexSubproblem(np.eye(4), A, 1.0, rg.schur())
    f_cold = _Objective(sp, np.eye(4)).value(sp.pack(*initial_point(sp)))
    start = solve_subproblem(sp, np.eye(4), accuracy=1e-8 * (1.0 + f_cold))
    Q = np.eye(4) + 0.1 * rng.standard_normal((4, 4))
    init = (start.T, start.J, start.R)
    f_warm = _Objective(sp, Q).value(sp.pack(*init))
    eps = 1e-8 * (1.0 + f_warm)
    tight = solve_subproblem(sp, Q, accuracy=1e-11)
    assert f_warm - tight.objective > 100.0 * 1e-2
    sol = solve_subproblem(sp, Q, init=[init], accuracy=eps, gap0=1e-2)
    assert sol.stage_newton[0] == sdp.MAX_NEWTON_PER_STAGE  # the first stage ran short
    assert sol.converged and sol.gap_estimate <= eps
    assert tight.objective - 1e-11 <= sol.objective <= tight.objective + eps
    assert sol.barrier_iterations <= 120  # 100 measured


def test_gap_guess_is_ignored_when_the_solve_falls_back_to_the_default_start():
    """gap0 estimates a warm start's suboptimality. When no warm candidate
    is strictly feasible (T = -I is not PSD), the solve starts at the
    default point and must schedule its barrier from f there: with
    gap0 = accuracy it used to start in its final stage and return a
    false certificate several units above the optimum."""
    rng = np.random.default_rng(1)
    G, A = sym(rng.standard_normal((5, 5))), rng.standard_normal((5, 5))
    sp = ConvexSubproblem(G, A, 1.0, region=None)
    eye, zero = np.eye(5), np.zeros((5, 5))
    staged = solve_subproblem(sp, eye, accuracy=1e-10)
    sol = solve_subproblem(sp, eye, init=[(-eye, zero, eye)], accuracy=1e-10, gap0=1e-10)
    assert sol.initial_point_used and sol.converged
    assert sol.objective == pytest.approx(staged.objective, abs=1e-9)
    np.testing.assert_allclose(sol.T, project_psd(G), atol=1e-6)


def test_newton_steps_use_the_gradient_and_blocks_of_their_point(monkeypatch):
    """Every Newton step reads grad f and the block values G_b of the point
    it is taken at. The solver forms a point's factors and then grad f at
    that point x; at every place where it takes the barrier derivatives,
    over full cold solves to 1e-11 and warm solves, the Cholesky factors
    it passes are those of the G_b formed from x, and the f-part
    (g - g_phi) / t of each Newton right-hand side g is _Objective.grad(x),
    to 1e-9 relative to |G_b| and to |grad f| + |g_phi| / t. Every returned
    (T, J, R) is strictly feasible."""
    points, directions = [], []  # (x, L L^T of each factor, g_phi); (t, g, index in points)
    factored = []  # the t of each Newton factor
    pending, owners = [], {}  # the last factors formed; id of factors -> (factors, x)
    barrier, grad, barrier_grad_hess = sdp._barrier, sdp._Objective.grad, sdp._barrier_grad_hess
    newton_factor, newton_solve = sdp._newton_factor, sdp._newton_solve

    def recording_barrier(sp, G):
        factors = barrier(sp, G)
        pending[:] = [] if factors is None else [factors]
        return factors

    def recording_grad(obj, x):
        if pending:  # the point whose factors were just formed
            factors = pending.pop()
            owners[id(factors)] = (factors, x.copy())
        return grad(obj, x)

    def recording_derivs(sp, factors):
        out = barrier_grad_hess(sp, factors)
        points.append((owners[id(factors)][1], [L @ L.T for L in factors], out[0]))
        return out

    def recording_factor(buf, t, Hf, Hphi):
        factored.append(t)
        return newton_factor(buf, t, Hf, Hphi)

    def recording_direction(L, g):
        if g.ndim == 1:  # a Newton direction, not the start's two solves
            directions.append((factored[-1], g.copy(), len(points) - 1))
        return newton_solve(L, g)

    monkeypatch.setattr(sdp, "_barrier", recording_barrier)
    monkeypatch.setattr(sdp._Objective, "grad", recording_grad)
    monkeypatch.setattr(sdp, "_barrier_grad_hess", recording_derivs)
    monkeypatch.setattr(sdp, "_newton_factor", recording_factor)
    monkeypatch.setattr(sdp, "_newton_solve", recording_direction)
    checked = 0
    for case in CASES:
        for seed in range(2):
            rng = np.random.default_rng(seed)
            region = {"schur": rg.schur(), "hurwitz_psd_R": rg.hurwitz()}.get(case, _composite())
            T_fixed = (np.eye(4) + 0.2 * sym(rng.standard_normal((4, 4)))
                       if case == "frozen_T" else None)
            sp = ConvexSubproblem(np.eye(4), 2.0 * rng.standard_normal((4, 4)), 1.0, region,
                                  fixed_T=T_fixed)
            Q = np.eye(4) + 0.1 * rng.standard_normal((4, 4))
            start = solve_subproblem(sp, np.eye(4), accuracy=1e-3)
            init = (start.T, start.J, start.R)
            for Qs, kwargs in ((np.eye(4), {"accuracy": 1e-11}),
                               (Q, {"init": [init], "accuracy": 1e-11, "gap0": 1e-3}),
                               (Q, {"init": [init], "accuracy": 1e-8, "gap0": 1.0})):
                points.clear()
                directions.clear()
                owners.clear()
                sol = solve_subproblem(sp, Qs, **kwargs)
                assert _barrier(sp, sp.values(sp.pack(sol.T, sol.J, sol.R))) is not None
                obj = _Objective(sp, Qs)
                for x, G, _ in points:
                    for Gb, formed in zip(G, sp.views(sp.values(x)), strict=True):
                        assert np.linalg.norm(Gb - formed) <= 1e-9 * np.linalg.norm(formed)
                for t, g, i in directions:
                    x, _, gphi = points[i]
                    gf, gf_carried = obj.grad(x), (g - gphi) / t
                    scale = np.linalg.norm(gf) + np.linalg.norm(gphi) / t
                    assert np.linalg.norm(gf_carried - gf) <= 1e-9 * scale
                checked += len(directions)
    assert checked > 500


@pytest.mark.parametrize("region", [rg.schur(), _composite()], ids=["schur", "composite"])
def test_stage_centering_changes_the_work_not_the_answer(region, monkeypatch):
    """Intermediate stages ended at Newton decrement 1 (STAGE_CENTERING) and
    at the former 1e-4 give, cold and warm, converged solutions whose
    objectives agree within eps, the loose stages in no more Newton steps."""
    rng = np.random.default_rng(4)
    A = rng.standard_normal((4, 4)) * 2
    sp = ConvexSubproblem(np.eye(4), A, 1.0, region)
    Q = np.eye(4) + 0.05 * rng.standard_normal((4, 4))
    eps = 1e-8 * (1.0 + np.sum(A * A))
    start = solve_subproblem(sp, np.eye(4), accuracy=eps)
    init = (start.T, start.J, start.R)
    # the warm barrier sized by how much the change of Q raised the start's objective
    gap0 = _Objective(sp, Q).value(sp.pack(*init)) - start.objective
    runs = {}
    for tol in (sdp.STAGE_CENTERING, 1e-4):
        monkeypatch.setattr(sdp, "STAGE_CENTERING", tol)
        runs[tol] = (solve_subproblem(sp, np.eye(4), accuracy=eps),
                     solve_subproblem(sp, Q, init=[init], accuracy=eps, gap0=gap0))
    loose, tight = runs.values()
    for a, b in zip(loose, tight):
        assert a.converged and b.converged
        assert a.gap_estimate <= eps and b.gap_estimate <= eps
        assert a.objective == pytest.approx(b.objective, rel=0.0, abs=eps)
        assert len(a.stage_newton) == len(b.stage_newton) >= 3
        assert a.barrier_iterations <= b.barrier_iterations
    assert sum(a.barrier_iterations for a in loose) < sum(b.barrier_iterations for b in tight)


def _dense_problem(sp):
    """The subproblem of `sp` from the oracle's dense matrices: f and its
    gradient at (T, J, R, Q) over the coordinates x, the blocks G_b at
    (T, J, R) in the solver's block order (the region LMI split into its
    connected diagonal blocks, as the solver splits it), and the adjoint
    map Z -> [sum_b <Z_b, dG_b(e_i)>]_i of the blocks' linear part."""
    n, psd_T = sp.n, sp.fixed_T is None
    parts = rg.connected_blocks(sp.region)
    basis = {"T": sym_basis(n), "J": skew_basis(n), "R": sym_basis(n)}
    directions = []  # (dT, dJ, dR) of each coordinate, in x order
    for k in ("TJR" if psd_T else "JR"):
        for S in basis[k]:
            directions.append(tuple(S if k == name else np.zeros((n, n)) for name in "TJR"))

    def blocks(T, J, R, delta):
        psd = barrier_blocks(parts[0].B, parts[0].C, T, J, R, 0.0, psd_T, sp.require_R_psd)
        return psd[:-1] + [barrier_blocks(p.B, p.C, T, J, R, delta, psd_T=False)[-1]
                           for p in parts]

    def grad(T, J, R, Q):
        res_a, res_e = sp.A - (J - R) @ Q, sp.E - T @ Q
        return np.array([-2.0 * np.sum(res_a * ((dJ - dR) @ Q))
                         - 2.0 * sp.mu * np.sum(res_e * (dT @ Q)) for dT, dJ, dR in directions])

    def adjoint(Z):
        return np.array([sum(np.sum(Zb * dG) for Zb, dG in zip(Z, blocks(*d, 0.0)))
                         for d in directions])

    return grad, blocks, adjoint


def test_kkt_residual_at_return():
    """The SDP optimality conditions at return, with the multipliers Z_b of
    the solution's certificate: stationarity grad f(x) = sum_b A_b*(Z_b),
    dual feasibility Z_b >= 0, and the duality gap
    sum_b <Z_b, G_b(x)> = gap_estimate <= eps, so f(x) is within eps of
    the optimum. A_b* and G_b are formed from B, C and the oracle's bases,
    cold and warm, over four constraint layouts."""
    rng = np.random.default_rng(5)
    for case in CASES:
        region = {"schur": rg.schur(), "hurwitz_psd_R": rg.hurwitz()}.get(case, _composite())
        T_fixed = (np.eye(3) + 0.2 * sym(rng.standard_normal((3, 3)))
                   if case == "frozen_T" else None)
        A = rng.standard_normal((3, 3))
        sp = ConvexSubproblem(np.eye(3), A, 1.0, region, fixed_T=T_fixed)
        grad, blocks, adjoint = _dense_problem(sp)
        eps = 1e-8 * (1 + np.sum(A * A))
        cold = solve_subproblem(sp, np.eye(3), accuracy=eps)
        Q = random_well_conditioned(3, rng)
        warm = solve_subproblem(sp, Q, init=[(cold.T, cold.J, cold.R)], accuracy=10.0 * eps,
                                gap0=1.0)
        for sol, Qs, acc in ((cold, np.eye(3), eps), (warm, Q, 10.0 * eps)):
            assert sol.converged
            Z = sol.multipliers
            G = blocks(sol.T, sol.J, sol.R, sp.delta_lmi)
            assert [len(Zb) for Zb in Z] == [len(Gb) for Gb in G]
            for Zb in Z:
                np.testing.assert_array_equal(Zb, Zb.T)
                assert np.linalg.eigvalsh(Zb)[0] >= -1e-12 * np.abs(Zb).max()
            gf = grad(sol.T, sol.J, sol.R, Qs)
            assert np.linalg.norm(gf - adjoint(Z)) <= 1e-9 * (1.0 + np.linalg.norm(gf))
            gap = sum(np.sum(Zb * Gb) for Zb, Gb in zip(Z, G))
            assert gap == pytest.approx(sol.gap_estimate, rel=1e-8)
            assert 0.0 < sol.gap_estimate <= acc


@pytest.mark.parametrize("accuracy", [1e-2, 1e-4, 1e-6])
@pytest.mark.parametrize("case", CASES)
def test_objective_is_within_accuracy_of_a_tight_solve(case, accuracy):
    """Cold and warm solves at `accuracy` return converged, with objectives
    at most `accuracy` above a solve to 1e-11, over seeded instances of
    four constraint layouts. The warm start is a solution at another Q,
    its gap guess its true suboptimality."""
    for seed in range(3):
        rng = np.random.default_rng(seed)
        region = {"schur": rg.schur(), "hurwitz_psd_R": rg.hurwitz()}.get(case, _composite())
        T_fixed = (np.eye(4) + 0.2 * sym(rng.standard_normal((4, 4)))
                   if case == "frozen_T" else None)
        sp = ConvexSubproblem(np.eye(4), 2.0 * rng.standard_normal((4, 4)), 1.0, region,
                              fixed_T=T_fixed)
        Q = np.eye(4) + 0.1 * rng.standard_normal((4, 4))
        start = solve_subproblem(sp, np.eye(4), accuracy=1e-3)
        init = (start.T, start.J, start.R)
        for Qs, warm in ((np.eye(4), False), (Q, True)):
            tight = solve_subproblem(sp, Qs, accuracy=1e-11)
            kwargs = {}
            if warm:
                gap0 = _Objective(sp, Qs).value(sp.pack(*init)) - tight.objective
                kwargs = {"init": [init], "gap0": max(gap0, accuracy)}
            sol = solve_subproblem(sp, Qs, accuracy=accuracy, **kwargs)
            assert tight.converged and sol.converged
            assert sol.gap_estimate <= accuracy
            assert tight.objective - 1e-11 <= sol.objective <= tight.objective + accuracy


@pytest.mark.parametrize("name, value", [("accuracy", 0.0), ("accuracy", -1e-6),
                                         ("accuracy", np.inf), ("accuracy", np.nan),
                                         ("gap0", 0.0), ("gap0", -1.0), ("gap0", np.inf),
                                         ("gap0", np.nan)])
def test_accuracy_and_gap_guess_must_be_finite_and_positive(name, value):
    rng = np.random.default_rng(4)
    sp = ConvexSubproblem(np.eye(3), rng.standard_normal((3, 3)), 1.0, rg.schur())
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        solve_subproblem(sp, np.eye(3), **{"accuracy": 1e-8, name: value})


def test_orthogonal_change_of_basis_invariance():
    rng = np.random.default_rng(6)
    n = 3
    E = rng.standard_normal((n, n))
    A = rng.standard_normal((n, n))
    Q = random_well_conditioned(n, rng)
    U = scipy.linalg.qr(rng.standard_normal((n, n)))[0]
    reg = rg.from_primitive(rg.disk(0.0, 2.0))
    sol = solve_subproblem(ConvexSubproblem(E, A, 1.0, reg), Q, accuracy=1e-9)
    sol2 = solve_subproblem(ConvexSubproblem(U.T @ E @ U, U.T @ A @ U, 1.0, reg),
                            U.T @ Q @ U, accuracy=1e-9)
    assert sol2.objective == pytest.approx(sol.objective, abs=1e-6 * (1 + sol.objective))
    np.testing.assert_allclose(sol2.T, U.T @ sol.T @ U, atol=1e-6)
    np.testing.assert_allclose(sol2.J, U.T @ sol.J @ U, atol=1e-6)
    np.testing.assert_allclose(sol2.R, U.T @ sol.R @ U, atol=1e-6)


def test_warm_start_is_used_and_respected():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((3, 3))
    sp = ConvexSubproblem(np.eye(3), A, 1.0, rg.schur())
    sol = solve_subproblem(sp, np.eye(3), accuracy=1e-8)
    assert sol.initial_point_used
    sol2 = solve_subproblem(sp, np.eye(3), init=[(sol.T, sol.J, sol.R)], accuracy=1e-8,
                            gap0=10 * sol.gap_estimate)
    assert not sol2.initial_point_used
    assert sol2.objective <= sol.objective + 1e-9 * (1 + sol.objective)


def _same(a, b):
    if isinstance(a, list):  # the multipliers: matrices of several sizes
        return len(a) == len(b) and all(map(_same, a, b))
    return np.array_equal(a, b)


def _same_solution(a, b):
    return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))


def test_one_subproblem_serves_every_Q():
    """Solving one subproblem at two Q's, in either order, gives the
    solutions of two fresh subproblems bit for bit: nothing of one Q
    stays behind in the shared constraint set."""
    rng = np.random.default_rng(10)
    n = 3
    E, A = np.eye(n), rng.standard_normal((n, n))
    Qs = [np.eye(n), random_well_conditioned(n, rng)]
    fresh = [solve_subproblem(ConvexSubproblem(E, A, 1.0, _composite()), Q, accuracy=1e-8)
             for Q in Qs]
    for order in ([0, 1], [1, 0]):
        sp = ConvexSubproblem(E, A, 1.0, _composite())
        for i in order:
            assert _same_solution(solve_subproblem(sp, Qs[i], accuracy=1e-8), fresh[i])


@pytest.mark.parametrize("region, T, R", [(rg.from_primitive(rg.disk(-1.0, 0.5)), 0.52, 0.26),
                                          (rg.hurwitz(), 1.0, 0.0)], ids=["disk", "hurwitz"])
def test_one_by_one_pair_reaches_the_closed_form_optimum(region, T, R):
    """At n = 1 the skew J has no coordinates, and at Q = 1 the pencil's
    eigenvalue is -R / T: the nearest (T, R) to (1, -0.7) with it in
    disk(-1, 0.5) lies on the ray R = T / 2, and in the left half-plane
    at R = 0. Both regions lie in the closed left half-plane, so R >= 0 is
    a constraint too."""
    sp = ConvexSubproblem(np.eye(1), np.array([[0.7]]), 1.0, region)
    assert sp.require_R_psd
    sol = solve_subproblem(sp, np.eye(1), accuracy=1e-8)
    assert sol.converged
    assert sol.J.shape == (1, 1) and not np.any(sol.J)
    np.testing.assert_allclose([sol.T[0, 0], sol.R[0, 0]], [T, R], rtol=0.0, atol=1e-5)
    assert sol.objective == pytest.approx((0.7 + R) ** 2 + (1.0 - T) ** 2, rel=1e-5)


def test_fixed_T_mode_optimizes_J_R_only():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((3, 3))
    E = np.eye(3)
    sp = ConvexSubproblem(E, A, 1.0, rg.schur(), fixed_T=np.eye(3))
    sol = solve_subproblem(sp, np.eye(3), accuracy=1e-9)
    np.testing.assert_allclose(sol.T, np.eye(3))
    # fixed-T optimum cannot beat the free-T optimum
    sol_free = solve_subproblem(ConvexSubproblem(E, A, 1.0, rg.schur()), np.eye(3),
                                accuracy=1e-9)
    assert sol_free.objective <= sol.objective + 1e-7 * (1 + sol.objective)


def test_subproblem_states_its_data_and_works_out_the_rest():
    """A subproblem is stated by E, A, mu, its region and a frozen T alone.
    Its LMI margin is 1e-6 (1 + ||A||_F), and R >= 0 is a constraint
    exactly when there is no region or the region lies in the closed left
    half-plane, so every subproblem has a constraint block. Neither can be
    passed in, and a solve names its accuracy."""
    assert [f.name for f in dataclasses.fields(ConvexSubproblem) if f.init] == [
        "E", "A", "mu", "region", "fixed_T"]
    E, A = np.eye(2), np.array([[0.0, 2.0], [-2.0, 1.0]])
    for name, value in (("delta_lmi", 1e-8), ("require_R_psd", True), ("section", (-1.0, 1.0)),
                        ("m", 3)):
        with pytest.raises(TypeError):
            ConvexSubproblem(E, A, 1.0, rg.schur(), **{name: value})
    sp = ConvexSubproblem(E, A, 1.0, rg.schur())
    assert sp.delta_lmi == pytest.approx(4e-6, rel=1e-15)
    with pytest.raises(TypeError):
        solve_subproblem(sp, np.eye(2))
    regions = [rg.hurwitz(), rg.schur(), rg.from_primitive(rg.vertical_strip(-3.0, -1.0)),
               _composite(), rg.intersect(rg.disk(-3.0, 1.0), rg.disk(3.0, 1.0))]
    derived = [ConvexSubproblem(E, A, 1.0, region).require_R_psd for region in regions]
    assert derived == [rg.in_closed_left_half_plane(region) for region in regions]
    assert derived == [True, False, True, False, True]
    for fixed_T in (None, np.eye(2)):
        sp = ConvexSubproblem(E, A, 1.0, fixed_T=fixed_T)
        assert sp.require_R_psd
        # R >= 0 alone with T frozen, else T >= 0 and R >= 0
        assert len(sp.blocks) == 1 + (fixed_T is None)
