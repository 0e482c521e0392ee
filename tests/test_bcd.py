import json
import os
import pathlib
import subprocess
import sys
from collections import namedtuple

import numpy as np
import pytest
import scipy.linalg
from _oracles import _fgm_objective

import omegapair
from omegapair import bcd, sdp
from omegapair import regions as rg
from omegapair.bcd import BcdDiagnostics, BcdOptions, solve_general, update_Q
from omegapair.bench import grcar, msd
from omegapair.dh import skew, sym
from omegapair.fgm import FgmOptions, solve_hurwitz
from omegapair.pencil import admissibility_check


def test_update_Q_exact_fit():
    Q, fell_back = update_Q(np.eye(2), -np.eye(2), np.eye(2), np.zeros((2, 2)),
                            np.eye(2))
    assert not fell_back
    np.testing.assert_allclose(Q, np.eye(2), atol=1e-12)


def test_update_Q_degenerate_falls_back():
    Z = np.zeros((2, 2))
    Q, fell_back = update_Q(np.eye(2), -np.eye(2), Z, Z, Z)
    assert fell_back
    np.testing.assert_allclose(Q, 0.0, atol=1e-9)
    # T and R share an eigenvalue of 1e-17: the operator is numerically
    # rank-deficient, and Q is its minimum-norm least-squares solution
    rng = np.random.default_rng(0)
    n = 4
    U = np.linalg.qr(rng.standard_normal((n, n)))[0]
    T = (U * [1e-17, 1.0, 2.0, 3.0]) @ U.T
    R = (U * [1e-17, 0.5, 1.5, 2.5]) @ U.T
    J = np.zeros((n, n))
    E, A = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    Q, fell_back = update_Q(E, A, T, J, R)
    assert fell_back
    M, b = np.vstack([J - R, T]), np.vstack([A, E])
    np.testing.assert_allclose(Q, np.linalg.pinv(M) @ b, rtol=0.0, atol=1e-12)


def test_update_Q_normal_equation_residual():
    rng = np.random.default_rng(0)
    n = 5
    for _ in range(10):
        E, A = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        T = sym(rng.standard_normal((n, n)))
        J = skew(rng.standard_normal((n, n)))
        R = sym(rng.standard_normal((n, n)))
        mu = float(rng.uniform(0.5, 2.0))
        Q, _ = update_Q(E, A, T, J, R, mu)
        resid = (J - R).T @ (A - (J - R) @ Q) + mu * T.T @ (E - T @ Q)
        scale = (np.linalg.norm(A) + np.linalg.norm(E)) * (
            np.linalg.norm(J - R) + np.linalg.norm(T))
        assert np.linalg.norm(resid) <= 1e-8 * (1 + scale)


def test_raw_bc_region_solves_like_its_primitive():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((3, 3)) * 1.5
    raw = rg.LmiRegion(rg.schur().B, rg.schur().C)
    opts = BcdOptions(max_time_s=30.0, max_outer_iters=4)
    res = solve_general(np.eye(3), A, rg.schur(), opts)
    res_raw = solve_general(np.eye(3), A, raw, opts)
    assert res_raw.iterations == res.iterations
    assert res_raw.objective == pytest.approx(res.objective, rel=1e-10)


def test_already_admissible_disk_input_recovered(monkeypatch):
    monkeypatch.setattr(bcd, "EPS_FLOOR", 1e-13)
    rng = np.random.default_rng(1)
    n = 5
    U = scipy.linalg.qr(rng.standard_normal((n, n)))[0]
    A = 0.5 * U  # spectral norm 0.5, comfortably inside the unit disk
    E = np.eye(n)
    opts = BcdOptions(max_time_s=60.0, max_outer_iters=12)
    res = solve_general(E, A, rg.schur(), opts)
    assert res.admissible
    assert res.relative_error <= 1e-6


def test_objective_bookkeeping_invariants(monkeypatch):
    rng = np.random.default_rng(2)
    n = 4
    A = rng.standard_normal((n, n)) * 1.5
    E = np.eye(n)
    res, _, sweeps = _observed_sweeps(monkeypatch, E, A, rg.schur(),
                                      BcdOptions(max_time_s=30.0, max_outer_iters=10))
    scale = 1.0 + float(np.sum(A * A) + np.sum(E * E))
    updates = [u for sweep in sweeps for u in sweep]
    assert updates
    for u in updates:
        assert u.q_after <= u.q_before + 1e-10 * scale
        assert u.solved <= u.warm + u.accuracy + 1e-9 * scale
    objs = [row[1] for row in res.trace]
    assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))


def test_rank_deficient_q_updates_are_counted(monkeypatch):
    """diag.q_fallbacks counts each Q update whose least squares `update_Q`
    reports rank-deficient; the flag is forced on every other update, and
    it changes nothing else in the solve."""
    rng = np.random.default_rng(2)
    A = rng.standard_normal((4, 4)) * 1.5
    opts = BcdOptions(max_time_s=30.0, max_outer_iters=4)
    plain = solve_general(np.eye(4), A, rg.schur(), opts)
    flags = []

    def flagging_update_Q(*args):
        Q, _ = update_Q(*args)
        flags.append(len(flags) % 2 == 0)
        return Q, flags[-1]

    monkeypatch.setattr(bcd, "update_Q", flagging_update_Q)
    diag = BcdDiagnostics()
    res = solve_general(np.eye(4), A, rg.schur(), opts, diagnostics=diag)
    assert len(flags) >= 4 and sum(flags) >= 2
    assert diag.q_fallbacks == sum(flags)
    assert (res.iterations, res.objective) == (plain.iterations, plain.objective)


def test_final_pair_verification():
    rng = np.random.default_rng(3)
    n = 4
    A = rng.standard_normal((n, n)) * 1.5
    E = np.eye(n)
    res = solve_general(E, A, rg.schur(),
                        BcdOptions(max_time_s=30.0, max_outer_iters=15))
    assert res.admissible
    rep = res.admissibility.spectrum
    assert rep.is_regular and rep.is_impulse_free
    assert res.admissibility.margins.min() >= -1e-6
    # independent re-check of the flag
    assert admissibility_check(res.pair, rg.schur(), margin_tol=1e-6).admissible


def test_grcar_disk_subproblems_converge_inside_the_stage_cap(monkeypatch):
    """Every barrier stage of the paper's Grcar(10,1) disk solve centers
    before MAX_NEWTON_PER_STAGE, so every subproblem converges."""
    solutions = []

    def recording(*args, **kwargs):
        solutions.append(sdp.solve_subproblem(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(bcd, "solve_subproblem", recording)
    pair = grcar(10, 1)
    solve_general(pair.E, pair.A, rg.schur(),
                  BcdOptions(max_outer_iters=20, max_time_s=120.0))
    assert solutions
    assert all(sol.converged for sol in solutions)
    assert max(max(sol.stage_newton) for sol in solutions) < sdp.MAX_NEWTON_PER_STAGE


def test_warm_barrier_starts_at_the_last_sweep_decrease(monkeypatch):
    """Each warm subproblem starts its barrier at t = nu / |last decrease|
    or, where the warm start is more central there, at a larger t, so it
    skips the stages a larger gap guess would add: Grcar(6,1) in the unit
    disk takes 36 Newton steps over 8 sweeps (59 with every warm barrier
    started at nu / |last decrease|, 82 then with the final stage centered
    to 1e-9 rather than ended on a dual certificate, 103 then with
    intermediate stages centered to 1e-4, 97 then with every sweep solved
    to eps_k, and 126 then with four times the decrease)."""
    steps = []

    def counting(*args, **kwargs):
        sol = sdp.solve_subproblem(*args, **kwargs)
        steps.append(sol.barrier_iterations)
        return sol

    monkeypatch.setattr(bcd, "solve_subproblem", counting)
    pair = grcar(6, 1)
    res = solve_general(pair.E, pair.A, rg.schur(),
                        BcdOptions(max_outer_iters=8, max_time_s=120.0))
    assert res.iterations == 8
    assert sum(steps) <= 43
    assert res.admissible


# one (T, J, R) update of a sweep, as `_observed_sweeps` sees it: the
# objectives at the base before and after the Q update, at the warm start
# and at the subproblem's point (all at the new Q), and the accuracy asked for
_Update = namedtuple("_Update", "q_before q_after warm solved accuracy")


def _observed_sweeps(monkeypatch, E, A, region, opts):
    """Solve with `bcd.update_Q` and `bcd.solve_subproblem` wrapped: (result,
    diagnostics, sweeps), sweeps[k - 1] the `_Update`s of sweep k, the
    extrapolated one and its restart if any. Objectives come from the
    oracle `_fgm_objective`.

    The iterate after an update is the better of its warm start and the
    subproblem's point; from the iterates so kept the walk rebuilds each
    base, X + beta (X - X_prev) with beta = (k - 1) / (k + 2), or X itself
    for a restart, and checks that `update_Q` and the subproblem's warm
    starts saw exactly that base and X. A sweep whose extrapolated update
    ends above the last sweep's objective is restarted, and diag.restarts
    counts it before the restart's update runs."""
    diag = BcdDiagnostics()
    q_calls, sp_calls = [], []

    def recording_update_Q(*args):
        out = update_Q(*args)
        q_calls.append((np.stack(args[2:5]), out[0]))
        return out

    def recording_solve_subproblem(sp, Q, init=None, **kwargs):
        sol = sdp.solve_subproblem(sp, Q, init, **kwargs)
        sp_calls.append((Q, init, kwargs["accuracy"], sol, diag.restarts))
        return sol

    monkeypatch.setattr(bcd, "update_Q", recording_update_Q)
    monkeypatch.setattr(bcd, "solve_subproblem", recording_solve_subproblem)
    res = solve_general(E, A, region, opts, diagnostics=diag)

    def f(X):
        return _fgm_objective(E, A, X, opts.mu)

    Q, init, _, sol, _ = sp_calls[0]  # the cold start
    assert init is None
    X = prev = np.stack([sol.T, sol.J, sol.R, Q])
    fX, restarts = f(X), 0
    calls, q_updates = iter(sp_calls[1:]), iter(q_calls)
    sweeps = []
    for k in range(1, res.iterations + 1):
        base = X + (k - 1.0) / (k + 2.0) * (X - prev)
        updates = []
        while True:
            Q, init, accuracy, sol, seen_restarts = next(calls)
            tjr, Qn = next(q_updates)
            assert np.array_equal(init[1], X[:3]), "not the better point of the last update"
            assert np.array_equal(init[0], base[:3]) and np.array_equal(tjr, base[:3])
            assert Qn is Q and seen_restarts == restarts
            warm = np.stack([*sol.start, Q])
            point = np.stack([sol.T, sol.J, sol.R, Q])
            u = _Update(f(base), f(np.stack([*base[:3], Q])), f(warm), f(point), accuracy)
            updates.append(u)
            Xn, fn = (warm, u.warm) if u.solved > u.warm else (point, u.solved)
            if k == 1 or len(updates) == 2 or fn <= fX:
                break
            base, restarts = X, restarts + 1
        prev, X, fX = X, Xn, fn
        sweeps.append(updates)
    assert next(calls, None) is None and next(q_updates, None) is None
    assert restarts == diag.restarts
    return res, diag, sweeps


def test_late_sweeps_are_solved_to_a_fraction_of_the_last_decrease(monkeypatch):
    """Sweep 1 is solved to eps_1, and sweep k >= 2 and its restart to
    max(eps_k, ACCURACY_KAPPA |last decrease|), as the subproblem calls
    show. The stall still reads eps_k: the Grcar(10,1) disk still stops on
    "objective stall", after 14 sweeps (13 while a subproblem's point was
    taken where it was above its warm start, 14 before the most-central
    barrier start)."""
    pair = grcar(10, 1)
    opts = BcdOptions(max_outer_iters=20, max_time_s=120.0)
    res, diag, sweeps = _observed_sweeps(monkeypatch, pair.E, pair.A, rg.schur(), opts)
    assert (res.iterations, res.stop_reason) == (14, "objective stall")
    f = res.trace[0][1]  # the objective after the cold start
    scale = 1.0 + f
    restarts = looser = 0
    for k, updates in enumerate(sweeps, start=1):
        accuracies = [u.accuracy for u in updates]
        eps_k = max(bcd.EPS_FLOOR, bcd.EPS_INIT * bcd.EPS_DECAY ** (-k)) * scale
        wanted = eps_k if k == 1 else max(eps_k, bcd.ACCURACY_KAPPA * abs(decrease))
        assert accuracies == pytest.approx([wanted] * len(accuracies), rel=1e-9)
        restarts += len(accuracies) - 1
        looser += accuracies[0] > eps_k
        fn = min(updates[-1].warm, updates[-1].solved)
        decrease, f = f - fn, fn
    assert restarts == diag.restarts
    assert looser  # some sweep is solved looser than eps_k, or this shows nothing


def test_no_sweep_raises_the_objective_on_the_grcar_disk(monkeypatch):
    """A (T, J, R) update keeps its warm start where the subproblem returns
    above it, so on the Grcar(10,1) disk the objective each sweep ends on,
    not only the best so far, never rises (taking the subproblem's point
    there, sweep 2 rose from 2.7832217 to 2.7837850). Each sweep's objective
    is then the best so far, which the trace records from the iterate
    itself (the last row is the closing one): that confirms the objectives
    the wrappers saw."""
    pair = grcar(10, 1)
    res, _, sweeps = _observed_sweeps(monkeypatch, pair.E, pair.A, rg.schur(),
                                      BcdOptions(max_outer_iters=20, max_time_s=120.0))
    objectives = [res.trace[0][1]] + [min(s[-1].warm, s[-1].solved) for s in sweeps]
    assert all(b <= a for a, b in zip(objectives, objectives[1:]))
    assert [row[1] for row in res.trace[:-1]] == pytest.approx(objectives, rel=1e-12)


def test_grcar_disk_stop_survives_one_ulp_of_A():
    """The stall stop on the paper's Grcar(10,1) disk does not hang on
    rounding: moving A[1,0] or A[2,1] up by one ulp gives the same sweep
    count and stop reason as A itself."""
    pair = grcar(10, 1)
    inputs = [pair.A]
    for i in (1, 2):
        nudged = pair.A.copy()
        nudged[i, i - 1] = np.nextafter(nudged[i, i - 1], np.inf)
        inputs.append(nudged)
    opts = BcdOptions(max_outer_iters=20, max_time_s=120.0)
    stops = {(res.iterations, res.stop_reason)
             for res in (solve_general(pair.E, A, rg.schur(), opts) for A in inputs)}
    assert len(stops) == 1
    assert stops.pop()[1] == "objective stall"


def test_iterations_count_the_sweeps_that_ran_on_every_exit():
    # the trace has the start row, one row per sweep and the closing row
    pair = grcar(10, 1)
    for stop, opts in (("objective stall", BcdOptions(max_outer_iters=20, max_time_s=120.0)),
                       ("iteration budget", BcdOptions(max_outer_iters=2, max_time_s=120.0)),
                       ("time budget", BcdOptions(max_time_s=0.0))):
        res = solve_general(pair.E, pair.A, rg.schur(), opts)
        assert res.stop_reason == stop
        assert res.iterations == len(res.trace) - 2


_DISK_SOLVE = """
from omegapair import regions as rg
from omegapair.bcd import BcdOptions, solve_general
from omegapair.bench import grcar
pair = grcar(10, 1)
res = solve_general(pair.E, pair.A, rg.schur(), BcdOptions(max_outer_iters=20, max_time_s=120.0))
print(res.iterations, res.stop_reason)
"""


def test_grcar_disk_stop_does_not_depend_on_blas_threads():
    """The same disk solve with one and with two OpenBLAS threads stops
    after the same number of sweeps for the same reason."""
    src = str(pathlib.Path(omegapair.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", _DISK_SOLVE], env=env, capture_output=True,
                             text=True, timeout=300, check=True)
        outputs.append(run.stdout.strip())
    assert outputs[0] == outputs[1]
    assert outputs[0].endswith("objective stall")


_ILL_CONDITIONED_Q_SOLVE = """
from omegapair import bcd, regions as rg
from omegapair.bcd import BcdOptions, solve_general
from omegapair.bench import grcar
bcd.STALL_OUTER = 10**6
pair = grcar(10, 2)
res = solve_general(pair.E, pair.A, rg.hurwitz(), BcdOptions(max_outer_iters=241))
print(type(res).__name__, res.iterations, res.stop_reason)
"""


def test_ill_conditioned_q_does_not_end_bcd_in_an_exception():
    """Grcar(10,2) on hurwitz() drives Q to cond(Q) near 5e8 by sweep 241,
    where dx'(H_f dx) computed from the Gram matrix H_f came out negative
    along a Newton direction and the line search raised `math domain
    error` on one BLAS thread. With the curvature formed from (dJ - dR) Q
    and dT Q the 241 sweeps return a result."""
    src = str(pathlib.Path(omegapair.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", _ILL_CONDITIONED_Q_SOLVE], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["SolveResult", "241", "iteration", "budget"]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_ill_conditioned_q_through_the_cli_ends_without_a_traceback(tmp_path, threads):
    """The same repro as `omegapair solve --algo bcd` on the left
    half-plane, on one and on two BLAS threads: 241 sweeps drive cond(Q)
    near 5e8, where f's gradient is formed from the residuals at every
    Newton step, and the run ends in a result (exit 0, or 2 for a flagged
    one), never in a traceback."""
    pair = grcar(10, 2)
    (tmp_path / "p.json").write_text(json.dumps({"E": pair.E.tolist(), "A": pair.A.tolist()}))
    (tmp_path / "r.json").write_text(json.dumps({"kind": "left_half_plane", "k": 0}))
    src = str(pathlib.Path(omegapair.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-m", "omegapair.cli", "solve",
                          "--pair", str(tmp_path / "p.json"), "--region", str(tmp_path / "r.json"),
                          "--algo", "bcd", "--max-iters", "241", "--time", "120",
                          "--out", str(tmp_path / "out")],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode in (0, 2), run.stderr
    assert "Traceback" not in run.stderr


def test_left_half_plane_region_forces_psd_R():
    rng = np.random.default_rng(4)
    n = 3
    A = rng.standard_normal((n, n))
    res = solve_general(np.eye(n), A,
                        rg.from_primitive(rg.disk(-2.0, 1.0)),
                        BcdOptions(max_time_s=20.0, max_outer_iters=6))
    assert np.linalg.eigvalsh(res.dh.R)[0] >= -1e-9


@pytest.mark.parametrize("region", [rg.from_primitive(rg.disk(-1.0, 0.5)), rg.hurwitz()],
                         ids=["disk", "hurwitz"])
def test_one_by_one_pair_is_solved(region):
    res = solve_general(np.eye(1), np.array([[0.7]]), region,
                        BcdOptions(max_time_s=20.0, max_outer_iters=20))
    assert res.admissible
    assert res.relative_error < 1.0


def test_fixed_blocks_baseline_mode():
    rng = np.random.default_rng(5)
    n = 4
    A = rng.standard_normal((n, n)) * 1.5
    E = np.eye(n)
    base = solve_general(E, A, rg.schur(),
                         BcdOptions(max_time_s=20.0, max_outer_iters=6,
                                    fix_T=np.eye(n), fix_Q=np.eye(n)))
    np.testing.assert_allclose(base.pair.E, np.eye(n))
    full = solve_general(E, A, rg.schur(),
                         BcdOptions(max_time_s=30.0, max_outer_iters=10))
    assert full.objective <= base.objective + 1e-8


def test_hurwitz_agreement_with_fast_gradient():
    """Both solvers reach the same objective basin on the damped chain.

    Both run on work budgets (FGM stops itself near 1000 iterations, BCD
    on its stall rule near 50 sweeps); the time caps are safety caps only.
    """
    pair, _ = msd(10, 0.05)
    res_f = solve_hurwitz(pair.E, pair.A, FgmOptions(max_iters=5_000, max_time_s=30.0))
    res_b = solve_general(pair.E, pair.A, rg.hurwitz(),
                          BcdOptions(max_outer_iters=60, max_time_s=170.0))
    assert "time budget" not in (res_f.stop_reason, res_b.stop_reason)
    assert res_b.objective <= 1.05 * res_f.objective
    assert res_f.objective <= 1.05 * res_b.objective
