"""Extrapolated block coordinate descent for general LMI regions.

Alternates an exact least-squares update of Q with the convex
interior-point subproblem over (T, J, R), with joint momentum on all four
blocks and a monotone safeguard that redoes an iteration without momentum
whenever the objective would increase. A (T, J, R) update keeps its warm
start where the subproblem returns above it, so that it never raises the
objective, as inexact block coordinate descent needs (Tseng and Yun, Math.
Program. 117, 2009). The subproblem keeps the dissipation R PSD when the
region sits in the closed left half-plane, which makes the final pair
certifiably admissible; otherwise R is only symmetric and admissibility
is verified on the realized pair.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass

import numpy as np

from .dh import DhParam
from .regions import LmiRegion
from .result import (SolveResult, _check_options, _check_pair, _fit, _objective_value,
                     finalize_solution)
from .sdp import ConvexSubproblem, solve_subproblem

__all__ = ["BcdOptions", "BcdDiagnostics", "update_Q", "solve_general"]

# Sweep k >= 2 solves its subproblem to a duality gap of
# max(eps_k, ACCURACY_KAPPA |last sweep's decrease|), not eps_k alone: a
# subproblem need not be solved far below the progress a sweep makes
# (inexact block coordinate descent: Tseng and Yun, Math. Program. 117,
# 2009; Bonettini, IMA J. Numer. Anal. 31, 2011). A warm subproblem starts
# its barrier at t = nu / |decrease| or above and grows it x10 per stage,
# so 0.1 gives at most two stages where eps_k alone gave up to seven late
# in a solve.
ACCURACY_KAPPA = 0.1

# The cold start is solved to a gap of EPS_INIT (1 + ||A||^2 + mu ||E||^2),
# and sweep k to eps_k = max(EPS_FLOOR, EPS_INIT EPS_DECAY^-k) scale, scale
# 1 + f after the cold start, or from the second sweep on to
# ACCURACY_KAPPA |last decrease| when that is larger. The solve stops on
# "objective stall" when the best objective fell by at most eps_k over the
# last STALL_OUTER sweeps.
EPS_INIT = 1e-2
EPS_DECAY = 4.0
EPS_FLOOR = 1e-8
STALL_OUTER = 5


@dataclass
class BcdOptions:
    mu: float = 1.0
    max_time_s: float = 100.0
    max_outer_iters: int | None = None
    fix_T: np.ndarray | None = None   # freeze the E-side (baseline mode)
    fix_Q: np.ndarray | None = None   # disable the Q update

    def __post_init__(self):
        _check_options(self.mu, self.max_time_s, "max_outer_iters", self.max_outer_iters)


@dataclass
class BcdDiagnostics:
    """Counts of one solve: Q updates whose least squares was rank-deficient,
    and sweeps redone without momentum."""

    q_fallbacks: int = 0
    restarts: int = 0


def update_Q(E, A, T, J, R, mu=1.0):
    """Exact minimizer of the objective over Q, all else fixed.

    Solves the stacked least squares [J - R; sqrt(mu) T] Q ~ [A; sqrt(mu) E]
    by the SVD (`np.linalg.lstsq`), which returns the minimum-norm
    minimizer, pinv(M) b, when the operator M is rank-deficient. Returns
    (Q, rank_deficient), the flag counted as a Q fallback.
    """
    root = np.sqrt(mu)
    M = np.vstack([J - R, root * T])
    b = np.vstack([A, root * E])
    Q, _, rank, _ = np.linalg.lstsq(M, b, rcond=None)
    return Q, bool(rank < E.shape[0])


def solve_general(E, A, region: LmiRegion, opts: BcdOptions | None = None,
                  diagnostics: BcdDiagnostics | None = None) -> SolveResult:
    """Nearest pair with all finite eigenvalues inside the given region.

    Any (B, C) region works. Returns the best iterate found within the
    budget; the realized pair is always re-verified and flagged when the
    verification fails.
    """
    opts = opts if opts is not None else BcdOptions()
    diag = diagnostics if diagnostics is not None else BcdDiagnostics()
    E, A = _check_pair(E, A)
    EA = np.stack([E, A])
    n = E.shape[0]
    mu = opts.mu

    sp = ConvexSubproblem(E, A, mu, region, fixed_T=opts.fix_T)

    t_start = _time.perf_counter()

    def elapsed():
        return _time.perf_counter() - t_start

    Q = np.eye(n) if opts.fix_Q is None else np.asarray(opts.fix_Q, dtype=float)
    scale0 = 1.0 + float(np.sum(A * A) + mu * np.sum(E * E))
    sol = solve_subproblem(sp, Q, accuracy=EPS_INIT * scale0)
    # the iterate X, the previous iterate and the best point are (4, n, n)
    # stacks [T, J, R, Q], none written in place once bound
    X = prev = best = np.stack([sol.T, sol.J, sol.R, Q])
    f = fbest = sol.objective
    scale = 1.0 + f
    trace = [(elapsed(), *_fit(EA, best, mu))]
    k = 1
    stop_reason = "time budget"
    max_outer = opts.max_outer_iters if opts.max_outer_iters is not None else np.inf
    last_solve_time = 0.0

    def half_step(base, accuracy, gap_guess):
        """One [Q update; (T, J, R) update] sweep from the stack `base`:
        (the kept stack, its objective)."""
        if opts.fix_Q is None:
            Qn, fell_back = update_Q(E, A, *base[:3], mu)
            diag.q_fallbacks += fell_back
        else:
            Qn = base[3]
        # warm-started from the base where it is strictly feasible, else
        # from the current (T, J, R)
        soln = solve_subproblem(sp, Qn, init=[base[:3], X[:3]], accuracy=accuracy,
                                gap0=gap_guess)
        f_warm = _objective_value(EA, (*soln.start, Qn), mu)
        if soln.objective > f_warm:
            # the strictly feasible warm start is as near the optimum as the
            # certified point, f_warm < f(soln) <= p* + gap: keep it, so that
            # the sweep keeps its descent and the safeguard does not restart it
            return np.stack([*soln.start, Qn]), f_warm
        return np.stack([soln.T, soln.J, soln.R, Qn]), soln.objective

    last_decrease = f
    while k <= max_outer:
        if elapsed() + 1.2 * last_solve_time >= opts.max_time_s:
            break
        t_iter = _time.perf_counter()
        eps_k = max(EPS_FLOOR, EPS_INIT * EPS_DECAY ** (-k)) * scale
        # the warm start is about one sweep's decrease from the optimum: start
        # the barrier at t = nu / |decrease| (Boyd and Vandenberghe, sec. 11.3)
        gap_guess = max(10.0 * eps_k, abs(last_decrease))
        # the first sweep's "decrease" is the start's objective: it keeps eps_k
        acc_k = eps_k if k == 1 else max(eps_k, ACCURACY_KAPPA * abs(last_decrease))
        beta = (k - 1.0) / (k + 2.0)
        Xn, fn = half_step(X + beta * (X - prev), acc_k, gap_guess)
        if fn > f and beta > 0.0:
            diag.restarts += 1
            Xn, fn = half_step(X, acc_k, gap_guess)
        prev, X = X, Xn
        last_decrease, f = f - fn, fn
        if f < fbest:
            best, fbest = X, f
        trace.append((elapsed(), *_fit(EA, best, mu)))
        last_solve_time = _time.perf_counter() - t_iter
        k += 1  # sweeps run: k - 1, whichever way the loop ends
        if len(trace) > STALL_OUTER:
            first = trace[-(STALL_OUTER + 1)][1]  # best objective then
            if first - fbest <= eps_k:
                stop_reason = "objective stall"
                break
    else:
        stop_reason = "iteration budget"

    # DhParam copies T, J and R when it symmetrizes them; copying Q too
    # keeps the result from holding the whole stack
    return finalize_solution(E, A, DhParam(*best[:3], best[3].copy()), region, mu,
                             algorithm="bcd", iterations=k - 1, stop_reason=stop_reason,
                             trace=trace, t0=t_start)
