"""Projected fast gradient method for the half-plane nearness problem.

Minimizes  ||A - (J - R) Q||_F^2 + mu ||E - T Q||_F^2  over symmetric PSD
T and R, skew-symmetric J and unrestricted Q. The feasible set for the
open left half-plane needs only PSD cone projections, so an accelerated
projected gradient with a restart safeguard applies: extrapolated
gradient steps with a backtracking line search, momentum dropped and the
step halved whenever the objective fails to decrease.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass

import numpy as np

from .dh import DhParam, project_psd, skew as skew_part, sym as sym_part
from .regions import hurwitz
from .result import SolveResult, _objective_value, finalize_solution, relative_error

__all__ = ["FgmOptions", "objective", "gradient", "project", "solve_hurwitz",
           "estimate_lipschitz"]


@dataclass
class FgmOptions:
    mu: float = 1.0
    max_time_s: float = 30.0
    max_iters: int | None = None
    init_step: float | None = None     # default 1 / L with L from power iteration
    ls_shrink: float = 2.0             # backtracking factor
    ls_grow: float = 2.0               # step growth at the start of each iteration
    ls_max: int = 20
    alpha0: float = 0.5                # momentum seed
    stall_window: int = 3000
    stall_rel_tol: float = 1e-11
    grad_tol: float = 0.0              # absolute projected-gradient stop, 0 disables
    trace_every: int = 25
    seed: int = 0                      # power-iteration start

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        if self.ls_shrink <= 1.0 or self.ls_grow < 1.0:
            raise ValueError("line-search factors must satisfy shrink > 1, grow >= 1")
        if not 0.0 < self.alpha0 < 1.0:
            raise ValueError("alpha0 must be in (0, 1)")


def objective(E, A, d: DhParam, mu=1.0) -> float:
    """||A - (J - R) Q||_F^2 + mu ||E - T Q||_F^2."""
    return _objective_value(E, A, d.T, d.J, d.R, d.Q, mu)


def gradient(E, A, d: DhParam, mu=1.0):
    """Structured gradient (dT, dJ, dR, dQ) of the objective.

    The T and R blocks are symmetric, the J block skew-symmetric, matching
    directional derivatives along the structured subspaces.
    """
    res_a = (d.J - d.R) @ d.Q - A
    res_e = d.T @ d.Q - E
    GA = res_a @ d.Q.T
    gT = 2.0 * mu * sym_part(res_e @ d.Q.T)
    gJ = 2.0 * skew_part(GA)
    gR = -2.0 * sym_part(GA)
    gQ = 2.0 * (d.J - d.R).T @ res_a + 2.0 * mu * d.T.T @ res_e
    return gT, gJ, gR, gQ


def project(T, J, R, Q) -> DhParam:
    """Project onto the feasible set: T, R onto the PSD cone, J onto skew."""
    return DhParam(project_psd(T), skew_part(J), project_psd(R), Q)


def estimate_lipschitz(E, A, d: DhParam, mu=1.0, iters=25, seed=0):
    """Power iteration on the Gauss-Newton curvature operator at d.

    The operator maps a structured direction to the derivative of the two
    residuals; twice its largest singular value squared bounds the local
    curvature of the objective and seeds the step size 1 / L.
    """
    rng = np.random.default_rng(seed)
    n = d.n
    JR = d.J - d.R
    dT = sym_part(rng.standard_normal((n, n)))
    dJ = skew_part(rng.standard_normal((n, n)))
    dR = sym_part(rng.standard_normal((n, n)))
    dQ = rng.standard_normal((n, n))
    lam = 1.0
    for _ in range(iters):
        norm = np.sqrt(sum(np.sum(M * M) for M in (dT, dJ, dR, dQ)))
        if norm == 0.0:
            break
        dT, dJ, dR, dQ = dT / norm, dJ / norm, dR / norm, dQ / norm
        ra = (dJ - dR) @ d.Q + JR @ dQ
        re = dT @ d.Q + d.T @ dQ
        nT = mu * sym_part(re @ d.Q.T)
        nJ = skew_part(ra @ d.Q.T)
        nR = -sym_part(ra @ d.Q.T)
        nQ = JR.T @ ra + mu * d.T.T @ re
        lam = sum(np.sum(a * b) for a, b in
                  ((nT, dT), (nJ, dJ), (nR, dR), (nQ, dQ)))
        dT, dJ, dR, dQ = nT, nJ, nR, nQ
    return max(2.0 * abs(lam), 1e-12)


def initial_quadruple(E, A):
    """Q = I with the best (T, J, R) for that Q: PSD-clipped E, the skew
    part of A, and the PSD-clipped negated symmetric part of A."""
    n = E.shape[0]
    return DhParam(project_psd(E), skew_part(A), project_psd(-sym_part(A)), np.eye(n))


def solve_hurwitz(E, A, opts: FgmOptions | None = None) -> SolveResult:
    """Nearest pair with all finite eigenvalues in the open left half-plane.

    Runs the accelerated projected gradient from the standard starting
    point until the time or iteration budget runs out or the best
    objective stalls, then realizes the best quadruple, checks
    admissibility, and applies the dissipation shift if that check fails
    with a singular R.
    """
    opts = opts if opts is not None else FgmOptions()
    E = np.asarray(E, dtype=float)
    A = np.asarray(A, dtype=float)
    mu = opts.mu
    t0 = _time.perf_counter()

    X = initial_quadruple(E, A)
    fX = objective(E, A, X, mu)
    L = (1.0 / opts.init_step if opts.init_step is not None
         else estimate_lipschitz(E, A, X, mu, seed=opts.seed))
    step = 1.0 / L
    step_accept = step

    def rel_of(d):
        return relative_error(E, A, d.T @ d.Q, (d.J - d.R) @ d.Q)

    best = X
    fbest = fX
    trace = [(0.0, fbest, rel_of(best))]
    Y = X
    alpha = opts.alpha0
    fail_streak = 0
    it = 0
    stall_anchor = (0, fbest)
    max_iters = opts.max_iters if opts.max_iters is not None else np.inf
    stop_reason = "iteration budget"

    while it < max_iters:
        if _time.perf_counter() - t0 >= opts.max_time_s:
            stop_reason = "time budget"
            break
        gT, gJ, gR, gQ = gradient(E, A, Y, mu)
        if opts.grad_tol > 0.0:
            gnorm = np.sqrt(sum(np.sum(g * g) for g in (gT, gJ, gR, gQ)))
            if gnorm <= opts.grad_tol:
                stop_reason = "gradient norm"
                break
        step *= opts.ls_grow
        accepted = None
        ls_budget = 100 if it == 0 else opts.ls_max
        for _ in range(ls_budget):
            cand = project(Y.T - step * gT, Y.J - step * gJ,
                           Y.R - step * gR, Y.Q - step * gQ)
            fc = objective(E, A, cand, mu)
            if not np.isfinite(fc):
                raise FloatingPointError(
                    "objective overflowed during line search; the problem data "
                    "may be badly scaled")
            if fc < fX:
                accepted = (cand, fc)
                break
            step /= opts.ls_shrink

        if accepted is None:
            fail_streak += 1
            if fail_streak >= 3:
                stop_reason = "converged (no descent after restarts)"
                break
            # drop momentum and retry from the last iterate; first with half
            # the last working step, then from a fresh curvature estimate
            Y = X
            alpha = opts.alpha0
            if fail_streak == 1:
                step = step_accept / 2.0
            else:
                step = 1.0 / estimate_lipschitz(E, A, X, mu, seed=opts.seed)
        else:
            fail_streak = 0
            step_accept = step
            Xn, fXn = accepted
            alpha_next = (np.sqrt(alpha ** 4 + 4 * alpha ** 2) - alpha ** 2) / 2.0
            beta = alpha * (1.0 - alpha) / (alpha ** 2 + alpha_next)
            Y = DhParam(Xn.T + beta * (Xn.T - X.T), Xn.J + beta * (Xn.J - X.J),
                        Xn.R + beta * (Xn.R - X.R), Xn.Q + beta * (Xn.Q - X.Q))
            X, fX = Xn, fXn
            alpha = alpha_next
            if fX < fbest:
                best, fbest = X, fX

        it += 1
        if it % opts.trace_every == 0:
            trace.append((_time.perf_counter() - t0, fbest, rel_of(best)))
        anchor_it, anchor_f = stall_anchor
        if it - anchor_it >= opts.stall_window:
            if anchor_f - fbest <= opts.stall_rel_tol * (1.0 + abs(anchor_f)):
                stop_reason = "objective stall"
                break
            stall_anchor = (it, fbest)

    d, pair, obj, rel, verdict, shifted = finalize_solution(
        E, A, best, hurwitz(), mu)
    # the trace stays the optimization's best-so-far sequence; the boundary
    # repair (when applied) only affects the returned objective
    trace.append((_time.perf_counter() - t0, fbest, rel_of(best)))
    return SolveResult(dh=d, pair=pair, objective=obj, relative_error=rel,
                       iterations=it, admissible=verdict.admissible,
                       admissibility=verdict, trace=trace, algorithm="fgm",
                       mu=mu, converged="budget" not in stop_reason,
                       shifted=shifted, stop_reason=stop_reason)
