"""Projected fast gradient method for the half-plane nearness problem.

Minimizes  ||A - (J - R) Q||_F^2 + mu ||E - T Q||_F^2  over symmetric PSD
T and R, skew-symmetric J and unrestricted Q. The feasible set for the
open left half-plane needs only PSD cone projections, so an accelerated
projected gradient with a restart safeguard applies: extrapolated
gradient steps with a backtracking line search, momentum dropped and the
step halved whenever the objective fails to decrease.

The line search grows the step only while grown steps succeed. A grown
first trial (a probe) costs one projection and one objective whenever it
is rejected, and a probe before every iteration was rejected in about
three iterations of four at n = 10 and in nearly all at n = 200 (2.01 and
2.02 trials per iteration on the benchmark). When an iteration rejects
its probe and accepts a smaller step, the next 1, 2, 4, ... iterations
keep their step, the wait doubling with each such probe in a row; an
accepted probe brings a probe back to every iteration (1.53 and 1.57
trials per iteration). A line search that finds no descent leaves the
wait alone. A fixed wait of 8, or growth only every K-th iteration, sent
Grcar(10,2) to a worse basin (about 28.7 % against 23.9 % at 20k
iterations): the probes that succeed decide which basin FGM reaches, so
they must come back as soon as one works.

The iterate, the extrapolated point and the gradient are each one stacked
(4, n, n) array [T, J, R, Q], so a line-search trial is one array update,
one projection of T and R, and one objective evaluation. The stacked
gradient and objective do the same floating-point operations as the
per-matrix ones (`tests/_oracles.py` keeps the per-matrix loop as the
reference).

The projection takes, for each of T and R, only the eigenpairs on the
short side of zero: T - V- diag(w-) V-^T when the negative eigenvalues are
few, V+ diag(w+) V+^T when the positive ones are, written over the
block as M + S S^T or S S^T with S = V sqrt|w| (see `_clip_psd`). The FGM
trial points are nearly one-sided (at Grcar(200,3), T has about 5
negative eigenvalues and R about 50 positive ones), so the subset driver
`dsyevx` computes a few pairs where a full decomposition computes n. When
the short side holds more than `SUBSET_FRACTION` n pairs, the block takes
one full `dsyevd` and is still rebuilt from its short side. The previous
trial's count picks the side; the first trial of a solve takes `dsyevd`,
which counts exactly.
The guess changes only the rounding, and it lives in the solve's
workspace, so a solve is deterministic.

Every stack the loop forms is exactly structured: T and R symmetric and J
skew to the last bit. The start is built with `sym` and `skew`, `project`
writes M + S S^T or S S^T, the gradient's blocks are formed as M + M^T and
M - M^T, and the extrapolation Y = X+ + beta (X+ - X) and the trial point
Y - step G are elementwise, where IEEE rounding treats x and -x alike. So
`project` needs no symmetrizing pass, on its input or on its output: it
projects T and R onto the PSD cone in place and leaves J and Q as they
are.

A solve allocates its arrays once, in a `_Workspace`: the constants
[E, A] and [2 mu, 2, -2], the gradient and one scratch set that
`gradient`, `objective` and `project` share, since they never run at
once. The loop still calls those three public functions, `gradient` once
per iteration and `project` and `objective` once per line-search trial,
so a tracer that wraps them times the same calls. The iterate, the
extrapolated point and the trial point are three (4, n, n) arrays that
trade roles: each trial point Y - step G is written into the trial array
and projected in place, an accepted one becomes the iterate, the next
extrapolated point is written over the old iterate, and the old
extrapolated point takes the next trials. A line search accepts only a
decrease, so the last iterate is the best one.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.linalg.lapack import dsyevd, dsyevx

from .dh import DhParam, project_psd, skew as skew_part, sym as sym_part
from .regions import hurwitz
from .result import (SolveResult, _check_options, _check_pair, _fit, _objective_value,
                     _residuals, finalize_solution)

__all__ = ["FgmOptions", "objective", "gradient", "project", "solve_hurwitz",
           "estimate_lipschitz"]


@dataclass
class FgmOptions:
    mu: float = 1.0
    max_time_s: float = 30.0
    max_iters: int | None = None
    trace_every: ClassVar[int] = 25    # record a trace row every this many iterations
    seed: int = 0                      # power-iteration start

    def __post_init__(self):
        _check_options(self.mu, self.max_time_s, "max_iters", self.max_iters)


# The backtracking line search: the step shrinks by LS_SHRINK per rejected
# trial, for at most LS_MAX trials, and grows by LS_GROW before an
# iteration's first trial except while the loop backs off after a rejected
# grown trial (see the module docstring). ALPHA0 seeds the momentum, at the
# start and after every restart.
LS_SHRINK = 2.0
LS_GROW = 2.0
LS_MAX = 20
ALPHA0 = 0.5

# Every STALL_WINDOW iterations the loop stops on "objective stall" when the
# objective fell by at most STALL_REL_TOL (1 + |f|) over that window, f its
# objective at the window's start.
STALL_WINDOW = 3000
STALL_REL_TOL = 1e-11

# Power-iteration steps of `estimate_lipschitz`.
LIPSCHITZ_ITERS = 25

# The largest short side, as a fraction of n (at least one pair), that
# `project` takes with the subset driver `dsyevx`. At n = 200 on one thread
# (2-CPU Xeon, OpenBLAS) a k-pair `dsyevx` took 1.4, 1.8, 3.3 and 6.5 ms
# for k = 1, 5, 20 and 50 against 4.4 ms for `dsyevd`; at n = 10 one pair
# took 13 us against 17 us.
SUBSET_FRACTION = 0.1

# Signs that turn M + s M^T into 2 sym(M), 2 skew(M), 2 sym(M) along (T, J, R).
_STRUCTURE_SIGNS = np.array([1.0, -1.0, 1.0])[:, None, None]


class _Workspace:
    """The arrays one solve reuses, allocated once as one block: the
    constants [E, A], the gradient's factors `scale` [2 mu, 2, -2] and
    their halves, one scratch set (P = [T, J - R] and the residuals `res`
    for `gradient` and `objective`, the (3, n, n) stack K for `gradient`
    and `project`; they never run at once) and the gradient G. `nonpos`
    holds the count of nonpositive eigenvalues of T and R at the last
    projection, None before the first, which picks the side the next
    projection takes."""

    def __init__(self, E, A, mu=1.0):
        n = E.shape[0]
        self.mu = mu
        self.scale = np.array([2.0 * mu, 2.0, -2.0])[:, None, None]
        self.half_scale = self.scale / 2.0
        block = np.empty((13, n, n))
        self.EA, self.P, self.res, self.K, self.G = np.split(block, [2, 4, 6, 9])
        self.EA[0] = E
        self.EA[1] = A
        self.nonpos = [None, None]


def objective(E, A, X, mu=1.0, work=None) -> float:
    """||A - (J - R) Q||_F^2 + mu ||E - T Q||_F^2 at X = [T, J, R, Q].

    `work` is a `_Workspace` built for (E, A, mu), fresh when omitted."""
    ws = work if work is not None else _Workspace(E, A, mu)
    return _objective_value(ws.EA, X, ws.mu, ws.P, ws.res)


def gradient(E, A, X, mu=1.0, work=None):
    """Structured gradient [dT, dJ, dR, dQ] of the objective at X = [T, J, R, Q].

    The T and R blocks are symmetric, the J block skew-symmetric, matching
    directional derivatives along the structured subspaces. The result is
    `work.G`, so the next call with the same `work` overwrites it.
    """
    ws = work if work is not None else _Workspace(E, A, mu)
    P, K, G = ws.P, ws.K, ws.G
    res = _residuals(ws.EA, X, P, ws.res)  # [T Q - E, (J - R) Q - A]
    np.matmul(res, X[3].T, out=K[:2])
    K[2] = K[1]                            # [res_e Q^T, res_a Q^T, res_a Q^T]
    # ((M + s M^T) / 2) c and (M + s M^T) (c / 2) round alike: halving is exact
    GS = np.multiply(K.mT, _STRUCTURE_SIGNS, out=G[:3])
    GS += K
    GS *= ws.half_scale
    P *= ws.scale[:2]                      # [2 mu T, 2 (J - R)]
    np.matmul(P.mT, res, out=K[:2])
    np.add(K[1], K[0], out=G[3])
    return G


def project(Z, work=None):
    """Project a structured Z = [T, J, R, Q] onto the feasible set in place
    and return it: T and R onto the PSD cone, each rebuilt from the
    eigenpairs on the short side of zero as an exactly symmetric matrix; J
    and Q unchanged. T and R must be exactly symmetric and J exactly skew,
    as every stack the FGM loop forms is. `work` lends scratch and the side
    guesses of the last call; without it both blocks take `dsyevd`.

    A T or R that is not finite is left as it is, so that no eigensolver
    sees it and the objective at Z reads as not finite. The test is one
    sum over T and R, and the entries one by one only where that sum is not
    finite: finite blocks whose sum overflows (NumPy warns of it) are still
    projected."""
    ws = work if work is not None else _Workspace(Z[3], Z[3])  # only its scratch is read
    if not math.isfinite(np.add.reduce(Z[::2], axis=None)) and not np.isfinite(Z[::2]).all():
        return Z
    nonpos = ws.nonpos
    for b in (0, 1):
        nonpos[b] = _clip_psd(Z[2 * b], nonpos[b], ws.K)
    return Z


def _clip_psd(M, guess, K):
    """Project the exactly symmetric M onto the PSD cone in place and
    return M's count of nonpositive eigenvalues. `guess`, that count at
    the last call or None, picks the short side; K is (3, n, n) scratch.

    With S = V sqrt|w| over the short side's pairs (V, w) the projection
    is M + S S^T on the negative side and S S^T on the positive one, so no
    symmetrizing pass follows. S S^T is exactly symmetric: one pair forms
    |w| (v_i v_j), and products commute; more pairs form `S @ S.T`, which
    NumPy (2.0 and later) computes with syrk and mirrors, where a general
    product does not round alike across the diagonal. A PSD M is left as
    it is."""
    n = M.shape[0]
    info = 1  # nonzero until dsyevx succeeds
    if guess is not None and min(guess, n - guess) <= max(1, int(SUBSET_FRACTION * n)):
        negative = 2 * guess <= n
        vl, vu = (-np.inf, 0.0) if negative else (0.0, np.inf)  # (vl, vu]
        # M.T is M in Fortran order; the wrapper copies it
        w, V, m, _, info = dsyevx(M.T, range="V", vl=vl, vu=vu)
        if info == 0:  # else some eigenvectors did not converge
            nonpos = m if negative else n - m
            w, V = w[:m], V[:, :m]
    if info != 0:
        np.copyto(K[0], M)
        w, V, info = dsyevd(K[0].T, overwrite_a=1)
        if info != 0:
            raise np.linalg.LinAlgError("eigenvalues did not converge")
        nonpos = int(np.searchsorted(w, 0.0, side="right"))
        negative = 2 * nonpos <= n
        w, V = (w[:nonpos], V[:, :nonpos]) if negative else (w[nonpos:], V[:, nonpos:])
    k = w.shape[0]
    if k == (0 if negative else n):  # no nonpositive eigenvalue: M is PSD
        return nonpos
    SS = K[2] if negative else M
    if k == 1:
        v = V[:, 0]
        np.multiply(v[:, None], v, out=SS)
        SS *= abs(w[0])
    else:
        S = np.multiply(V, np.sqrt(np.abs(w)), out=K[1][:, :k])
        np.matmul(S, S.T, out=SS)
    if negative:
        M += SS
    return nonpos


def estimate_lipschitz(E, A, X, mu=1.0, seed=0):
    """Power iteration on the Gauss-Newton curvature operator at X = [T, J, R, Q].

    The operator maps a structured direction to the derivative of the two
    residuals; twice its largest singular value squared bounds the local
    curvature of the objective and seeds the step size 1 / L. It runs
    LIPSCHITZ_ITERS steps from a random start drawn with `seed`.
    """
    rng = np.random.default_rng(seed)
    T, J, R, Q = X
    n = Q.shape[0]
    JR = J - R
    dT = sym_part(rng.standard_normal((n, n)))
    dJ = skew_part(rng.standard_normal((n, n)))
    dR = sym_part(rng.standard_normal((n, n)))
    dQ = rng.standard_normal((n, n))
    lam = 1.0
    for _ in range(LIPSCHITZ_ITERS):
        norm = np.sqrt(sum(np.sum(M * M) for M in (dT, dJ, dR, dQ)))
        if norm == 0.0:
            break
        dT, dJ, dR, dQ = dT / norm, dJ / norm, dR / norm, dQ / norm
        ra = (dJ - dR) @ Q + JR @ dQ
        re = dT @ Q + T @ dQ
        raQ = ra @ Q.T
        nT = mu * sym_part(re @ Q.T)
        nJ = skew_part(raQ)
        nR = -sym_part(raQ)
        nQ = JR.T @ ra + mu * T.T @ re
        lam = sum(np.sum(a * b) for a, b in
                  ((nT, dT), (nJ, dJ), (nR, dR), (nQ, dQ)))
        dT, dJ, dR, dQ = nT, nJ, nR, nQ
    return max(2.0 * abs(lam), 1e-12)


def initial_quadruple(E, A):
    """Q = I with the best (T, J, R) for that Q, as a stack [T, J, R, Q]:
    PSD-clipped E, the skew part of A, and the PSD-clipped negated
    symmetric part of A; T and R are symmetrized after the clipping, so
    that the loop starts exactly structured."""
    n = E.shape[0]
    return np.stack([sym_part(project_psd(E)), skew_part(A),
                     sym_part(project_psd(-sym_part(A))), np.eye(n)])


def solve_hurwitz(E, A, opts: FgmOptions | None = None) -> SolveResult:
    """Nearest pair with all finite eigenvalues in the open left half-plane.

    Runs the accelerated projected gradient from the standard starting
    point until the time or iteration budget runs out, the objective
    stalls or no descent step is found after restarts, then realizes and
    checks the best quadruple; a boundary optimum that fails the check
    comes back with T and R lifted to a definite floor when the lifted
    pair passes.
    """
    opts = opts if opts is not None else FgmOptions()
    E, A = _check_pair(E, A)
    t0 = _time.perf_counter()
    X, it, stop_reason, trace = _descend(E, A, opts, t0)
    # DhParam copies T, J and R when it symmetrizes them; copying Q too
    # keeps the result from holding the whole (4, n, n) stack
    return finalize_solution(E, A, DhParam(*X[:3], X[3].copy()), hurwitz(), opts.mu,
                             algorithm="fgm", iterations=it, stop_reason=stop_reason,
                             trace=trace, t0=t0)


def _descend(E, A, opts: FgmOptions, t0):
    """The iterations of `solve_hurwitz`: (last iterate, which is the best,
    iteration count, stop reason, trace). The workspace and the other two
    loop arrays are freed on return, before the finish allocates its own."""
    mu = opts.mu
    X = initial_quadruple(E, A)
    L = estimate_lipschitz(E, A, X, mu, seed=opts.seed)
    # allocated after the curvature estimate, so that its temporaries and
    # the workspace are not held at once
    work = _Workspace(E, A, mu)
    # the iterate X, the extrapolated point Y and the trial point C are three
    # separate (4, n, n) arrays that trade roles as the loop runs
    Y, C = X.copy(), np.empty_like(X)
    fX = objective(E, A, X, mu, work)
    step = 1.0 / L
    step_accept = step

    trace = [(0.0, *_fit(work.EA, X, mu))]
    alpha = ALPHA0
    fail_streak = 0
    skip = wait = 0    # iterations left without a probe; the wait that set them
    it = 0
    stall_anchor = (0, fX)
    max_iters = opts.max_iters if opts.max_iters is not None else np.inf
    stop_reason = "iteration budget"

    while it < max_iters:
        if _time.perf_counter() - t0 >= opts.max_time_s:
            stop_reason = "time budget"
            break
        G = gradient(E, A, Y, mu, work)
        probe = skip == 0
        if probe:
            step *= LS_GROW
        else:
            skip -= 1
        accepted = False
        for trial in range(LS_MAX):
            np.multiply(G, step, out=C)
            np.subtract(Y, C, out=C)
            project(C, work)
            fc = objective(E, A, C, mu, work)
            if not math.isfinite(fc):
                raise FloatingPointError(
                    "objective overflowed during line search; the problem data "
                    "may be badly scaled")
            if fc < fX:
                accepted = True
                break
            step /= LS_SHRINK

        if not accepted:
            fail_streak += 1
            if fail_streak >= 3:
                stop_reason = "converged (no descent after restarts)"
                break
            # drop momentum and retry from the last iterate; first with half
            # the last working step, then from a fresh curvature estimate
            np.copyto(Y, X)
            alpha = ALPHA0
            if fail_streak == 1:
                step = step_accept / 2.0
            else:
                step = 1.0 / estimate_lipschitz(E, A, X, mu, seed=opts.seed)
        else:
            if probe:
                wait = 0 if trial == 0 else max(1, 2 * wait)
                skip = wait
            fail_streak = 0
            step_accept = step
            alpha_next = (math.sqrt(alpha ** 4 + 4 * alpha ** 2) - alpha ** 2) / 2.0
            beta = alpha * (1.0 - alpha) / (alpha ** 2 + alpha_next)
            # Y+ = X+ + beta (X+ - X) goes where X was; the old Y takes the trials
            np.subtract(C, X, out=X)
            X *= beta
            X += C
            X, Y, C = C, X, Y
            fX = fc
            alpha = alpha_next

        it += 1
        if it % opts.trace_every == 0:
            trace.append((_time.perf_counter() - t0, *_fit(work.EA, X, mu)))
        anchor_it, anchor_f = stall_anchor
        if it - anchor_it >= STALL_WINDOW:
            if anchor_f - fX <= STALL_REL_TOL * (1.0 + abs(anchor_f)):
                stop_reason = "objective stall"
                break
            stall_anchor = (it, fX)

    return X, it, stop_reason, trace
