"""Log-barrier interior-point solver for the convex (T, J, R) subproblem.

For a fixed invertible Q the problem

    min  ||A - (J - R) Q||_F^2 + mu ||E - T Q||_F^2
    s.t. T >= 0,  R >= 0 when the region lies in the closed left
         half-plane (or there is none),  and the region LMI
         -(B (x) T + (C-C^T) (x) J - (C+C^T) (x) R) > delta_lmi I,

is a convex quadratic over the symmetric/skew/symmetric triple (T, J, R)
with affine semidefinite constraints. It is solved by path-following:
Newton steps on  psi(x) = t*f(x) - sum_b logdet(G_b(x))  with the barrier
parameter t increased by a fixed factor until the duality-gap bound
nu / t drops below the requested accuracy eps. The last stage is chosen
by comparing t with t_final = nu / eps (rounded up one ulp if nu / t_final
would exceed eps): a t at or above t_final, or within a relative
FINAL_STAGE_SNAP below it, is run as the last stage at t_final, which
pays for no gap tighter than eps where a x10 growth overshoots it.
A warm start at nu / (10 eps) thus takes two stages whichever way the
x10 growth rounds, where a test of nu / t <= eps would take a third stage
when the growth lands one ulp short.

The first stage runs where the start point x is most nearly central, or
at t_final where that is within reach. The caller's estimate gap0 of a
warm start's suboptimality (f(x) by default, and always from the default
start) gives t0 = nu / max(gap0, eps), at most t_final. K0 = t0 H_f +
H_phi is factored at x once and solved for y_f = K0^-1 gf and y_phi =
K0^-1 g_phi (gf and g_phi the gradients of f and of the barrier). The t
minimizing ||t gf + g_phi|| in the K0^-1 norm, the Newton decrement of
psi at x measured in the metric of t0, is t* = -gf.y_phi / gf.y_f, and
the solve starts at t = max(t0, min(t*, t_final)): gap0 is the floor of
the start, and t0 is kept where there is no positive minimizer (gf.y_f
<= 0 or gf.y_phi >= 0). Where t_final <= r t the solve starts at t_final
instead, its only stage ending on the dual certificate below, with the
reach r = COLD_REACH = BARRIER_GROWTH^2 from the default start and r =
WARM_REACH = BARRIER_GROWTH / 2 from a warm one; where that holds at t0
already, K0 is not formed. Otherwise FINAL_STAGE_SNAP decides whether
the start is already the last stage, so a warm start near its optimum
begins there. A start that stays at t0 takes its first Newton direction
from K0's factor; only a start that rises pays a factorization at its t.

The default start is `initial_point`'s, the candidate with the largest
block margin, well inside every block; Boyd and Vandenberghe (sec.
11.3.3) observe that the total Newton count of a barrier solve changes
little for growth factors from about 10 up to 100. COLD_REACH is two x10
growths, the factor by which a stage that runs short before any stage
ended centered falls back (below). BCD's cold subproblem, asked for
`bcd.EPS_INIT` = 1 % of the data scale, sits at t_final / t of 72 to 100
on `bcd-regions`: its three cold solves take 4, 5 and 11 Newton steps in
one stage where three stages took [3, 4, 3], [5, 3, 4] and [3, 4, 4].
The reach is needed: started at its t_final, 4.7e11 times its t0, the
5 x 5 no-region solve to 1e-10 of acceptance criterion 7 meets its
certificate 0.65 off the closed-form projections. A warm start is the
previous solve's point, near the boundary of the tight blocks, where
long steps are cut short (Gondzio and Grothey, SIAM J. Optim. 13, 2003),
so it jumps only within half a growth. From the second sweep on, BCD's
warm subproblems have t_final = 10 t0 exactly (gap0 = max(10 eps_k,
|decrease|) against accuracy max(eps_k, `bcd.ACCURACY_KAPPA`
|decrease|), ACCURACY_KAPPA = 0.1), so one whose t* does not rise keeps
its two stages: started at t_final, the composite full solve of
`bcd-regions` takes 168 Newton steps, 60 of them in one stage. The late
warm starts on the disk, whose t* is 1.4 to 4.2 below t_final, begin in
their last stage. A `bcd-regions` pass (disk, composite full, frozen-E)
takes 35 + 48 + 22 = 105 Newton steps, and the MSD(10, 0.05) `hurwitz()`
BCD solve of the test suite 289.

An intermediate stage ends once lambda^2 / 2 = -g.dx / 2 is at most
STAGE_CENTERING, lambda being the Newton decrement of psi at x. It only
hands the next stage its start, and approximate centering is enough (Boyd
and Vandenberghe, Convex Optimization, sec. 11.3). psi is self-concordant
(f is a convex quadratic, the barrier a sum of -logdet), so lambda is
affine invariant and means the same at every t, and at lambda < 1 the
full Newton step stays inside the Dikin ellipsoid, hence interior
(Nesterov and Nemirovski, 1994). After the x10 growth the next stage's
first decrement is at most 9 sqrt(nu) + 10 lambda (the gradient becomes
10 g - 9 g_phi, and the Hessian only grows), so centering below lambda = 1
saves that stage little. STAGE_CENTERING is therefore 1/2 (lambda <= 1).

A stage that spends MAX_NEWTON_PER_STAGE steps short of its end does not
raise t. Before any stage has ended centered, t is too large for x (a
gap guess far below the warm start's suboptimality), and it falls by
BARRIER_GROWTH^2, though not below nu / f(x) (f >= 0 bounds the gap by
f(x)): an overshoot costs a growth stage of a few steps, an undershoot
another stage of MAX_NEWTON_PER_STAGE. Afterwards the next stage runs at
the same t, and a final stage short of its certificate ends the solve
unconverged.

The final stage ends on a dual certificate that every Newton step yields,
not on centering. Write G_b(x) = G0_b + A_b(x), A_b linear with adjoint
A_b*, W_b = G_b(x)^-1 and dG_b = A_b(dx) along the Newton direction dx.
The barrier's gradient is -sum A_b*(W_b) and its Hessian maps dx to
sum A_b*(W_b dG_b W_b), so, f being quadratic, the Newton equation
t (gf + H_f dx) = -(g_phi + H_phi dx) reads

    grad f(x + dx) = sum_b A_b*(Z_b),   Z_b = (W_b - W_b dG_b W_b) / t.

With L_b L_b^T = G_b(x) and the step matrix M_b = L_b^-1 dG_b L_b^-T,
whose eigenvalues mu the line search computes anyway,
Z_b = L_b^-T (I - M_b) L_b^-1 / t and G_b(x + dx) = L_b (I + M_b) L_b^T.
Where max |mu| < 1, each Z_b is positive definite and x + dx strictly
interior; x + dx minimizes the Lagrangian f - sum <Z_b, G_b> over x, so
weak duality bounds its gap to the optimum p*:

    f(x + dx) - p* <= sum_b <Z_b, G_b(x + dx)>
                    = sum_b tr((I - M_b)(I + M_b)) / t = (nu - sum mu^2) / t.

The final stage thus ends at its first direction with max |mu| < 1 and
(nu - sum mu^2) / t <= eps, returning x + dx once `_barrier` confirms it
interior (where rounding breaks that, the line search goes on). At
t >= nu / eps the bound meets eps whenever max |mu| < 1, and since
sum mu^2 = dx'H_phi dx <= lambda^2 that holds from lambda < 1 on at the
latest (Boyd and Vandenberghe, sec. 11.2.2). `converged` means the
certificate was met: `gap_estimate` is then its bound and `multipliers`
its Z_b; an unconverged solve reports nu / t and no multipliers.

Each Newton direction dx is followed by an exact line search. With
L_b L_b^T = G_b(x) and mu the eigenvalues of L_b^-1 dG_b L_b^-T over all
blocks (dG_b the change of G_b along dx),

    psi(x + s dx) - psi(x) = t (s gf.dx + s^2/2 dx'H_f dx) - sum log(1 + s mu),

because f is quadratic. The step s minimizes this scalar function on
[0, 0.99 s_max], s_max = 1 / max(-mu) being where the first block turns
singular, by Newton's method in 1 / (s_max - s), where the merit's
derivative is concave (`_line_step`); the blocks are factored once, at
the accepted point. The curvature dx'H_f dx is formed as 2 f(dx) with
zero data, 2 (||(dJ - dR) Q||_F^2 + mu ||dT Q||_F^2) (dT = 0 for a frozen
T), by the objective's own routine, nonnegative by construction;
dx'(H_f dx) computed from the Gram matrix H_f is not once cond(Q)^2
passes 1 / machine eps. A second derivative
that rounding still leaves nonpositive ends the search where it is.

A point's state, the Cholesky factors of its block values G_b and the
gradient of f, is formed from x itself by one routine, wherever the solve
takes a point: each warm-start candidate in turn, then the default start;
each step the line search accepts; and the certificate's x + dx. A point
where a block does not factor is outside the interior: a candidate start is
passed over, a step halved and a certificate not taken. The returned point
is thus always one whose G_b were formed from it and factored. Every
eigenvalues-only decomposition (mu, and `ConvexSubproblem.margins`) calls
LAPACK `dsyevd` without eigenvectors directly, as the factorizations below
call their routines.

The variables are x = (svec T, svec J, svec R): the upper triangle of
each matrix, off-diagonal entries scaled by sqrt(2) (the strict upper
triangle for the skew J), so that x.y is the Frobenius inner product of
the matrices. They form a table of groups (no T when it is frozen), each
a slice of x with its sign. A constraint block is held as its Kronecker
terms: G = G0 + sum_g M_g (x) smat(x_g), with M_g = [1] in the T >= 0 and
R >= 0 blocks and -B, C^T - C and C + C^T in a region part (a zero M_g is
left out).

x reaches the solver through two linear maps, both of one compiled kind
(`_value_gather`): x -> G_b, and x -> (T, J, R), which is the same
construction over three pseudo-blocks [1] (x) T, [1] (x) J and [1] (x) R,
a frozen T being the first one's G0 (`ConvexSubproblem.tjr`; the barrier
sees only the real blocks). A gather holds where each entry of each
block's linear part reads x: one (k, N) array of indices into x extended
by a zero slot, and the matching coefficients M_g[a, c] coef_g[i, j], the
N entries of all blocks end to end, k at most the number of groups.
Entry (a n + i, c n + j) of a block sums its terms in x order, each term
that does not reach it read as the zero slot (as is the diagonal of the
skew J), never as 0 times a live entry of x. A map's value at x is then
one gather, one multiply-sum and one add of the G0 (`values`, `split`),
and its change along dx the same without the G0 (`change`, and the
split's linear part in `_Objective.curvature`), with no Python loop over
blocks or terms. The adjoint of a linear part, W -> [sum_b <W_b,
A_b(e_i)>]_i, is one weighted `np.bincount` over the same indices and
coefficients (`_adjoint`), and serves three callers. `pack` is the
split's adjoint at (T, J, R), which inverts `split` on symmetric T and R
and skew J since the coordinates are orthonormal. f's gradient is the
split's adjoint at [2 mu M_e, 2 M_a, -2 M_a], [M_e, M_a] = [T Q - E,
(J - R) Q - A] Q^T, one stacked product of the residuals
(`_Objective.grad`). The barrier gradient is -A*(W), W every G_b^-1
written end to end like the block values.

The barrier Hessian on the group pair (g, h) is H_ij = sum_ac
tr((U_g)_ac S_i (U_h)_ca S_j), O(s^2 n^4) work per pair, with W = G^-1 in
s x s blocks of size n x n, U_g = W (M_g (x) I) and S_i the svec basis.
`ConvexSubproblem` compiles once where these sums read, as its barrier plan:
each block writes its U_g, by one einsum over its stacked M_g, into one
stack U of n x n sub-blocks, and the plan holds the indices in U of each
group pair's (U_g)_ac and (U_h)_ca over all blocks. Per point, a group
pair's Hessian block is one gather of each side and one call of
`_trace_pairs`. It gathers the columns of U_x (the second half negated
for a skew S_i) and the rows of V_x, each straight into a contiguous
stack, and forms every (U_x S_i V_x)^T as one batched product that reads
the rows' stack transposed, so no operand is reordered by a copy. It
then scales the k x k result by the svec weights c_i0 c_j0 in one
multiply by their outer product, cached for the four sign pairs of one n.

The Newton system (t H_f + H_phi) dx = -g is formed in one m x m buffer
per `solve_subproblem` call and factored there in place by LAPACK
`dpotrf` (`_newton_factor`), then solved by `dpotrs` (`_newton_solve`);
the factor is kept until x or t moves. Each block is factored by `dpotrf`
too, a nonzero `info` meaning the point is outside the interior. A
Newton system that is not numerically positive definite is formed again,
since the failed `dpotrf` has overwritten the buffer, and shifted by
1e-12 (1 + tr / m) on its diagonal before the second factorization. A
direction that is not finite raises ValueError.

A `ConvexSubproblem` states the data, the region and a frozen T, works
out from them its LMI margin delta_lmi, the region's real section and
whether R must be PSD, and compiles its constraint blocks once, none of
which depends on Q; `solve_subproblem` takes Q per call,
so one subproblem serves every Q update of a BCD solve. It always has a
block: R >= 0 without a region, a region block otherwise.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dsyevd, dtrtri

from .regions import LmiRegion, connected_blocks, real_section
from .result import _objective_value, _residuals

__all__ = [
    "ConvexSubproblem",
    "SubproblemSolution",
    "InfeasibleStartError",
    "initial_point",
    "solve_subproblem",
]

BARRIER_GROWTH = 10.0
STAGE_CENTERING = 0.5  # lambda^2 / 2 ending an intermediate stage: lambda <= 1
MAX_NEWTON_PER_STAGE = 60
MAX_TOTAL_NEWTON = 4000
MAX_LINE_NEWTON = 50  # scalar Newton steps per line search
FINAL_STAGE_SNAP = 1e-6  # relative distance below nu / eps taken as the last stage
COLD_REACH = BARRIER_GROWTH ** 2  # t_final / t at most this: the default start jumps there
WARM_REACH = BARRIER_GROWTH / 2.0  # the same for a warm start


class InfeasibleStartError(RuntimeError):
    """No strictly feasible starting point was found."""


# ---------------------------------------------------------------------------
# svec coordinates of the symmetric (sign +1) and skew (sign -1) matrices:
# basis matrix S_i is c[i, 0] e_u e_v^T + c[i, 1] e_v e_u^T for (u, v) = uv[i]
# in the upper triangle (with the diagonal for sign +1), at the flat indices
# `upper` and, mirrored, `lower`; entry e of smat(x) is coef[e] * x[at[e]]

_ROOT_HALF = 1.0 / math.sqrt(2.0)
_SvecIndex = namedtuple("_SvecIndex", "upper lower uv c at coef")


@functools.cache
def _svec_index(n, sign):
    u, v = np.triu_indices(n, 0 if sign > 0 else 1)
    w = np.where(u == v, 0.5, _ROOT_HALF)
    upper, lower = u * n + v, v * n + u
    at, coef = np.zeros(n * n, dtype=np.intp), np.zeros(n * n)
    at[upper] = at[lower] = np.arange(len(u))
    coef[lower] = sign * _ROOT_HALF
    coef[upper] = np.where(u == v, 1.0, _ROOT_HALF)  # last, so the diagonal reads 1
    return _SvecIndex(upper, lower, np.stack([u, v], 1), np.stack([w, sign * w], 1), at, coef)


@functools.cache
def _skew_pick(n):
    """`uv` of the skew basis with v shifted by n, for a gather from the
    columns of U stacked on those of -U."""
    return _svec_index(n, -1).uv + (0, n)


@functools.lru_cache(maxsize=4)  # the four sign pairs of one n
def _svec_weights(n, si, sj):
    """[c_i0 c_j0]_ij over the svec bases of signs si and sj: one multiply
    of the same shape, where a row and a column scaling are two
    broadcasts, each slower than it. Read-only, as every caller shares it."""
    w = np.outer(_svec_index(n, si).c[:, 0], _svec_index(n, sj).c[:, 0])
    w.flags.writeable = False
    return w


# ---------------------------------------------------------------------------
# Problem statement and compiled form


@dataclass
class SubproblemSolution:
    """A `solve_subproblem` result. When `converged`, `gap_estimate` bounds
    objective - optimum by the final Newton step's dual certificate
    (nu - sum mu^2) / t <= accuracy, and `multipliers` holds its Z_b >= 0,
    one per constraint block in `ConvexSubproblem.blocks` order, with
    grad f = sum_b A_b*(Z_b) at the returned point (module docstring).
    Otherwise `gap_estimate` is nu / t of the last barrier parameter, no
    bound, and `multipliers` is empty."""

    T: np.ndarray
    J: np.ndarray
    R: np.ndarray
    objective: float
    barrier_iterations: int
    gap_estimate: float
    converged: bool
    stage_objectives: list
    initial_point_used: bool
    stage_newton: list  # Newton steps per barrier stage
    multipliers: list
    start: tuple  # the (T, J, R) the solve started from


# a free variable group: its slice of x and sign (+1 sym, -1 skew)
_Group = namedtuple("_Group", "sl sign")


def _trace_pairs(U, V, si, sj):
    """[sum_x tr(U_x S_i V_x S_j)]_ij over the svec bases S_i of sign si and
    S_j of sign sj, for two stacks (or two matrices) U and V of n x n."""
    n = U.shape[-1]
    U, V = U.reshape(-1, n, n), V.reshape(-1, n, n)
    ix, jx = _svec_index(n, si), _svec_index(n, sj)
    # S_i = c_i0 (e_u e_v^T + si e_v e_u^T), so (U_x S_i V_x)^T / c_i0 is
    # V_x[v]^T U_x[:, u]^T + si V_x[u]^T U_x[:, v]^T: one batch over i of
    # products over the two terms t and x. Both operands are gathered
    # straight into contiguous (k, 2X, n) stacks, and the product reads the
    # rows' stack transposed, which BLAS does by a flag: no reordering copy
    k, w = len(ix.uv), 2 * len(U)  # a 1 x 1 skew part has k = 0: no -1 to infer
    cols, pick = U.transpose(2, 0, 1), ix.uv  # cols[c, x, p] = U_x[p, c]
    if si < 0:  # the t = 1 half from -U, a copy about n / 2 times smaller than `right`
        cols, plain = np.empty((2 * n, len(U), n)), cols
        cols[:n] = plain
        np.negative(cols[:n], out=cols[n:])
        pick = _skew_pick(n)
    right = cols.take(pick, axis=0)  # [i, t, x, p] = U_x[p, (u, v)_t], times si for t = 1
    left = V.transpose(1, 0, 2).take(ix.uv[:, ::-1], axis=0).reshape(k, w, n)  # [i, (t, x), s]
    SVU = np.matmul(left.mT, right.reshape(k, w, n)).reshape(k, n * n)
    # tr(X S_j) = c_j0 (X^T[u, v] + sj X^T[v, u]), formed in place after the
    # operands are freed: a higher peak can take the free top of glibc's heap
    # past twice its largest recent block (the m x m Hessian), so that it is
    # returned to the system and every page faults again in the next call.
    # One n = 20 composite Hessian peaks at 2.01 times its size; a copy that
    # reorders the rows takes it to 2.12, and 1433 faults a call
    del cols, left, right
    H = SVU.take(jx.upper, axis=1)
    (np.add if sj > 0 else np.subtract)(H, SVU.take(jx.lower, axis=1), out=H)
    H *= _svec_weights(n, si, sj)
    return H


# One affine semidefinite constraint G(x) = G0 + sum_g M_g (x) smat(x_g) >= 0,
# held as its terms, (group, M_g) pairs in x order, M_g nonzero. With
# W = G^-1 and U_g = W (M_g (x) I) in s x s blocks (U_g)_ac of size n x n,
# -logdet G has the gradient -A*(W), A* the adjoint of G's linear part, and
# the Hessian H_ij = sum_ac tr((U_g)_ac S_i (U_h)_ca S_j) on (g, h).
_Block = namedtuple("_Block", "G0 terms")


# how `ConvexSubproblem` forms the values of its blocks, or of (T, J, R), from x,
# all blocks end to end in one flat array (see `_value_gather`): `spans` the
# (start, stop, d_b) of each block's d_b x d_b entries in it, row-major
_ValueGather = namedtuple("_ValueGather", "at coef G0 spans")


def _value_gather(blocks, n, m):
    """The `_ValueGather` of the blocks over an x of length m. Entry
    (a n + i, c n + j) of a block's linear part sum_g M_g (x) smat(x_g)
    is sum_r coef[r] x[at[r]], with `at` a (k, N) array of indices into x
    extended by a zero slot at m and `coef` the matching (k, N) array of
    M_g[a, c] coef_g[i n + j]: row r holds each entry's r-th term that
    reaches it, in x order, k being the most any entry has, and an entry
    with fewer reads the zero slot, never 0 times a live entry of x."""
    spans, size = [], 0
    for b in blocks:
        d = len(b.G0)
        spans.append((size, size + d * d, d))
        size += d * d
    rows = max((len(b.terms) for b in blocks), default=0)
    at, coef = np.zeros((rows, size), dtype=np.intp), np.zeros((rows, size))
    for b, (start, stop, _) in zip(blocks, spans):
        for r, (g, M) in enumerate(b.terms):
            ix = _svec_index(n, g.sign)
            coef[r, start:stop] = (M[:, None, :, None] * ix.coef.reshape(n, 1, n)).ravel()
            at[r, start:stop] = np.tile(g.sl.start + ix.at.reshape(n, n), M.shape).ravel()
    # each entry's live terms moved up to the first rows, in x order
    live = coef != 0.0
    r, e = np.nonzero(live)
    row = np.cumsum(live, axis=0)[r, e] - 1
    k = int(live.sum(0).max(initial=0))
    gather = _ValueGather(np.full((k, size), m, dtype=np.intp), np.zeros((k, size)),
                          np.concatenate([np.zeros(0)] + [b.G0.ravel() for b in blocks]), spans)
    gather.at[row, e], gather.coef[row, e] = at[r, e], coef[r, e]
    return gather


_ZERO_SLOT = np.zeros(1)  # appended to x for `_linear`'s gather


def _linear(gather, x):
    """The linear part of the gather's blocks at x, flat."""
    v = np.concatenate((x, _ZERO_SLOT)).take(gather.at)
    v *= gather.coef
    return v.sum(0)


def _adjoint(gather, W, m):
    """The adjoint of `_linear` at W, flat like the blocks, over an x of
    length m: <W, _linear(gather, y)> = _adjoint(gather, W, m).y."""
    return np.bincount(gather.at.ravel(), (gather.coef * np.ravel(W)).ravel(),
                       minlength=m + 1)[:m]


# where `_barrier_grad_hess` reads the sub-blocks it needs from U, the
# (size, n, n) stack of every block's (U_g)_ac in the order [block, term, a, c]:
# `stacks` the offset in U and the stacked (terms, s, s) M_g of each block,
# `pairs` each group pair's (U_g)_ac and (U_h)_ca over all blocks having both
_BarrierPlan = namedtuple("_BarrierPlan", "size stacks pairs")


def _barrier_plan(blocks, groups, n):
    """The `_BarrierPlan` of the blocks over the groups, given in x order."""
    stacks, index, size = [], [], 0
    for b in blocks:
        s = len(b.G0) // n
        Ms = np.array([M for _, M in b.terms]).reshape(-1, s, s)  # (0, s, s) with no terms
        t = len(Ms)
        stacks.append((size, Ms))
        # by group id: the s x s array of U indices of (U_g)_ac
        ac = size + np.arange(Ms.size).reshape(t, s, s)
        index.append({id(g): ac[i] for i, (g, _) in enumerate(b.terms)})
        size += Ms.size
    pairs = []
    for i, gi in enumerate(groups):
        for gh in groups[i:]:
            both = [(ix[id(gi)], ix[id(gh)]) for ix in index if id(gi) in ix and id(gh) in ix]
            if both:
                pairs.append((gi, gh, np.concatenate([a.ravel() for a, _ in both]),
                              np.concatenate([c.T.ravel() for _, c in both])))
    return _BarrierPlan(size, stacks, pairs)


@dataclass
class ConvexSubproblem:
    """The (T, J, R) subproblem of every Q: data, weight, region and an
    optional frozen T, and what follows from these, compiled once since it
    does not depend on Q; `solve_subproblem` takes Q per call.

    `require_R_psd`: R >= 0 is a constraint exactly when there is no region
    or it lies in the closed left half-plane, where a PSD R certifies the
    pair admissible (the dissipative-Hamiltonian characterization).
    `delta_lmi`, the margin of the region LMI, is 1e-6 (1 + ||A||_F).
    `section` is the region's real section (`regions.real_section`, the
    whole real line without a region). `groups` are the free variable
    groups by name in x order: T (unless frozen), J and R, m entries of x
    in all; `blocks` the constraint blocks, nu their total size; `plan`
    the blocks' `_BarrierPlan`; `gather` their `_ValueGather`: block
    values are one flat array, the blocks end to end, each a matrix in
    `views`; and `tjr` the `_ValueGather` of (T, J, R) as three
    pseudo-blocks [1] (x) X, a frozen T being its G0, which the barrier
    does not see.
    """

    E: np.ndarray
    A: np.ndarray
    mu: float = 1.0
    region: LmiRegion | None = None
    fixed_T: np.ndarray | None = None  # when set, T is held constant

    def __post_init__(self):
        self.E = np.asarray(self.E, dtype=float)
        self.A = np.asarray(self.A, dtype=float)
        if self.fixed_T is not None:
            self.fixed_T = np.asarray(self.fixed_T, dtype=float)
        n = self.n = self.E.shape[0]
        region, fixed_T = self.region, self.fixed_T
        self.section = (-math.inf, math.inf) if region is None else real_section(region)
        # a region lies in the closed left half-plane iff its section is empty
        # or ends at or below 0
        self.require_R_psd = region is None or self.section is None or self.section[1] <= 0.0
        self.delta_lmi = 1e-6 * (1.0 + np.linalg.norm(self.A, "fro"))
        self.groups, self.m = {}, 0
        for name in ("JR" if fixed_T is not None else "TJR"):
            sign = -1 if name == "J" else 1
            k = n * (n + sign) // 2
            self.groups[name] = _Group(slice(self.m, self.m + k), sign)
            self.m += k

        psd = ("T", "R") if self.require_R_psd else ("T",)
        blocks = [_Block(np.zeros((n, n)), [(self.groups[k], np.ones((1, 1)))])
                  for k in psd if k in self.groups]
        if region is not None:
            # one barrier block per connected diagonal block of (B, C), the same
            # barrier as the whole region's at a fraction of the Cholesky cost:
            # -(B (x) T + (C-C^T) (x) J - (C+C^T) (x) R) - delta I >= 0
            for part in connected_blocks(region):
                B, C = part.B, part.C
                G0 = -self.delta_lmi * np.eye(B.shape[0] * n)
                if fixed_T is not None:
                    G0 = np.kron(-B, fixed_T) + G0
                terms = (("T", -B), ("J", C.T - C), ("R", C + C.T))
                blocks.append(_Block(G0, [(self.groups[k], M) for k, M in terms
                                          if k in self.groups and np.any(M)]))
        self.blocks = blocks
        self.nu = sum(len(b.G0) for b in blocks)
        self.plan = _barrier_plan(blocks, list(self.groups.values()), n)
        self.gather = _value_gather(blocks, n, self.m)
        # (T, J, R) as three pseudo-blocks [1] (x) X, a frozen T the first one's G0
        self.tjr = _value_gather([_Block(np.zeros((n, n)), [(self.groups[k], np.ones((1, 1)))])
                                  if k in self.groups else _Block(fixed_T, []) for k in "TJR"],
                                 n, self.m)

    def split(self, x):
        """(T, J, R) at x as one (3, n, n) array; a frozen T is its fixed
        value. Along a direction dx, (dT, dJ, dR) is `_linear(tjr, dx)`."""
        TJR = _linear(self.tjr, x)
        TJR += self.tjr.G0
        return TJR.reshape(3, self.n, self.n)

    def pack(self, T, J, R):
        """The x of symmetric T and R and skew J, `split`'s inverse: the
        adjoint of its linear part at (T, J, R); a frozen T drops out."""
        return _adjoint(self.tjr, np.stack([T, J, R]), self.m)

    def change(self, dx):
        """The change dG_b of every block value along dx, all blocks end to
        end in one flat array: the blocks' linear parts at dx."""
        return _linear(self.gather, dx)

    def values(self, x):
        """The block values G_b(x), formed from x, in one flat array."""
        G = _linear(self.gather, x)
        G += self.gather.G0
        return G

    def views(self, G):
        """Each block's d_b x d_b matrix in the flat array G of all blocks."""
        return [G[start:stop].reshape(d, d) for start, stop, d in self.gather.spans]

    def margins(self, x):
        return [float(_eigenvalues(G)[0]) for G in self.views(self.values(x))]


class _Objective:
    """f(x) = ||A - (J-R) Q||_F^2 + mu ||E - T Q||_F^2 in svec coordinates."""

    def __init__(self, sp: ConvexSubproblem, Q):
        self.sp = sp
        self.Q = Q
        self.EA = np.stack([sp.E, sp.A])
        self.P, self.res = np.empty_like(self.EA), np.empty_like(self.EA)  # `_residuals` scratch
        self.zero = np.zeros_like(self.EA)  # the data of `curvature`
        # `grad` takes these rows of [M_e, M_a] and weights them
        self.rows = np.array([0, 1, 1])
        self.weights = np.array([2.0 * sp.mu, 2.0, -2.0])[:, None, None]
        # <S_i Q, S_j Q> = sign_i tr(Q Q^T S_i S_j): the trace pairs of U = Q Q^T, V = I
        QQ = Q @ Q.T
        gram = {(si, sj): si * _trace_pairs(QQ, np.eye(sp.n), si, sj)
                for si, sj in ((1, 1), (-1, -1), (-1, 1))}
        weight = {"T": sp.mu, "J": 1.0, "R": 1.0}
        H = np.zeros((sp.m, sp.m))
        for k, g in sp.groups.items():
            H[g.sl, g.sl] = 2.0 * weight[k] * gram[g.sign, g.sign]
        iJ, iR = sp.groups["J"].sl, sp.groups["R"].sl
        H[iJ, iR] = -2.0 * gram[-1, 1]
        H[iR, iJ] = H[iJ, iR].T
        self.H = H

    def value(self, x):
        return _objective_value(self.EA, (*self.sp.split(x), self.Q), self.sp.mu)

    def grad(self, x):
        """f's gradient at x: the split's adjoint at [2 mu M_e, 2 M_a, -2 M_a],
        [M_e, M_a] = [T Q - E, (J - R) Q - A] Q^T (module docstring)."""
        res = _residuals(self.EA, (*self.sp.split(x), self.Q), self.P, self.res)
        M = (res @ self.Q.T).take(self.rows, axis=0)
        M *= self.weights
        return _adjoint(self.sp.tjr, M, self.sp.m)

    def curvature(self, dx):
        """dx'H_f dx as 2 f(dx) with zero data, 2 (||(dJ - dR) Q||_F^2 +
        mu ||dT Q||_F^2), which is nonnegative however ill-conditioned Q is:
        the computed dx'(H_f dx) is not once cond(Q)^2 passes 1 / machine eps."""
        dTJR = _linear(self.sp.tjr, dx).reshape(3, self.sp.n, self.sp.n)
        return 2.0 * _objective_value(self.zero, (*dTJR, self.Q), self.sp.mu, self.P, self.res)


def _eigenvalues(M):
    """The eigenvalues of the symmetric matrix M in ascending order, from
    its lower triangle by LAPACK `dsyevd` without eigenvectors; M is
    overwritten."""
    # M.T is M in the Fortran order LAPACK reads, its upper triangle M's lower
    w, _, info = dsyevd(M.T, compute_v=0, lower=0, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError("eigenvalues did not converge")
    return w


def _barrier(sp, G):
    """The Cholesky factor of every block value G_b in the flat array G of
    the subproblem `sp`, or None when one is not positive definite (the
    point is outside the interior)."""
    factors = []
    for Gb in sp.views(G):
        L, info = dpotrf(Gb, lower=1)
        if info != 0:
            return None
        factors.append(L)
    return factors


def _barrier_grad_hess(sp, factors):
    """Gradient and Hessian of -sum logdet G_b over the blocks of the
    subproblem `sp`, and the inverses of the blocks' Cholesky factors,
    at the interior point whose block values have the Cholesky factors
    `factors`, as `_barrier` returns them.
    """
    plan, n = sp.plan, sp.n
    H, U, inverses = np.zeros((sp.m, sp.m)), np.empty((plan.size, n, n)), []
    W = np.empty(len(sp.gather.G0))  # every G_b^-1, end to end like the values
    for L, (at, Ms), Wb in zip(factors, plan.stacks, sp.views(W)):
        Li, _ = dtrtri(L, lower=1)  # L's diagonal is positive: no info to check
        inverses.append(Li)
        np.matmul(Li.T, Li, out=Wb)
        t, s = Ms.shape[:2]
        np.einsum("apbq,tbc->tacpq", Wb.reshape(s, n, s, n), Ms,
                  out=U[at:at + Ms.size].reshape(t, s, s, n, n))
    g = -_adjoint(sp.gather, W, sp.m)
    for gi, gh, left, right in plan.pairs:
        Hgh = _trace_pairs(U[left], U[right], gi.sign, gh.sign)
        H[gi.sl, gh.sl] = Hgh
        if gh is not gi:  # the mirror block, (h, g)
            H[gh.sl, gi.sl] = Hgh.T
    return g, H, inverses


def _step_spectrum(sp, inverses, dx):
    """Eigenvalues mu of the step matrices L_b^-1 dG_b L_b^-T over all
    blocks of the subproblem `sp`, and the dG_b, the change of each G_b
    along dx, flat (L_b^-1 the block's inverse factor at x).

    G_b(x + s dx) = L_b (I + s L_b^-1 dG_b L_b^-T) L_b^T, so the barrier
    changes by -sum log(1 + s mu) and x + s dx stays interior exactly for
    s < 1 / max(-mu).
    """
    dG = sp.change(dx)
    mu = np.concatenate([_eigenvalues(Li @ dGb @ Li.T)
                         for Li, dGb in zip(inverses, sp.views(dG))])
    return mu, dG


def _multipliers(inverses, dG, t):
    """The dual point Z_b = (G_b^-1 - G_b^-1 dG_b G_b^-1) / t of the Newton
    step at barrier parameter t, one per block, from the step's dG_b:
    L_b^-T (I - M_b) L_b^-1 / t with M_b = L_b^-1 dG_b L_b^-T, symmetrized."""
    Z = [Li.T @ (np.eye(len(Li)) - Li @ dGb @ Li.T) @ Li for Li, dGb in zip(inverses, dG)]
    return [(Zb + Zb.T) / (2.0 * t) for Zb in Z]


def _line_slopes(s, t, slope_f, curv_f, mu):
    """The first and second derivative in s of the line merit
    psi(x + s dx) - psi(x) = t (s slope_f + s^2 curv_f / 2) - sum log(1 + s mu)
    for psi = t f - sum logdet G_b, from slope_f = gf.dx, curv_f = dx'H_f dx
    and the step spectrum mu."""
    w = mu / (1.0 + s * mu)
    return t * (slope_f + s * curv_f) - float(w.sum()), t * curv_f + float(w @ w)


def _line_step(t, slope_f, curv_f, mu):
    """The minimizer of the line merit over s in [0, 0.99 s_max].

    Newton's method on the merit's derivative phi'(s) in the variable
    v = 1 / (s_max - s) (in s itself where no mu is negative). phi' is
    increasing and, in v, concave: the worst block's log term contributes
    v itself, and every other log term and the quadratic a concave
    increasing function of v. Started left of the root, at s = 0 along a
    descent direction (t slope_f - sum mu < 0), the iterates rise to it
    monotonically and converge quadratically, with no damping to keep them
    interior: in s the step is -d1 / (d2 - d1 / (s_max - s)), which never
    reaches s_max. The search ends at a scalar Newton decrement
    |d1| / sqrt(d2) below 1e-6, the merit then within about 1e-12 of its
    minimum, or at the cap. A derivative that rounding leaves nonnegative,
    or a second derivative that is not positive (convexity lost to
    rounding), ends it where it is.
    """
    worst = float(mu.min())
    s_max = 1.0 / -worst if worst < 0.0 else math.inf
    cap, s = 0.99 * s_max, 0.0
    for _ in range(MAX_LINE_NEWTON):
        d1, d2 = _line_slopes(s, t, slope_f, curv_f, mu)
        if not (d2 > 0.0 and d1 < 0.0) or d1 * d1 < 1e-12 * d2:
            break
        s_next = min(s - d1 / (d2 - d1 / (s_max - s)), cap)
        if s_next == s:
            break
        s = s_next
    return s


def _newton_factor(buf, t, Hf, Hphi):
    """The Cholesky factor of the Newton matrix t Hf + Hphi, formed and
    factored in the m x m buffer `buf`, which it overwrites.

    A matrix that is not numerically positive definite is formed again
    (a failed `dpotrf` leaves `buf` part factored) and shifted by
    1e-12 (1 + tr / m) on the diagonal.
    """
    m = len(buf)
    for shifted in (False, True):
        np.multiply(Hf, t, out=buf)
        buf += Hphi
        if shifted:
            buf.flat[::m + 1] += 1e-12 * (1.0 + np.trace(buf) / m)
        # buf.T is the symmetric matrix in the Fortran order that LAPACK
        # factors in place, without a copy
        L, info = dpotrf(buf.T, lower=1, clean=0, overwrite_a=1)
        if info == 0:
            return L
    raise np.linalg.LinAlgError("the SDP Newton system is not positive definite")


def _newton_solve(L, rhs):
    """The solution y of (t Hf + Hphi) y = rhs from its factor L, for one
    right-hand side or the columns of several; a non-finite solution raises
    ValueError."""
    y, _ = dpotrs(L, rhs, lower=1)
    if not np.isfinite(y).all():
        raise ValueError("the SDP Newton system has infs or NaNs")
    return y


def initial_point(sp: ConvexSubproblem):
    """A strictly feasible (T, J, R), by scalar search R = rho I at T = I.

    At (I, 0, rho I) the region LMI reads B - rho (C + C^T) < 0, so rho
    ranges over the region's real section negated (cut at 0 when R must
    be PSD). Candidates from that interval are tried and the one
    maximizing the worst block margin is returned. Raises
    InfeasibleStartError when the interval is empty (for instance, an
    empty region).
    """
    n, section = sp.n, sp.section
    if section is None:
        raise InfeasibleStartError("the region is empty: no real x has "
                                   "B + x (C + C^T) negative definite")
    lo, hi = -section[1], -section[0]
    if sp.require_R_psd:
        lo = max(lo, 0.0)
    if lo >= hi:
        raise InfeasibleStartError(
            f"no scalar dissipation level is feasible (interval [{lo:.3g}, {hi:.3g}] "
            "is empty); a PSD R needs a region that meets the open left half-plane")

    if math.isinf(lo) and math.isinf(hi):  # R is free: a PSD R has lo >= 0
        candidates = [0.0, 1.0]
    elif math.isinf(hi):
        step = max(1.0, abs(lo))
        candidates = [lo + step * f for f in (0.5, 1.0, 4.0)]
    elif math.isinf(lo):
        step = max(1.0, abs(hi))
        candidates = [hi - step * f for f in (0.5, 1.0, 4.0)]
    else:
        width = hi - lo
        candidates = [lo + width * f for f in (0.5, 0.25, 0.75)]

    T = np.eye(n) if sp.fixed_T is None else sp.fixed_T
    J = np.zeros((n, n))
    best = (-math.inf, None)
    for rho in candidates:
        x = sp.pack(T, J, rho * np.eye(n))
        worst = min(sp.margins(x))
        if worst > best[0]:
            best = (worst, rho)
    if best[0] <= 1e-2 * sp.delta_lmi:
        raise InfeasibleStartError(
            f"default starting point search failed (best margin {best[0]:.3e}); "
            "review the region and its parameters")
    return T, J, best[1] * np.eye(n)


def solve_subproblem(sp: ConvexSubproblem, Q, init=None, *, accuracy: float,
                     gap0: float | None = None) -> SubproblemSolution:
    """Minimize the subproblem objective at the given Q to the requested
    duality gap.

    `init` may supply a list of warm-start triples (T, J, R) tried in
    order; the first strictly feasible one is the start, and without one
    the default `initial_point`. The solution's `start` is the
    triple used. `gap0` estimates the warm start's suboptimality and
    sets the floor nu / gap0 of the initial barrier parameter (default:
    the objective value itself, the right scale for a cold start). A solve
    that starts at the default point, because `init` is empty or none of
    its triples is strictly feasible, takes that default whatever `gap0`
    says. The solve starts above the floor where the start is more
    central there, and at the final nu / `accuracy` where that is within
    COLD_REACH (default start) or WARM_REACH (warm start) of it.
    `accuracy`, and `gap0` when given, must be finite and positive. The
    returned point is strictly feasible and, when `converged`, its
    objective is within the certified `gap_estimate` <= `accuracy` of the
    optimum.
    """
    for name, value in (("accuracy", accuracy), ("gap0", gap0)):
        if value is not None and not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    obj = _Objective(sp, np.asarray(Q, dtype=float))

    def state(x):
        """The Cholesky factors of the block values G_b at x and f's gradient
        there, both formed from x, or None where x is outside the interior."""
        factors = _barrier(sp, sp.values(x))
        return None if factors is None else (factors, obj.grad(x))

    at_x = None
    for start in init or ():
        x = sp.pack(*start)
        if (at_x := state(x)) is not None:
            break
    used_default = at_x is None
    if used_default:
        start = initial_point(sp)
        x = sp.pack(*start)
        at_x = state(x)
    factors, gf = at_x

    total_newton = 0
    stage_objectives = []
    stage_newton = []
    nu = sp.nu
    t_final = nu / accuracy
    if nu / t_final > accuracy:
        t_final = math.nextafter(t_final, math.inf)
    # gap0 estimates a warm start's suboptimality, not the default point's
    gap_guess = obj.value(x) if used_default or gap0 is None else gap0
    t = nu / max(gap_guess, accuracy)
    # the barrier derivatives at x, kept until x moves (a stage that ends
    # centered or without progress leaves x to the next), and the Newton
    # factor, kept until x or t moves
    derivs = _barrier_grad_hess(sp, factors)
    newton = np.empty((sp.m, sp.m))  # t H_f + H_phi, formed and factored in place
    L = factored_at = None
    reach = COLD_REACH if used_default else WARM_REACH
    if t_final > reach * t:  # K0 and t* only where t0 leaves the last stage out of reach
        L, factored_at = _newton_factor(newton, t, obj.H, derivs[1]), t
        # start at the t >= nu / gap0 where x is most nearly central: the
        # minimizer of ||t gf + g_phi|| in the norm of that factor's inverse
        yf, yphi = _newton_solve(L, np.stack([gf, derivs[0]], axis=1)).T
        gyf, gyphi = float(gf @ yf), float(gf @ yphi)
        if gyf > 0.0 and gyphi < 0.0:
            t = max(t, min(-gyphi / gyf, t_final))
    if t_final <= reach * t:  # the last stage is within reach: start there
        t = t_final
    converged, multipliers = False, []
    on_path = False  # whether a stage has ended centered
    while total_newton < MAX_TOTAL_NEWTON:
        # a t at, above or just below t_final (a start at nu / eps, or a
        # growth onto or past it) runs the last stage at t_final, where the
        # gap bound nu / t meets eps and no tighter gap is paid for
        is_final = t >= t_final * (1.0 - FINAL_STAGE_SNAP)
        if is_final:
            t = t_final
        # an intermediate stage ends at Newton decrement 1, which is central
        # enough to start the next stage from; the final stage ends on the
        # first Newton step whose dual certificate meets eps
        stage_start, short = total_newton, False
        for _ in range(MAX_NEWTON_PER_STAGE):
            if derivs is None:
                derivs, factored_at = _barrier_grad_hess(sp, factors), None
            gphi, Hphi, inverses = derivs
            if factored_at != t:
                L, factored_at = _newton_factor(newton, t, obj.H, Hphi), t
            g = t * gf + gphi
            dx = -_newton_solve(L, g)
            total_newton += 1
            if not is_final and -float(g @ dx) / 2.0 <= STAGE_CENTERING:
                on_path = True
                break
            mu, dG = _step_spectrum(sp, inverses, dx)
            if is_final and float(np.abs(mu).max()) < 1.0:
                # x + dx is interior and the step's dual point bounds its
                # gap; where rounding breaks either, the line search goes on
                gap, xn = (nu - float(mu @ mu)) / t, x + dx
                if gap <= accuracy and state(xn) is not None:
                    multipliers = _multipliers(inverses, sp.views(dG), t)
                    x, converged = xn, True
                    break
            s = _line_step(t, float(gf @ dx), obj.curvature(dx), mu)
            while not np.array_equal(xn := x + s * dx, x):
                if (at_x := state(xn)) is not None:
                    break
                s *= 0.5  # a block lost definiteness to rounding
            else:
                break  # no progress possible at this t
            x, (factors, gf), derivs = xn, at_x, None
            if total_newton >= MAX_TOTAL_NEWTON:
                break
        else:
            short = True  # the stage ran out of Newton steps short of its end
        stage_newton.append(total_newton - stage_start)
        stage_objectives.append(obj.value(x))
        if short and not on_path:
            # no stage has ended centered yet: t is too large for x (a gap
            # guess below the warm start's suboptimality). A smaller t is
            # nearer to centering x; an overshoot costs a growth stage of a
            # few steps, an undershoot another stage short of its end. f >= 0
            # bounds the gap by f(x), so t need not fall below nu / f(x)
            t = min(t, max(t / BARRIER_GROWTH ** 2, nu / max(stage_objectives[-1], accuracy)))
        elif is_final:
            break
        elif not short:  # a stage short of centering keeps its t
            t *= BARRIER_GROWTH

    return SubproblemSolution(*sp.split(x), obj.value(x), total_newton,
                              gap if converged else nu / t, converged, stage_objectives,
                              used_default, stage_newton, multipliers, start)
