"""Log-barrier interior-point solver for the convex (T, J, R) subproblem.

For a fixed invertible Q the problem

    min  ||A - (J - R) Q||_F^2 + mu ||E - T Q||_F^2
    s.t. T >= 0,  optionally R >= 0,  and the region LMI
         -(B (x) T + (C-C^T) (x) J - (C+C^T) (x) R) > delta_lmi I,

is a convex quadratic over the symmetric/skew/symmetric triple (T, J, R)
with affine semidefinite constraints. It is solved by path-following:
damped Newton steps on  t*f(x) - sum_b logdet(G_b(x))  with the barrier
parameter t increased by a fixed factor until the duality-gap bound
nu / t drops below the requested accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dtrtri

from .regions import LmiRegion, connected_blocks, real_section

__all__ = [
    "ConvexSubproblem",
    "SubproblemSolution",
    "ConstraintSet",
    "InfeasibleStartError",
    "initial_point",
    "solve_subproblem",
]

BARRIER_GROWTH = 10.0
MAX_NEWTON_PER_STAGE = 60
MAX_TOTAL_NEWTON = 4000
ARMIJO = 0.3


class InfeasibleStartError(RuntimeError):
    """No strictly feasible starting point was found."""


# ---------------------------------------------------------------------------
# Orthonormal bases of the symmetric and skew-symmetric matrix spaces


def _sym_basis(n):
    idx = [(i, j) for i in range(n) for j in range(i, n)]
    S = np.zeros((len(idx), n, n))
    for k, (i, j) in enumerate(idx):
        if i == j:
            S[k, i, i] = 1.0
        else:
            S[k, i, j] = S[k, j, i] = 1.0 / math.sqrt(2.0)
    return S


def _skew_basis(n):
    idx = [(i, j) for i in range(n) for j in range(i + 1, n)]
    S = np.zeros((len(idx), n, n))
    for k, (i, j) in enumerate(idx):
        S[k, i, j] = 1.0 / math.sqrt(2.0)
        S[k, j, i] = -1.0 / math.sqrt(2.0)
    return S


def _coords(M, basis):
    return np.einsum("ij,kij->k", M, basis)


def _from_coords(x, basis):
    return np.einsum("k,kij->ij", x, basis)


def _batch_kron(B, S):
    """kron(B, S[k]) for every slice of the tensor S."""
    s = B.shape[0]
    m, n, _ = S.shape
    return np.einsum("ab,kcd->kacbd", B, S).reshape(m, s * n, s * n)


# ---------------------------------------------------------------------------
# Problem statement and compiled form


@dataclass
class ConvexSubproblem:
    """Data of one fixed-Q convex subproblem."""

    E: np.ndarray
    A: np.ndarray
    Q: np.ndarray
    mu: float = 1.0
    region: LmiRegion | None = None
    require_R_psd: bool = False
    delta_lmi: float | None = None
    fixed_T: np.ndarray | None = None  # when set, T is held constant

    def __post_init__(self):
        self.E = np.asarray(self.E, dtype=float)
        self.A = np.asarray(self.A, dtype=float)
        self.Q = np.asarray(self.Q, dtype=float)
        if self.delta_lmi is None:
            self.delta_lmi = 1e-6 * (1.0 + np.linalg.norm(self.A, "fro"))
        if self.fixed_T is not None:
            self.fixed_T = np.asarray(self.fixed_T, dtype=float)

    @property
    def n(self) -> int:
        return self.E.shape[0]


@dataclass
class SubproblemSolution:
    T: np.ndarray
    J: np.ndarray
    R: np.ndarray
    objective: float
    barrier_iterations: int
    gap_estimate: float
    margins: list
    converged: bool
    stage_objectives: list = field(default_factory=list)
    initial_point_used: bool = False
    stage_newton: list = field(default_factory=list)  # Newton steps per barrier stage


class _Block:
    """One affine semidefinite constraint G(x) = G0 + sum x_j K_j >= 0.

    Only the variables whose coefficient slice is nonzero are stored, so
    blocks touching a single matrix variable stay cheap inside the Newton
    assembly.
    """

    def __init__(self, G0, K):
        self.G0 = G0
        self.d = G0.shape[0]
        active = np.flatnonzero(np.abs(K).max(axis=(1, 2)) > 0.0)
        self.active = active
        self.K = np.ascontiguousarray(K[active])  # (m_active, d, d)

    def value(self, x):
        return self.G0 + np.einsum("k,kij->ij", x[self.active], self.K)

    def chol(self, x):
        G = self.value(x)
        try:
            return np.linalg.cholesky(G)
        except np.linalg.LinAlgError:
            return None


class ConstraintSet:
    """Constraint blocks and variable layout, reusable across Q updates."""

    def __init__(self, n, region=None, require_R_psd=False, delta_lmi=0.0,
                 fixed_T=None):
        self.n = n
        self.fixed_T = fixed_T
        self.ST = _sym_basis(n)
        self.SJ = _skew_basis(n)
        self.SR = self.ST
        self.nT = 0 if fixed_T is not None else self.ST.shape[0]
        self.nJ = self.SJ.shape[0]
        self.nR = self.SR.shape[0]
        self.m = self.nT + self.nJ + self.nR
        self.delta_lmi = delta_lmi

        blocks = []
        if fixed_T is None:
            K = np.zeros((self.m, n, n))
            K[: self.nT] = self.ST
            blocks.append(_Block(np.zeros((n, n)), K))
        if require_R_psd:
            K = np.zeros((self.m, n, n))
            K[self.nT + self.nJ:] = self.SR
            blocks.append(_Block(np.zeros((n, n)), K))
        if region is not None:
            # one barrier block per connected diagonal block of (B, C): the
            # barrier is the same as for the whole region, at a fraction of
            # the Cholesky cost
            for part in connected_blocks(region):
                blocks.append(self._region_block(part, delta_lmi))
        self.blocks = blocks
        self.nu = sum(b.d for b in blocks)

    def _region_block(self, part, delta):
        """-(B (x) T + (C-C^T) (x) J - (C+C^T) (x) R) - delta I >= 0."""
        B, C = part.B, part.C
        s = B.shape[0]
        n = self.n
        Cm, Cp = C - C.T, C + C.T
        K = np.zeros((self.m, s * n, s * n))
        if self.fixed_T is None:
            K[: self.nT] = -_batch_kron(B, self.ST)
            G0 = -delta * np.eye(s * n)
        else:
            G0 = -np.kron(B, self.fixed_T) - delta * np.eye(s * n)
        K[self.nT: self.nT + self.nJ] = -_batch_kron(Cm, self.SJ)
        K[self.nT + self.nJ:] = _batch_kron(Cp, self.SR)
        return _Block(G0, K)

    def split(self, x):
        T = (self.fixed_T if self.fixed_T is not None
             else _from_coords(x[: self.nT], self.ST))
        J = _from_coords(x[self.nT: self.nT + self.nJ], self.SJ)
        R = _from_coords(x[self.nT + self.nJ:], self.SR)
        return T, J, R

    def pack(self, T, J, R):
        parts = []
        if self.fixed_T is None:
            parts.append(_coords((T + T.T) / 2.0, self.ST))
        parts.append(_coords((J - J.T) / 2.0, self.SJ))
        parts.append(_coords((R + R.T) / 2.0, self.SR))
        return np.concatenate(parts)

    def margins(self, x):
        return [float(np.linalg.eigvalsh(b.value(x))[0]) for b in self.blocks]

    def strictly_feasible(self, x):
        return _barrier(self.blocks, x)[0] is not None


class _Objective:
    """f(x) = ||A - (J-R) Q||_F^2 + mu ||E - T Q||_F^2 in basis coordinates."""

    def __init__(self, sp: ConvexSubproblem, cs: ConstraintSet):
        self.sp = sp
        self.cs = cs
        Q = sp.Q
        n = sp.n
        # rows are vec(S_k Q) for each basis slice
        PJ = (cs.SJ @ Q).reshape(cs.nJ, n * n)
        PR = (cs.SR @ Q).reshape(cs.nR, n * n)
        H = np.zeros((cs.m, cs.m))
        iJ = slice(cs.nT, cs.nT + cs.nJ)
        iR = slice(cs.nT + cs.nJ, cs.m)
        H[iJ, iJ] = 2.0 * (PJ @ PJ.T)
        H[iR, iR] = 2.0 * (PR @ PR.T)
        cross = -2.0 * (PJ @ PR.T)
        H[iJ, iR] = cross
        H[iR, iJ] = cross.T
        if cs.fixed_T is None:
            PT = (cs.ST @ Q).reshape(cs.nT, n * n)
            H[: cs.nT, : cs.nT] = 2.0 * sp.mu * (PT @ PT.T)
        self.H = H

    def value(self, x):
        T, J, R = self.cs.split(x)
        sp = self.sp
        res_a = sp.A - (J - R) @ sp.Q
        res_e = sp.E - T @ sp.Q
        return float(np.sum(res_a * res_a) + sp.mu * np.sum(res_e * res_e))

    def value_grad(self, x):
        T, J, R = self.cs.split(x)
        sp, cs = self.sp, self.cs
        res_a = sp.A - (J - R) @ sp.Q
        res_e = sp.E - T @ sp.Q
        f = float(np.sum(res_a * res_a) + sp.mu * np.sum(res_e * res_e))
        GA = res_a @ sp.Q.T
        parts = []
        if cs.fixed_T is None:
            GE = res_e @ sp.Q.T
            parts.append(-2.0 * sp.mu * _coords((GE + GE.T) / 2.0, cs.ST))
        parts.append(-2.0 * _coords((GA - GA.T) / 2.0, cs.SJ))
        parts.append(2.0 * _coords((GA + GA.T) / 2.0, cs.SR))
        return f, np.concatenate(parts)


def _barrier(blocks, x):
    """(factors, -sum logdet G_b(x)): the Cholesky factor of every block,
    or (None, +inf) outside the interior."""
    factors = []
    total = 0.0
    for b in blocks:
        L = b.chol(x)
        if L is None:
            return None, np.inf
        diag = np.diag(L)
        if np.any(diag <= 0.0):
            return None, np.inf
        factors.append(L)
        total -= 2.0 * float(np.sum(np.log(diag)))
    return factors, total


def _barrier_grad_hess(blocks, x, m, factors=None):
    """Gradient and Hessian of -sum logdet G_b at x.

    `factors` are the blocks' Cholesky factors at x, as `_barrier` returns
    them; they are computed here when not given.
    """
    if factors is None:
        factors, _ = _barrier(blocks, x)
        if factors is None:
            return None, None
    g = np.zeros(m)
    H = np.zeros((m, m))
    for b, L in zip(blocks, factors):
        Li, info = dtrtri(L, lower=1)
        if info != 0:
            return None, None
        # Ghat_j = L^-1 K_j L^-T (K_j symmetric), so traces and Gram
        # products below are exact
        Ghat = Li @ b.K @ Li.T
        g[b.active] -= np.trace(Ghat, axis1=1, axis2=2)
        V = Ghat.reshape(len(b.active), -1)
        H[np.ix_(b.active, b.active)] += V @ V.T
    return g, H


def initial_point(sp: ConvexSubproblem, cs: ConstraintSet | None = None,
                  interior_margin: float | None = None):
    """A strictly feasible (T, J, R), by scalar search R = rho I at T = I.

    At (I, 0, rho I) the region LMI reads B - rho (C + C^T) < 0, so rho
    ranges over the region's real section negated (cut at 0 when R must
    be PSD). Candidates from that interval are tried and the one
    maximizing the worst block margin is returned. Raises
    InfeasibleStartError when the interval is empty (for instance, an
    empty region).
    """
    if cs is None:
        cs = ConstraintSet(sp.n, sp.region, sp.require_R_psd, sp.delta_lmi,
                           sp.fixed_T)
    n = sp.n
    section = (-math.inf, math.inf) if sp.region is None else real_section(sp.region)
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

    if math.isinf(lo) and math.isinf(hi):
        candidates = [0.0, 1.0] if not sp.require_R_psd else [1.0]
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
        x = cs.pack(T, J, rho * np.eye(n))
        worst = min(cs.margins(x)) if cs.blocks else math.inf
        if worst > best[0]:
            best = (worst, rho)
    needed = interior_margin if interior_margin is not None else 10.0 * sp.delta_lmi * 1e-3
    if best[0] <= max(needed, 0.0) and cs.blocks:
        raise InfeasibleStartError(
            f"default starting point search failed (best margin {best[0]:.3e}); "
            "review the region and its parameters")
    return T, J, best[1] * np.eye(n)


def solve_subproblem(sp: ConvexSubproblem, init=None, accuracy: float | None = None,
                     constraints: ConstraintSet | None = None,
                     gap0: float | None = None,
                     trace_path=None) -> SubproblemSolution:
    """Minimize the subproblem objective to the requested duality gap.

    `init` may supply a warm-start triple (T, J, R); it is used only when
    strictly feasible. `gap0` estimates the warm start's suboptimality and
    sets the initial barrier parameter (default: the objective value
    itself, the right scale for a cold start). The returned point is
    strictly feasible and its objective is within `accuracy` (gap
    estimate) of the optimum.
    """
    cs = constraints if constraints is not None else ConstraintSet(
        sp.n, sp.region, sp.require_R_psd, sp.delta_lmi, sp.fixed_T)
    obj = _Objective(sp, cs)

    used_default = False
    x = None
    if init is not None:
        xi = cs.pack(*init)
        if cs.strictly_feasible(xi):
            x = xi
    if x is None:
        x = cs.pack(*initial_point(sp, cs))
        used_default = True

    f0 = obj.value(x)
    eps = accuracy if accuracy is not None else 1e-8 * (1.0 + f0)

    trace_rows = []
    total_newton = 0
    stage_objectives = []
    stage_newton = []

    if not cs.blocks:
        # Unconstrained convex quadratic: one exact Newton solve.
        _, g = obj.value_grad(x)
        x = x - np.linalg.solve(obj.H + 1e-14 * np.eye(cs.m), g)
        T, J, R = cs.split(x)
        return SubproblemSolution(T, J, R, obj.value(x), 1, 0.0, [], True,
                                  [obj.value(x)], used_default, [1])

    nu = cs.nu
    gap_guess = gap0 if gap0 is not None else f0
    t = max(1e-2, min(1e8, nu / max(gap_guess, eps)))
    converged = False
    # block factors and barrier value at x, kept from the accepted
    # line-search trial for the next step
    factors, phi_b = _barrier(cs.blocks, x)
    while total_newton < MAX_TOTAL_NEWTON:
        # centering at the current t; intermediate stages only need to be
        # roughly central for the x10 growth, the final stage is tightened
        # so the gap bound holds
        is_final = nu / t <= eps
        center_tol = 1e-9 if is_final else 1e-4
        stage_start = total_newton
        for _ in range(MAX_NEWTON_PER_STAGE):
            f, gf = obj.value_grad(x)
            gphi, Hphi = _barrier_grad_hess(cs.blocks, x, cs.m, factors)
            if gphi is None:
                raise RuntimeError("iterate left the interior; this is a bug")
            g = t * gf + gphi
            H = t * obj.H + Hphi
            try:
                L = np.linalg.cholesky(H)
            except np.linalg.LinAlgError:
                H = H + (1e-12 * (1.0 + np.trace(H) / cs.m)) * np.eye(cs.m)
                L = np.linalg.cholesky(H)
            dx = -scipy.linalg.cho_solve((L, True), g)
            slope = float(g @ dx)
            total_newton += 1
            if -slope / 2.0 <= center_tol:
                break
            phi0 = t * f + phi_b
            s = 1.0
            for _ in range(60):
                xn = x + s * dx
                factors_n, phi_bn = _barrier(cs.blocks, xn)
                if (factors_n is not None
                        and t * obj.value(xn) + phi_bn <= phi0 + ARMIJO * s * slope):
                    break
                s *= 0.5
            else:
                break  # no progress possible at this t
            x, factors, phi_b = xn, factors_n, phi_bn
            if total_newton >= MAX_TOTAL_NEWTON:
                break
        stage_newton.append(total_newton - stage_start)
        fval = obj.value(x)
        stage_objectives.append(fval)
        gap = nu / t
        if trace_path is not None:
            trace_rows.append((total_newton, fval, gap, min(cs.margins(x))))
        if gap <= eps:
            converged = True
            break
        t *= BARRIER_GROWTH

    if trace_path is not None:
        with open(trace_path, "w") as fh:
            fh.write("iteration,objective,gap,min_margin\n")
            for row in trace_rows:
                fh.write(f"{row[0]},{row[1]:.12e},{row[2]:.12e},{row[3]:.12e}\n")

    T, J, R = cs.split(x)
    return SubproblemSolution(T, J, R, obj.value(x), total_newton, nu / t,
                              cs.margins(x), converged, stage_objectives,
                              used_default, stage_newton)
