"""Independent geometric oracles and samplers shared by the tests.

Membership oracles evaluate each primitive's defining inequality directly
from the standard conic equations (branch selection by the sign of Re(z)
relative to the vertex), never through the (B, C) matrices under test.
`random_primitives` draws seeded valid parameters for every kind, so the
membership test reaches beyond the one fixed choice per kind.
The per-primitive stability blocks and their scalar intervals are the
paper's closed-form table, written out per kind; the package derives the
same facts from (B, C), and the tests compare the two.

`fgm_reference` is the projected fast gradient loop written on separate
T, J, R, Q matrices in plain numpy, with no `omegapair.fgm` import; the
package runs the same loop on one stacked array, and the tests require
the two to agree bit for bit and to make the same line-search trials.

`sym_basis` and `skew_basis` build the orthonormal matrix bases of the
subproblem's coordinates entry by entry; the package's svec gathers are
checked against them.

`certificate_conditions` evaluates the certificate layer's conditions (the
quadruple's structure, the certificate matrices and each Kronecker LMI
B (x) X + C (x) Y + C^T (x) Y^T) with its own symmetrization, assembly,
eigenvalue margins and condition numbers, importing nothing from
`omegapair.dh`.
"""

import math

import numpy as np
import scipy.linalg

from omegapair.dh import skew, sym

# Factor c such that -(B (x) T + (C-C^T) (x) J - (C+C^T) (x) R) equals
# c times the stability block, up to a signed block permutation for the
# disk (which uses the conventional (B, C) with C = [[0,0],[-1,0]]).
TABLE_BLOCK_SCALE = {
    "left_conic_sector": 2.0,
    "right_conic_sector": 2.0,
    "disk": 1.0,
    "vertical_strip": 2.0,
    "left_half_plane": 2.0,
    "right_half_plane": 2.0,
    "ellipsoid": 1.0,
    "left_parabola": 1.0,
    "right_parabola": 1.0,
    "left_hyperbola": 1.0,
    "right_hyperbola": 1.0,
    "horizontal_strip": 1.0,
}


def stability_lmi_blocks(p, T, J, R) -> np.ndarray:
    """Stability block of one primitive, linear in (T, J, R).

    The condition "block > 0" (positive definite) on T = E Q^{-1}, skew J
    and symmetric R places all finite eigenvalues of (T Q, (J - R) Q)
    inside the primitive's region.
    """
    T, J, R = (np.asarray(M, dtype=float) for M in (T, J, R))
    k = p.kind
    if k == "left_conic_sector":
        s, c = math.sin(p.theta), math.cos(p.theta)
        D = s * (p.a * T + R)
        return np.block([[D, -c * J], [c * J, D]])
    if k == "right_conic_sector":
        s, c = math.sin(p.theta), math.cos(p.theta)
        D = -s * (p.a * T + R)
        return np.block([[D, -c * J], [c * J, D]])
    if k == "disk":
        q, r = p.q, p.r
        return np.block([[r * T, q * T - J + R], [q * T + J + R, r * T]])
    if k == "vertical_strip":
        Z = np.zeros_like(T)
        return np.block([[p.k * T + R, Z], [Z, -p.h * T - R]])
    if k == "left_half_plane":
        return p.k * T + R
    if k == "right_half_plane":
        return -p.h * T - R
    if k == "ellipsoid":
        q, a, b = p.q_e, p.a_e, p.b_e
        off = q * T + (a / b) * J + R
        return np.block([[a * T, off.T], [off, a * T]])
    if k == "left_parabola":
        g = math.sqrt(p.c_p / 2.0)
        return np.block([[T, -g * J], [g * J, p.q_p * T + R]])
    if k == "right_parabola":
        g = math.sqrt(p.c_p / 2.0)
        return np.block([[T, -g * J], [g * J, -p.q_p * T - R]])
    if k == "left_hyperbola":
        a, b = p.a_h, p.b_h
        return np.block([[R / a, -T - J / b], [-T + J / b, R / a]])
    if k == "right_hyperbola":
        a, b = p.a_h, p.b_h
        return np.block([[-R / a, -T - J / b], [-T + J / b, -R / a]])
    if k == "horizontal_strip":
        return np.block([[p.w * T, -J], [J, p.w * T]])
    raise ValueError(f"unknown region kind {k!r}")


def initial_scalar_interval(p):
    """Open interval of rho making the block at (T, J, R) = (I, 0, rho I)
    positive definite. Endpoints may be +-inf."""
    k = p.kind
    inf = math.inf
    if k == "left_conic_sector":
        return (-p.a, inf)
    if k == "right_conic_sector":
        return (-inf, -p.a)
    if k == "disk":
        return (-p.q - p.r, -p.q + p.r)
    if k == "vertical_strip":
        return (-p.k, -p.h)
    if k == "left_half_plane":
        return (-p.k, inf)
    if k == "right_half_plane":
        return (-inf, -p.h)
    if k == "ellipsoid":
        return (-p.q_e - p.a_e, -p.q_e + p.a_e)
    if k == "left_parabola":
        return (-p.q_p, inf)
    if k == "right_parabola":
        return (-inf, -p.q_p)
    if k == "left_hyperbola":
        return (p.a_h, inf)
    if k == "right_hyperbola":
        return (-inf, -p.a_h)
    if k == "horizontal_strip":
        return (-inf, inf)
    raise ValueError(f"unknown region kind {k!r}")


def geometric_membership(p, z):
    """True iff z lies strictly inside the primitive, by its own equation."""
    x, y = z.real, z.imag
    k = p.kind
    if k == "left_conic_sector":
        return (x - p.a) * np.sin(p.theta) + abs(y) * np.cos(p.theta) < 0
    if k == "right_conic_sector":
        return -(x - p.a) * np.sin(p.theta) + abs(y) * np.cos(p.theta) < 0
    if k == "disk":
        return abs(z - p.q) < p.r
    if k == "vertical_strip":
        return p.h < x < p.k
    if k == "left_half_plane":
        return x < p.k
    if k == "right_half_plane":
        return x > p.h
    if k == "ellipsoid":
        return (x - p.q_e) ** 2 / p.a_e ** 2 + y ** 2 / p.b_e ** 2 < 1
    if k == "left_parabola":
        return x < p.q_p - p.c_p / 2.0 * y ** 2
    if k == "right_parabola":
        return x > p.q_p + p.c_p / 2.0 * y ** 2
    if k == "left_hyperbola":
        return x < 0 and x ** 2 / p.a_h ** 2 - y ** 2 / p.b_h ** 2 > 1
    if k == "right_hyperbola":
        return x > 0 and x ** 2 / p.a_h ** 2 - y ** 2 / p.b_h ** 2 > 1
    if k == "horizontal_strip":
        return abs(y) < p.w
    raise ValueError(k)


def lam_max_margin(B, C, z):
    """Membership margin of one point z for the region {B + C z + C^T z* < 0}:
    -lambda_max of the Hermitian part of B + z C + conj(z) C^T, divided by
    min(1, s) with s the largest absolute entry of (B, C); -inf when
    (B, C) is all zero (the empty region)."""
    s = max(np.abs(B).max(), np.abs(C).max())
    if s == 0.0:
        return -math.inf
    z = complex(z)
    F = B + z * C + np.conj(z) * C.T
    H = (F + F.conj().T) / 2.0
    return -float(np.linalg.eigvalsh(H)[-1]) / min(1.0, s)


def pencil_admissible(E, A, B, C, margin_tol=1e-6):
    """Admissibility of s E - A for the region {B + C z + C^T z* < 0}, from
    one QZ and `lam_max_margin`, with no omegapair.pencil or .regions code.

    The pencil is taken as singular when a QZ pair (alpha, beta) has both
    parts below 1e-14 (||E||_2 + ||A||_2), a clear-cut case any regularity
    test must also reject. An eigenvalue is finite when |beta| exceeds
    1e-8 times that scale, rank(E) counts singular values above
    n eps sigma_max(E), and admissible means regular, as many finite
    eigenvalues as rank(E), and every finite eigenvalue at margin
    >= -margin_tol.
    """
    E, A = np.asarray(E, dtype=float), np.asarray(A, dtype=float)
    sv_E = scipy.linalg.svdvals(E)
    scale = sv_E[0] + scipy.linalg.svdvals(A)[0]
    if scale == 0.0:
        return False
    alpha, beta = scipy.linalg.eig(A, E, right=False, homogeneous_eigvals=True)
    if np.any(np.maximum(np.abs(alpha), np.abs(beta)) <= 1e-14 * scale):
        return False
    finite = np.abs(beta) > 1e-8 * scale
    rank_E = int(np.sum(sv_E > E.shape[0] * np.finfo(float).eps * sv_E[0]))
    if int(finite.sum()) != rank_E:
        return False
    return all(lam_max_margin(B, C, z) >= -margin_tol
               for z in alpha[finite] / beta[finite])


# One representative parameter choice per primitive kind, placed so each
# region meets the left half-plane (needed by the sufficiency suite).
def standard_primitives():
    from omegapair import regions as rg

    return [
        rg.left_conic_sector(-0.5, 0.7),
        rg.right_conic_sector(-4.0, 1.1),
        rg.disk(-2.0, 1.5),
        rg.vertical_strip(-3.0, -1.0),
        rg.left_half_plane(-0.3),
        rg.right_half_plane(-4.0),
        rg.ellipsoid(-1.0, 3.0, 2.0),
        rg.left_parabola(6.0, 1.0),
        rg.right_parabola(-6.0, 1.0),
        rg.left_hyperbola(0.5, 0.5),
        rg.right_hyperbola(1.5, 2.5),
        rg.horizontal_strip(3.0),
    ]


def _random_strip(u):
    h = u(-4.0, 3.0)
    return {"h": h, "k": h + u(0.3, 4.0)}


# Seeded valid parameter draws per kind. Apexes, centres, edges and
# vertices take either sign, so both members of each mirror pair (left
# and right half-plane, sector, parabola, hyperbola) meet both signs;
# radii, semi-axes, curvatures and widths stay away from 0.
_RANDOM_PARAMS = {
    "left_conic_sector": lambda u: {"a": u(-4.0, 4.0), "theta": u(0.1, 1.45)},
    "right_conic_sector": lambda u: {"a": u(-4.0, 4.0), "theta": u(0.1, 1.45)},
    "disk": lambda u: {"q": u(-4.0, 4.0), "r": u(0.3, 4.0)},
    "vertical_strip": _random_strip,
    "left_half_plane": lambda u: {"k": u(-4.0, 4.0)},
    "right_half_plane": lambda u: {"h": u(-4.0, 4.0)},
    "ellipsoid": lambda u: {"q_e": u(-4.0, 4.0), "a_e": u(0.3, 4.0), "b_e": u(0.3, 4.0)},
    "left_parabola": lambda u: {"q_p": u(-4.0, 4.0), "c_p": u(0.2, 3.0)},
    "right_parabola": lambda u: {"q_p": u(-4.0, 4.0), "c_p": u(0.2, 3.0)},
    "left_hyperbola": lambda u: {"a_h": u(0.3, 3.0), "b_h": u(0.3, 3.0)},
    "right_hyperbola": lambda u: {"a_h": u(0.3, 3.0), "b_h": u(0.3, 3.0)},
    "horizontal_strip": lambda u: {"w": u(0.3, 4.0)},
}


def random_primitives(seed, draws):
    """`draws` seeded random primitives of each kind, built through the
    public constructor of the kind's name."""
    from omegapair import regions as rg

    rng = np.random.default_rng(seed)
    return [getattr(rg, kind)(**sample(lambda lo, hi: float(rng.uniform(lo, hi))))
            for kind, sample in _RANDOM_PARAMS.items() for _ in range(draws)]


def scalar_start(p, psd_R=False):
    """The (T, J, R) = (I-free) scalar starting level rho for a primitive."""
    lo, hi = initial_scalar_interval(p)
    if psd_R:
        lo = max(lo, 0.0)
    if lo >= hi:
        return None
    if np.isinf(lo) and np.isinf(hi):
        return 1.0 if psd_R else 0.0
    if np.isinf(hi):
        return lo + max(1.0, abs(lo))
    if np.isinf(lo):
        return hi - max(1.0, abs(hi))
    return (lo + hi) / 2.0


def sample_feasible_tjr(p, n, rng, psd_R=False, margin=1e-6):
    """Random (T, J, R) with T > 0 and the primitive's block > 0.

    Perturbs the scalar starting point and shrinks the perturbation until
    the margins hold; returns None when no scalar start exists.
    """
    rho = scalar_start(p, psd_R)
    if rho is None:
        return None
    T0, J0, R0 = np.eye(n), np.zeros((n, n)), rho * np.eye(n)
    dT = sym(rng.standard_normal((n, n)))
    dJ = skew(rng.standard_normal((n, n)))
    dR = sym(rng.standard_normal((n, n)))
    s = 1.0
    for _ in range(70):
        T, J, R = T0 + s * dT, J0 + s * dJ, R0 + s * dR
        ok = (np.linalg.eigvalsh(T)[0] > margin
              and np.linalg.eigvalsh(stability_lmi_blocks(p, T, J, R))[0] > margin)
        if ok and psd_R:
            ok = np.linalg.eigvalsh(R)[0] > margin
        if ok:
            return T, J, R
        s *= 0.5
    return T0, J0, R0


def barrier_blocks(B, C, T, J, R, delta=0.0, psd_T=True, psd_R=False):
    """Dense matrices G_b of the subproblem's constraints G_b > 0 at (T, J, R).

    T (when T is a variable), R (when R must be PSD), and the whole region
    LMI -(B (x) T + (C-C^T) (x) J - (C+C^T) (x) R) - delta I. The solver
    splits the region LMI into diagonal blocks; logdet, tr(G^-1 dG) and
    tr(G^-1 dG G^-1 dG) are sums over diagonal blocks, so one matrix
    stands for all of them. Affine in (T, J, R): with delta = 0 it gives
    the directional derivative dG of a direction (dT, dJ, dR).
    """
    B, C = np.asarray(B, dtype=float), np.asarray(C, dtype=float)
    blocks = [T] if psd_T else []
    if psd_R:
        blocks.append(R)
    lmi = -(np.kron(B, T) + np.kron(C - C.T, J) - np.kron(C + C.T, R))
    blocks.append(lmi - delta * np.eye(lmi.shape[0]))
    return blocks


def random_well_conditioned(n, rng, shift=2.0):
    return rng.standard_normal((n, n)) + shift * np.eye(n)


def sym_basis(n):
    """Orthonormal basis of the symmetric n x n matrices, one slice per
    upper-triangle entry (i, j), i <= j, in row-major order."""
    idx = [(i, j) for i in range(n) for j in range(i, n)]
    S = np.zeros((len(idx), n, n))
    for k, (i, j) in enumerate(idx):
        if i == j:
            S[k, i, i] = 1.0
        else:
            S[k, i, j] = S[k, j, i] = 1.0 / math.sqrt(2.0)
    return S


def skew_basis(n):
    """Orthonormal basis of the skew n x n matrices, one slice per strict
    upper-triangle entry (i, j), i < j, in row-major order."""
    idx = [(i, j) for i in range(n) for j in range(i + 1, n)]
    S = np.zeros((len(idx), n, n))
    for k, (i, j) in enumerate(idx):
        S[k, i, j] = 1.0 / math.sqrt(2.0)
        S[k, j, i] = -1.0 / math.sqrt(2.0)
    return S


def _sym(M):
    return (M + M.T) / 2.0


def _skew(M):
    return (M - M.T) / 2.0


def _psd(M):
    w, V = np.linalg.eigh(_sym(M))
    return (V * np.maximum(w, 0.0)) @ V.T


def _quadruple(T, J, R, Q):
    """A (T, J, R, Q) tuple built as the package's DhParam builds one:
    T and R symmetrized, J made skew, on every construction."""
    return _sym(T), _skew(J), _sym(R), np.asarray(Q, dtype=float)


def _fgm_objective(E, A, d, mu):
    T, J, R, Q = d
    res_a = A - (J - R) @ Q
    res_e = E - T @ Q
    return float(np.sum(res_a * res_a) + mu * np.sum(res_e * res_e))


def _fgm_gradient(E, A, d, mu):
    T, J, R, Q = d
    res_a = (J - R) @ Q - A
    res_e = T @ Q - E
    GA = res_a @ Q.T
    gT = 2.0 * mu * _sym(res_e @ Q.T)
    gJ = 2.0 * _skew(GA)
    gR = -2.0 * _sym(GA)
    gQ = 2.0 * (J - R).T @ res_a + 2.0 * mu * T.T @ res_e
    return gT, gJ, gR, gQ


def _fgm_lipschitz(E, A, d, mu, iters=25, seed=0):
    rng = np.random.default_rng(seed)
    T, J, R, Q = d
    n = T.shape[0]
    JR = J - R
    dT = _sym(rng.standard_normal((n, n)))
    dJ = _skew(rng.standard_normal((n, n)))
    dR = _sym(rng.standard_normal((n, n)))
    dQ = rng.standard_normal((n, n))
    lam = 1.0
    for _ in range(iters):
        norm = np.sqrt(sum(np.sum(M * M) for M in (dT, dJ, dR, dQ)))
        if norm == 0.0:
            break
        dT, dJ, dR, dQ = dT / norm, dJ / norm, dR / norm, dQ / norm
        ra = (dJ - dR) @ Q + JR @ dQ
        re = dT @ Q + T @ dQ
        nT = mu * _sym(re @ Q.T)
        nJ = _skew(ra @ Q.T)
        nR = -_sym(ra @ Q.T)
        nQ = JR.T @ ra + mu * T.T @ re
        lam = sum(np.sum(a * b) for a, b in
                  ((nT, dT), (nJ, dJ), (nR, dR), (nQ, dQ)))
        dT, dJ, dR, dQ = nT, nJ, nR, nQ
    return max(2.0 * abs(lam), 1e-12)


def _fgm_relative_error(E, A, d):
    T, J, R, Q = d
    num = float(np.sum((A - (J - R) @ Q) ** 2) + np.sum((E - T @ Q) ** 2))
    return float(np.sqrt(num / float(np.sum(A * A) + np.sum(E * E))))


def fgm_reference(E, A, max_iters, mu=1.0, ls_shrink=2.0, ls_grow=2.0, ls_max=20,
                  alpha0=0.5, stall_window=3000, stall_rel_tol=1e-11, trace_every=25,
                  seed=0):
    """The projected fast gradient loop of `fgm.solve_hurwitz`, written on
    per-matrix (T, J, R, Q) tuples with one `eigh` per PSD projection and a
    re-symmetrized tuple after every projection and momentum step.

    The step grows by `ls_grow` before an iteration's first trial unless
    the loop is holding it: when a grown trial is rejected and a smaller
    one accepted, the next 1, 2, 4, ... iterations (doubling with each
    such iteration in a row) keep the step they hold, and an accepted
    grown trial brings growth back to every iteration. A line search that
    finds no descent leaves the hold alone.

    Takes `FgmOptions`' fields by name, with no wall-clock budget. Returns
    the trace rows without their times, (objective, relative error), the
    iteration count, the stop reason, the best (T, J, R, Q), the number
    of line searches that found no descent (restarts) and the number of
    line-search trials, one projection each.
    """
    E = np.asarray(E, dtype=float)
    A = np.asarray(A, dtype=float)
    n = E.shape[0]
    X = _quadruple(_psd(E), _skew(A), _psd(-_sym(A)), np.eye(n))
    fX = _fgm_objective(E, A, X, mu)
    step = 1.0 / _fgm_lipschitz(E, A, X, mu, seed=seed)
    step_accept = step
    best, fbest = X, fX
    trace = [(fbest, _fgm_relative_error(E, A, best))]
    Y = X
    alpha = alpha0
    fail_streak = restarts = trials = it = 0
    hold = backoff = 0   # iterations left without growth; the last back-off
    stall_anchor = (0, fbest)
    stop_reason = "iteration budget"
    while it < max_iters:
        gT, gJ, gR, gQ = _fgm_gradient(E, A, Y, mu)
        probe = hold == 0
        if probe:
            step *= ls_grow
        else:
            hold -= 1
        accepted = None
        first = True
        for _ in range(ls_max):
            trials += 1
            YT, YJ, YR, YQ = Y
            cand = _quadruple(_psd(YT - step * gT), _skew(YJ - step * gJ),
                              _psd(YR - step * gR), YQ - step * gQ)
            fc = _fgm_objective(E, A, cand, mu)
            if fc < fX:
                accepted = (cand, fc, first)
                break
            first = False
            step /= ls_shrink
        if accepted is None:
            fail_streak += 1
            restarts += 1
            if fail_streak >= 3:
                stop_reason = "converged (no descent after restarts)"
                break
            Y = X
            alpha = alpha0
            if fail_streak == 1:
                step = step_accept / 2.0
            else:
                step = 1.0 / _fgm_lipschitz(E, A, X, mu, seed=seed)
        else:
            Xn, fXn, on_first = accepted
            if probe:
                backoff = 0 if on_first else 2 * backoff if backoff else 1
                hold = backoff
            fail_streak = 0
            step_accept = step
            alpha_next = (np.sqrt(alpha ** 4 + 4 * alpha ** 2) - alpha ** 2) / 2.0
            beta = alpha * (1.0 - alpha) / (alpha ** 2 + alpha_next)
            Y = _quadruple(*(a + beta * (a - b) for a, b in zip(Xn, X)))
            X, fX = Xn, fXn
            alpha = alpha_next
            if fX < fbest:
                best, fbest = X, fX
        it += 1
        if it % trace_every == 0:
            trace.append((fbest, _fgm_relative_error(E, A, best)))
        anchor_it, anchor_f = stall_anchor
        if it - anchor_it >= stall_window:
            if anchor_f - fbest <= stall_rel_tol * (1.0 + abs(anchor_f)):
                stop_reason = "objective stall"
                break
            stall_anchor = (it, fbest)
    trace.append((fbest, _fgm_relative_error(E, A, best)))
    return trace, it, stop_reason, best, restarts, trials


def _symmetric_psd_rows(name, M, tol):
    """'<name> symmetric' and '<name> PSD' rows of one product M."""
    M = np.asarray(M, dtype=float)
    asym = np.linalg.norm(M - M.T) - tol * (1.0 + np.linalg.norm(M))
    w = np.linalg.eigvalsh((M + M.T) / 2.0)
    psd = w[0] + tol * (1.0 + np.abs(w).max())
    return [(f"{name} symmetric", bool(asym <= 0), float(-asym)),
            (f"{name} PSD", bool(psd >= 0), float(psd))]


def _lmi_row(name, M, tol, strict):
    """Row for 'M negative (semi)definite' with the scaled threshold
    tol * (1 + max |eigenvalue|): -lambda_max - that when strict, plus it
    when not."""
    w = np.linalg.eigvalsh((M + M.T) / 2.0)
    scale = tol * (1.0 + np.abs(w).max())
    if strict:
        m = -w[-1] - scale
        return [(name, bool(m > 0), float(m))]
    m = -w[-1] + scale
    return [(name, bool(m >= 0), float(m))]


def _rcond_row(name, M):
    s = np.linalg.svd(np.asarray(M, dtype=float), compute_uv=False)
    rcond = float(s[-1] / s[0]) if s[0] > 0 else 0.0
    return [(name, bool(rcond >= M.shape[0] * 1e-12), rcond)]


def _kronecker_form(B, C, X, Y):
    """B (x) X + C (x) Y + C^T (x) Y^T, the region's LMI in (X, Y)."""
    return np.kron(B, X) + np.kron(C, Y) + np.kron(C.T, Y.T)


def certificate_conditions(kind, B, C, E, A=None, J=None, R=None, Q=None,
                           X=None, P=None, S=None, tol=1e-9):
    """(name, ok, margin) rows of one certificate check, in the package's order.

    kind "quadruple" is the sufficient admissibility check of (E, (J - R) Q):
    J skew, R positive definite, Q invertible, Q^T E symmetric PSD and the
    region LMI of the pair at X = Q strictly negative definite. Kind "X"
    checks E^T X symmetric PSD and the strict LMI in (E^T X, X^T A); kind
    "PS" checks E P and E S symmetric PSD, A S + (A S)^T negative definite
    and the nonstrict LMI in (E P, A P) plus I (x) E S; kind "S" keeps the
    quadruple's rows but the region LMI, then checks E^T S symmetric PSD,
    S invertible and the nonstrict region LMI plus I (x) E^T S. Margins are
    positive (or zero, for nonstrict rows) exactly when the row holds.
    """
    B, C, E = (np.asarray(M, dtype=float) for M in (B, C, E))
    I = np.eye(B.shape[0])
    if kind == "X":
        return (_symmetric_psd_rows("E^T X", E.T @ X, tol)
                + _lmi_row("Kronecker LMI negative definite",
                            _kronecker_form(B, C, E.T @ X, X.T @ A), tol, True))
    if kind == "PS":
        EP, ES, AS = E @ P, E @ S, A @ S
        return (_symmetric_psd_rows("E P", EP, tol) + _symmetric_psd_rows("E S", ES, tol)
                + _lmi_row("A S + (A S)^T negative definite", AS + AS.T, tol, True)
                + _lmi_row("Kronecker LMI negative semidefinite",
                            _kronecker_form(B, C, EP, A @ P) + np.kron(I, (ES + ES.T) / 2.0),
                            tol, False))
    J, R, Q = (np.asarray(M, dtype=float) for M in (J, R, Q))
    dev = np.linalg.norm(J + J.T) - tol * (1.0 + np.linalg.norm(J))
    w = np.linalg.eigvalsh((R + R.T) / 2.0)
    r_margin = w[0] - tol * (1.0 + np.abs(w).max())
    rows = ([("J skew-symmetric", bool(dev <= 0), float(-dev)),
             ("R positive definite", bool(r_margin > 0), float(r_margin))]
            + _rcond_row("Q invertible", Q) + _symmetric_psd_rows("Q^T E", Q.T @ E, tol))
    pair_lmi = _kronecker_form(B, C, Q.T @ E, Q.T @ ((J - R) @ Q))
    if kind == "quadruple":
        return rows + _lmi_row("region LMI negative definite", pair_lmi, tol, True)
    if kind != "S":
        raise ValueError(f"unknown certificate kind {kind!r}")
    ES = E.T @ S
    return (rows + _symmetric_psd_rows("E^T S", ES, tol) + _rcond_row("S invertible", S)
            + _lmi_row("shifted Kronecker LMI negative semidefinite",
                        pair_lmi + np.kron(I, (ES + ES.T) / 2.0), tol, False))
