"""Independent geometric oracles and samplers shared by the tests.

Membership oracles evaluate each primitive's defining inequality directly
from the standard conic equations (branch selection by the sign of Re(z)
relative to the vertex), never through the (B, C) matrices under test.
The per-primitive stability blocks and their scalar intervals are the
paper's closed-form table, written out per kind; the package derives the
same facts from (B, C), and the tests compare the two.
"""

import math

import numpy as np

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


def random_well_conditioned(n, rng, shift=2.0):
    return rng.standard_normal((n, n)) + shift * np.eye(n)
