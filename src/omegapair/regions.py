"""LMI regions of the complex plane.

A region is the set {z : B + C z + C^T conj(z) < 0} (matrix negative
definite) for a real symmetric B and a real square C. This module builds
such (B, C) pairs for twelve standard primitives (half-planes, strips,
disks, conic sectors, ellipses, parabolic and hyperbolic regions),
composes them by intersection, and evaluates membership of complex
points. Everything the solvers need from a region (its real-axis section,
its connected diagonal blocks) is read from (B, C) alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg
from scipy.linalg import block_diag

__all__ = [
    "RegionPrimitive",
    "LmiRegion",
    "Membership",
    "left_conic_sector",
    "right_conic_sector",
    "disk",
    "vertical_strip",
    "left_half_plane",
    "right_half_plane",
    "ellipsoid",
    "left_parabola",
    "right_parabola",
    "left_hyperbola",
    "right_hyperbola",
    "horizontal_strip",
    "from_primitive",
    "intersect",
    "characteristic_matrix",
    "membership",
    "membership_margins",
    "uniform_part_nonempty",
    "real_section",
    "connected_blocks",
    "region_from_dict",
    "region_to_dict",
    "load_region",
    "is_hurwitz",
    "hurwitz",
    "schur",
]

DEFAULT_MARGIN_TOL = 1e-9

PRIMITIVE_KINDS = (
    "left_conic_sector",
    "right_conic_sector",
    "disk",
    "vertical_strip",
    "left_half_plane",
    "right_half_plane",
    "ellipsoid",
    "left_parabola",
    "right_parabola",
    "left_hyperbola",
    "right_hyperbola",
    "horizontal_strip",
)


@dataclass(frozen=True)
class RegionPrimitive:
    """One elementary region, identified by kind and scalar parameters."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in PRIMITIVE_KINDS:
            raise ValueError(f"unknown region kind {self.kind!r}")
        _validate_params(self.kind, self.params)

    def __getattr__(self, name):
        try:
            return self.params[name]
        except KeyError:
            raise AttributeError(name) from None

    def to_dict(self):
        return {"kind": self.kind, **self.params}


def _require(cond, message):
    if not cond:
        raise ValueError(message)


def _validate_params(kind, params):
    p = params
    if kind in ("left_conic_sector", "right_conic_sector"):
        _require(set(p) == {"a", "theta"}, f"{kind} takes parameters a, theta")
        _require(0.0 < p["theta"] < math.pi / 2,
                 f"sector half-angle theta must be in (0, pi/2), got {p['theta']}")
    elif kind == "disk":
        _require(set(p) == {"q", "r"}, "disk takes parameters q, r")
        _require(p["r"] > 0, f"disk radius r must be positive, got {p['r']}")
    elif kind == "vertical_strip":
        _require(set(p) == {"h", "k"}, "vertical_strip takes parameters h, k")
        _require(p["h"] < p["k"],
                 f"vertical_strip needs h < k, got h={p['h']}, k={p['k']}")
    elif kind == "left_half_plane":
        _require(set(p) == {"k"}, "left_half_plane takes parameter k")
    elif kind == "right_half_plane":
        _require(set(p) == {"h"}, "right_half_plane takes parameter h")
    elif kind == "ellipsoid":
        _require(set(p) == {"q_e", "a_e", "b_e"},
                 "ellipsoid takes parameters q_e, a_e, b_e")
        _require(p["a_e"] > 0, f"ellipsoid semi-axis a_e must be positive, got {p['a_e']}")
        _require(p["b_e"] > 0, f"ellipsoid semi-axis b_e must be positive, got {p['b_e']}")
    elif kind in ("left_parabola", "right_parabola"):
        _require(set(p) == {"q_p", "c_p"}, f"{kind} takes parameters q_p, c_p")
        _require(p["c_p"] > 0, f"parabola curvature c_p must be positive, got {p['c_p']}")
    elif kind in ("left_hyperbola", "right_hyperbola"):
        _require(set(p) == {"a_h", "b_h"}, f"{kind} takes parameters a_h, b_h")
        _require(p["a_h"] > 0, f"hyperbola semi-axis a_h must be positive, got {p['a_h']}")
        _require(p["b_h"] > 0, f"hyperbola semi-axis b_h must be positive, got {p['b_h']}")
    elif kind == "horizontal_strip":
        _require(set(p) == {"w"}, "horizontal_strip takes parameter w")
        _require(p["w"] > 0, f"horizontal_strip half-width w must be positive, got {p['w']}")


def left_conic_sector(a, theta):
    """Sector opening left from apex (a, 0) with half-angle theta."""
    return RegionPrimitive("left_conic_sector", {"a": float(a), "theta": float(theta)})


def right_conic_sector(a, theta):
    """Sector opening right from apex (a, 0) with half-angle theta."""
    return RegionPrimitive("right_conic_sector", {"a": float(a), "theta": float(theta)})


def disk(q, r):
    """Open disk centered at (q, 0) with radius r."""
    return RegionPrimitive("disk", {"q": float(q), "r": float(r)})


def vertical_strip(h, k):
    """Open strip {h < Re(z) < k}."""
    return RegionPrimitive("vertical_strip", {"h": float(h), "k": float(k)})


def left_half_plane(k):
    """Open half-plane {Re(z) < k}."""
    return RegionPrimitive("left_half_plane", {"k": float(k)})


def right_half_plane(h):
    """Open half-plane {Re(z) > h}."""
    return RegionPrimitive("right_half_plane", {"h": float(h)})


def ellipsoid(q_e, a_e, b_e):
    """Open ellipse centered at (q_e, 0), horizontal semi-axis a_e, vertical b_e."""
    return RegionPrimitive("ellipsoid", {"q_e": float(q_e), "a_e": float(a_e), "b_e": float(b_e)})


def left_parabola(q_p, c_p):
    """Region left of the parabola Re(z) = q_p - (c_p/2) Im(z)^2."""
    return RegionPrimitive("left_parabola", {"q_p": float(q_p), "c_p": float(c_p)})


def right_parabola(q_p, c_p):
    """Region right of the parabola Re(z) = q_p + (c_p/2) Im(z)^2."""
    return RegionPrimitive("right_parabola", {"q_p": float(q_p), "c_p": float(c_p)})


def left_hyperbola(a_h, b_h):
    """Interior of the left branch of x^2/a_h^2 - y^2/b_h^2 = 1."""
    return RegionPrimitive("left_hyperbola", {"a_h": float(a_h), "b_h": float(b_h)})


def right_hyperbola(a_h, b_h):
    """Interior of the right branch of x^2/a_h^2 - y^2/b_h^2 = 1."""
    return RegionPrimitive("right_hyperbola", {"a_h": float(a_h), "b_h": float(b_h)})


def horizontal_strip(w):
    """Open strip {|Im(z)| < w}."""
    return RegionPrimitive("horizontal_strip", {"w": float(w)})


def _primitive_bc(p: RegionPrimitive):
    """Characteristic matrices (B, C) of one primitive."""
    k = p.kind
    if k == "left_conic_sector":
        a, th = p.a, p.theta
        s, c = math.sin(th), math.cos(th)
        B = -2.0 * a * s * np.eye(2)
        C = np.array([[s, c], [-c, s]])
    elif k == "right_conic_sector":
        a, th = p.a, p.theta
        s, c = math.sin(th), math.cos(th)
        B = 2.0 * a * s * np.eye(2)
        C = np.array([[-s, c], [-c, -s]])
    elif k == "disk":
        q, r = p.q, p.r
        B = np.array([[-r, q], [q, -r]])
        C = np.array([[0.0, 0.0], [-1.0, 0.0]])
    elif k == "vertical_strip":
        h, kk = p.h, p.k
        B = np.diag([-2.0 * kk, 2.0 * h])
        C = np.diag([1.0, -1.0])
    elif k == "left_half_plane":
        B = np.array([[-2.0 * p.k]])
        C = np.array([[1.0]])
    elif k == "right_half_plane":
        B = np.array([[2.0 * p.h]])
        C = np.array([[-1.0]])
    elif k == "ellipsoid":
        q, a, b = p.q_e, p.a_e, p.b_e
        B = np.array([[-a, -q], [-q, -a]])
        C = np.array([[0.0, (1.0 + a / b) / 2.0], [(1.0 - a / b) / 2.0, 0.0]])
    elif k == "left_parabola":
        g = math.sqrt(p.c_p / 2.0)
        B = np.diag([-1.0, -p.q_p])
        C = np.array([[0.0, g / 2.0], [-g / 2.0, 0.5]])
    elif k == "right_parabola":
        g = math.sqrt(p.c_p / 2.0)
        B = np.diag([-1.0, p.q_p])
        C = np.array([[0.0, g / 2.0], [-g / 2.0, -0.5]])
    elif k == "left_hyperbola":
        a, b = p.a_h, p.b_h
        B = np.array([[0.0, 1.0], [1.0, 0.0]])
        C = np.array([[1.0 / (2 * a), 1.0 / (2 * b)], [-1.0 / (2 * b), 1.0 / (2 * a)]])
    elif k == "right_hyperbola":
        a, b = p.a_h, p.b_h
        B = np.array([[0.0, 1.0], [1.0, 0.0]])
        C = np.array([[-1.0 / (2 * a), 1.0 / (2 * b)], [-1.0 / (2 * b), -1.0 / (2 * a)]])
    elif k == "horizontal_strip":
        w = p.w
        B = np.diag([-w, -w])
        C = np.array([[0.0, 0.5], [-0.5, 0.0]])
    else:  # pragma: no cover
        raise ValueError(f"unknown region kind {k!r}")
    return B, C


def _freeze(a):
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class LmiRegion:
    """A region {z : B + C z + C^T conj(z) < 0} with its building blocks.

    B is stored exactly symmetric. (B, C) alone defines the region;
    `primitives` only labels a region assembled from primitives, for the
    file format, and is empty for regions built from raw (B, C). `scale`
    is the largest absolute entry of (B, C), derived on construction.
    """

    B: np.ndarray
    C: np.ndarray
    primitives: tuple = ()
    scale: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        B = np.asarray(self.B, dtype=float)
        C = np.asarray(self.C, dtype=float)
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise ValueError("B must be square")
        if C.shape != B.shape:
            raise ValueError("C must match the shape of B")
        object.__setattr__(self, "B", _freeze((B + B.T) / 2.0))
        object.__setattr__(self, "C", _freeze(C))
        object.__setattr__(self, "primitives", tuple(self.primitives))
        object.__setattr__(self, "scale", float(max(np.abs(self.B).max(initial=0.0),
                                                    np.abs(self.C).max(initial=0.0))))

    @property
    def size(self) -> int:
        return self.B.shape[0]


class Membership(NamedTuple):
    status: str  # "inside" | "boundary" | "outside"
    margin: float


def from_primitive(p: RegionPrimitive) -> LmiRegion:
    """Region for a single primitive; size 1 for half-planes, 2 otherwise."""
    B, C = _primitive_bc(p)
    return LmiRegion(B, C, (p,))


def intersect(*regions) -> LmiRegion:
    """Intersection of regions, by block-diagonal concatenation of (B, C)."""
    regs = [r if isinstance(r, LmiRegion) else from_primitive(r) for r in regions]
    if not regs:
        raise ValueError("intersect needs at least one region")
    B = block_diag(*[r.B for r in regs])
    C = block_diag(*[r.C for r in regs])
    prims = sum((r.primitives for r in regs), ())
    return LmiRegion(B, C, prims)


def characteristic_matrix(region: LmiRegion, z: complex) -> np.ndarray:
    """Evaluate B + C z + C^T conj(z); Hermitian by construction."""
    return _characteristic_stack(region, [z])[0]


def _characteristic_stack(region: LmiRegion, points) -> np.ndarray:
    """The characteristic matrices of the points as one (k, m, m) array."""
    z = np.asarray(points, dtype=complex).reshape(-1, 1, 1)
    F = region.B + region.C * z + region.C.T * np.conj(z)
    return (F + np.conj(np.swapaxes(F, 1, 2))) / 2.0


def membership_margins(region: LmiRegion, points) -> np.ndarray:
    """Membership margins of a vector of points, from one stacked eigvalsh.

    The margin of z is -lambda_max / min(1, scale), lambda_max the largest
    eigenvalue of its characteristic matrix, so positive margins mean
    strictly inside. The division keeps a region given by a tiny multiple
    of (B, C) from reading as all boundary under an absolute tolerance;
    for scale >= 1 the margin is -lambda_max itself. All-zero (B, C) is
    the empty set: every point is outside, at margin -inf.
    """
    if region.scale == 0.0:
        return np.full(np.size(points), -math.inf)
    lam_max = np.linalg.eigvalsh(_characteristic_stack(region, points))[:, -1]
    return -lam_max / min(1.0, region.scale)


def membership(region: LmiRegion, z: complex,
               margin_tol: float = DEFAULT_MARGIN_TOL) -> Membership:
    """Classify z by its margin from `membership_margins`: inside above
    margin_tol, outside below -margin_tol, boundary between."""
    margin = float(membership_margins(region, [z])[0])
    if margin > margin_tol:
        status = "inside"
    elif margin < -margin_tol:
        status = "outside"
    else:
        status = "boundary"
    return Membership(status, margin)


def uniform_part_nonempty(region: LmiRegion, tol: float = DEFAULT_MARGIN_TOL) -> bool:
    """True iff C + C^T is positive or negative definite.

    This is exactly the condition under which {z : C z + C^T conj(z) < 0}
    is a nonempty cone.
    """
    sym = region.C + region.C.T
    eigs = np.linalg.eigvalsh(sym)
    scale = max(1.0, float(np.abs(eigs).max()))
    return bool(eigs[0] > tol * scale or eigs[-1] < -tol * scale)


def real_section(region: LmiRegion):
    """The open interval {x real : B + x (C + C^T) < 0} as (lo, hi), or None
    when it is empty. The ends may be infinite.

    LMI regions are convex and symmetric about the real axis, so with z the
    region also holds Re(z): the section is the region's shadow on the real
    axis, and hi is its largest real part. Its ends are real roots of
    det(B + x (C + C^T)), so each gap between roots lies wholly in or out
    of it and one point of the gap decides. Roots where |B| is below the
    rounding of |x (C + C^T)| cannot be ends (a singular C + C^T puts
    spurious ones there), and a gap is in only by a margin above the
    rounding of B + x (C + C^T): a multiple root splits into a sliver.
    """
    B = region.B
    S = region.C + region.C.T
    b, s = np.abs(B).max(), np.abs(S).max()
    roots = scipy.linalg.eigvals(B, -S)
    roots = roots.real[np.isfinite(roots)]
    cuts = np.unique(roots[np.abs(roots) * s <= 1e12 * b]).tolist()
    inside = []
    for lo, hi in zip([-math.inf, *cuts], [*cuts, math.inf]):
        # the point of the gap nearest 0 that is well inside it
        if math.isinf(lo) and math.isinf(hi):
            x = 0.0
        elif math.isinf(lo) or (not math.isinf(hi) and abs(hi) < abs(lo)):
            x = hi - min((hi - lo) / 2.0, max(1.0, abs(hi)))
        else:
            x = lo + min((hi - lo) / 2.0, max(1.0, abs(lo)))
        if np.linalg.eigvalsh(B + x * S)[-1] < -1e-12 * (b + abs(x) * s):
            inside.append((lo, hi))
    if not inside:
        return None
    return _polish_root(B, S, inside[0][0]), _polish_root(B, S, inside[-1][1])


def _polish_root(B, S, x):
    """One Newton step on the eigenvalue of B + x S nearest 0, which
    vanishes at the root; QZ leaves simple roots a few ulps off."""
    if math.isinf(x):
        return x
    w, V = np.linalg.eigh(B + x * S)
    i = int(np.argmin(np.abs(w)))
    slope = V[:, i] @ S @ V[:, i]
    return float(x - w[i] / slope) if slope != 0.0 else float(x)


def connected_blocks(region: LmiRegion) -> list:
    """Regions whose intersection is `region`, one per connected component
    of the coupling pattern of (B, C), ordered by their first index.

    For a region assembled by `intersect`, each block is one primitive's
    (B, C) or, where that splits further (the vertical strip), a part of it.
    """
    coupled = (region.B != 0.0) | (region.C != 0.0) | (region.C.T != 0.0)
    placed = np.zeros(region.size, dtype=bool)
    blocks = []
    for first in range(region.size):
        if placed[first]:
            continue
        members = np.zeros(region.size, dtype=bool)
        members[first] = True
        frontier = members.copy()
        while frontier.any():
            frontier = coupled[frontier].any(axis=0) & ~members
            members |= frontier
        placed |= members
        idx = np.ix_(members, members)
        blocks.append(LmiRegion(region.B[idx], region.C[idx]))
    return blocks


def hurwitz() -> LmiRegion:
    """The open left half-plane {Re(z) < 0}."""
    return from_primitive(left_half_plane(0.0))


def schur() -> LmiRegion:
    """The open unit disk."""
    return from_primitive(disk(0.0, 1.0))


def is_hurwitz(region: LmiRegion) -> bool:
    """True iff the region is {Re(z) < 0} given as (B, C) = (0, c) with c > 0."""
    return region.size == 1 and region.B[0, 0] == 0.0 and region.C[0, 0] > 0.0


def in_closed_left_half_plane(region: LmiRegion) -> bool:
    """True iff the region lies in {Re(z) <= 0} (an empty region does)."""
    section = real_section(region)
    return section is None or section[1] <= 0.0


def region_from_dict(obj) -> LmiRegion:
    """Build a region from its JSON form.

    Accepted forms: {"intersect": [primitive, ...]}, {"raw": {"B": ..., "C": ...}},
    or a single primitive object {"kind": ..., ...}.
    """
    if not isinstance(obj, dict):
        raise ValueError("region spec must be a JSON object")
    if "raw" in obj:
        raw = obj["raw"]
        return LmiRegion(np.asarray(raw["B"], dtype=float),
                         np.asarray(raw["C"], dtype=float))
    if "intersect" in obj:
        prims = [_primitive_from_dict(d) for d in obj["intersect"]]
        if not prims:
            raise ValueError("region spec 'intersect' list is empty")
        return intersect(*prims)
    if "kind" in obj:
        return from_primitive(_primitive_from_dict(obj))
    raise ValueError("region spec needs one of the keys 'intersect', 'raw', 'kind'")


def _primitive_from_dict(d) -> RegionPrimitive:
    d = dict(d)
    try:
        kind = d.pop("kind")
    except KeyError:
        raise ValueError("primitive spec is missing 'kind'") from None
    return RegionPrimitive(kind, {k: float(v) for k, v in d.items()})


def region_to_dict(region: LmiRegion):
    if region.primitives:
        return {"intersect": [p.to_dict() for p in region.primitives]}
    return {"raw": {"B": region.B.tolist(), "C": region.C.tolist()}}


def load_region(path) -> LmiRegion:
    with open(path) as fh:
        return region_from_dict(json.load(fh))
