"""LMI regions of the complex plane.

A region is the set {z : B + C z + C^T conj(z) < 0} (matrix negative
definite) for a real symmetric B and a real square C. This module builds
such (B, C) pairs for twelve standard primitives (half-planes, strips,
disks, conic sectors, ellipses, parabolic and hyperbolic regions),
composes them by intersection, and evaluates membership of complex
points. One table, `_PRIMITIVES`, holds each kind's parameter names, the
ones that must be positive, and its (B, C); only the sector's 0 < theta <
pi/2 and the vertical strip's h < k are checked outside it. Everything the
solvers need from a region (its real-axis section, its connected diagonal
blocks) is read from (B, C) alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

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


# The (B, C) of each primitive. A mirror pair shares one formula, with
# sign +1 for the member that opens left and -1 for the one that opens right.

def _conic_sector(sign, a, theta):
    s, c = math.sin(theta), math.cos(theta)
    B = -sign * 2.0 * a * s * np.eye(2)
    C = np.array([[sign * s, c], [-c, sign * s]])
    return B, C


def _disk(q, r):
    B = np.array([[-r, q], [q, -r]])
    C = np.array([[0.0, 0.0], [-1.0, 0.0]])
    return B, C


def _vertical_strip(h, k):
    B = np.diag([-2.0 * k, 2.0 * h])
    C = np.diag([1.0, -1.0])
    return B, C


def _half_plane(sign, edge):
    B = np.array([[-sign * 2.0 * edge]])
    C = np.array([[sign]])
    return B, C


def _ellipsoid(q, a, b):
    B = np.array([[-a, -q], [-q, -a]])
    C = np.array([[0.0, (1.0 + a / b) / 2.0], [(1.0 - a / b) / 2.0, 0.0]])
    return B, C


def _parabola(sign, q, c):
    g = math.sqrt(c / 2.0)
    B = np.diag([-1.0, -sign * q])
    C = np.array([[0.0, g / 2.0], [-g / 2.0, sign * 0.5]])
    return B, C


def _hyperbola(sign, a, b):
    B = np.array([[0.0, 1.0], [1.0, 0.0]])
    C = np.array([[sign / (2 * a), 1.0 / (2 * b)], [-1.0 / (2 * b), sign / (2 * a)]])
    return B, C


def _horizontal_strip(w):
    B = np.diag([-w, -w])
    C = np.array([[0.0, 0.5], [-0.5, 0.0]])
    return B, C


class _Kind(NamedTuple):
    params: tuple         # parameter names, in constructor order
    bc: Callable          # (B, C) from the parameter values, in that order
    positive: tuple = ()  # parameters that must be positive


_PRIMITIVES = {
    "left_conic_sector": _Kind(("a", "theta"), partial(_conic_sector, 1.0)),
    "right_conic_sector": _Kind(("a", "theta"), partial(_conic_sector, -1.0)),
    "disk": _Kind(("q", "r"), _disk, ("r",)),
    "vertical_strip": _Kind(("h", "k"), _vertical_strip),
    "left_half_plane": _Kind(("k",), partial(_half_plane, 1.0)),
    "right_half_plane": _Kind(("h",), partial(_half_plane, -1.0)),
    "ellipsoid": _Kind(("q_e", "a_e", "b_e"), _ellipsoid, ("a_e", "b_e")),
    "left_parabola": _Kind(("q_p", "c_p"), partial(_parabola, 1.0), ("c_p",)),
    "right_parabola": _Kind(("q_p", "c_p"), partial(_parabola, -1.0), ("c_p",)),
    "left_hyperbola": _Kind(("a_h", "b_h"), partial(_hyperbola, 1.0), ("a_h", "b_h")),
    "right_hyperbola": _Kind(("a_h", "b_h"), partial(_hyperbola, -1.0), ("a_h", "b_h")),
    "horizontal_strip": _Kind(("w",), _horizontal_strip, ("w",)),
}


@dataclass(frozen=True)
class RegionPrimitive:
    """One elementary region, identified by kind and scalar parameters."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        row = _PRIMITIVES.get(self.kind) if isinstance(self.kind, str) else None
        _require(row is not None, f"unknown region kind {self.kind!r}")
        p = self.params
        _require(set(p) == set(row.params),
                 f"{self.kind} takes parameters {', '.join(row.params)}")
        for name in row.positive:
            _require(p[name] > 0, f"{self.kind} parameter {name} must be positive, "
                                  f"got {p[name]}")
        if self.kind in ("left_conic_sector", "right_conic_sector"):
            _require(0.0 < p["theta"] < math.pi / 2,
                     f"sector half-angle theta must be in (0, pi/2), got {p['theta']}")
        if self.kind == "vertical_strip":
            _require(p["h"] < p["k"],
                     f"vertical_strip needs h < k, got h={p['h']}, k={p['k']}")

    def __getattr__(self, name):
        # p.r reads params["r"]; through vars(), as copy and pickle look
        # attributes up before `params` is set
        try:
            return vars(self)["params"][name]
        except KeyError:
            raise AttributeError(name) from None

    def to_dict(self):
        return {"kind": self.kind, **self.params}


def _require(cond, message):
    if not cond:
        raise ValueError(message)


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
        if not (np.isfinite(B).all() and np.isfinite(C).all()):
            raise ValueError("B and C must be finite")
        object.__setattr__(self, "B", _freeze((B + B.T) / 2.0))
        object.__setattr__(self, "C", _freeze(C))
        object.__setattr__(self, "primitives", tuple(self.primitives))
        object.__setattr__(self, "scale", float(max(np.abs(self.B).max(initial=0.0),
                                                    np.abs(self.C).max(initial=0.0))))

    def __reduce__(self):
        # rebuild through __init__, which makes (B, C) read-only again
        return LmiRegion, (self.B, self.C, self.primitives)

    @property
    def size(self) -> int:
        return self.B.shape[0]


class Membership(NamedTuple):
    status: str  # "inside" | "boundary" | "outside"
    margin: float


def from_primitive(p: RegionPrimitive) -> LmiRegion:
    """Region for a single primitive; size 1 for half-planes, 2 otherwise."""
    row = _PRIMITIVES[p.kind]
    B, C = row.bc(*(p.params[name] for name in row.params))
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


def membership(region: LmiRegion, z: complex) -> Membership:
    """Classify z by its margin from `membership_margins`: inside above
    DEFAULT_MARGIN_TOL, outside below -DEFAULT_MARGIN_TOL, boundary between."""
    margin = float(membership_margins(region, [z])[0])
    if margin > DEFAULT_MARGIN_TOL:
        status = "inside"
    elif margin < -DEFAULT_MARGIN_TOL:
        status = "outside"
    else:
        status = "boundary"
    return Membership(status, margin)


def uniform_part_nonempty(region: LmiRegion) -> bool:
    """True iff C + C^T is positive or negative definite.

    This is exactly the condition under which {z : C z + C^T conj(z) < 0}
    is a nonempty cone.
    """
    sym = region.C + region.C.T
    eigs = np.linalg.eigvalsh(sym)
    tol = DEFAULT_MARGIN_TOL * max(1.0, float(np.abs(eigs).max()))
    return bool(eigs[0] > tol or eigs[-1] < -tol)


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
    _require(isinstance(obj, dict), "region spec must be a JSON object")
    if "raw" in obj:
        raw = obj["raw"]
        _require(isinstance(raw, dict), "region spec 'raw' must be an object")
        _require("B" in raw and "C" in raw, "region spec 'raw' needs matrices 'B' and 'C'")
        return LmiRegion(_json_matrix(raw["B"], "region spec 'raw' field 'B'"),
                         _json_matrix(raw["C"], "region spec 'raw' field 'C'"))
    if "intersect" in obj:
        items = obj["intersect"]
        _require(isinstance(items, list) and all(isinstance(d, dict) for d in items),
                 "region spec 'intersect' must be a list of primitive objects")
        _require(items, "region spec 'intersect' list is empty")
        return intersect(*[_primitive_from_dict(d) for d in items])
    if "kind" in obj:
        return from_primitive(_primitive_from_dict(obj))
    raise ValueError("region spec needs one of the keys 'intersect', 'raw', 'kind'")


def _primitive_from_dict(d) -> RegionPrimitive:
    d = dict(d)
    try:
        kind = d.pop("kind")
    except KeyError:
        raise ValueError("primitive spec is missing 'kind'") from None
    for name, value in d.items():
        _require(isinstance(value, (int, float)) and not isinstance(value, bool),
                 f"primitive parameter {name!r} must be a number, got {value!r}")
    return RegionPrimitive(kind, {k: float(v) for k, v in d.items()})


def _json_matrix(value, what):
    """A JSON matrix field as a 2-D float array; a value that is no array
    of rows of numbers (a bare number, a flat list, an object, a string, a
    boolean, ragged rows) raises a ValueError naming it. Booleans are
    looked for entry by entry, since numpy reads true and false as 1 and
    0."""
    pending = [value]
    while pending:
        item = pending.pop()
        if isinstance(item, list):
            pending.extend(item)
        elif isinstance(item, bool):
            raise ValueError(f"{what} must be a matrix of numbers, got a boolean entry")
    try:
        M = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        M = None
    if M is None or M.ndim != 2:
        raise ValueError(f"{what} must be a matrix of numbers, a JSON array of rows")
    return M


def region_to_dict(region: LmiRegion):
    if region.primitives:
        return {"intersect": [p.to_dict() for p in region.primitives]}
    return {"raw": {"B": region.B.tolist(), "C": region.C.tolist()}}


def load_region(path) -> LmiRegion:
    with open(path) as fh:
        return region_from_dict(json.load(fh))
