"""Generalized eigenstructure and admissibility diagnostics for real matrix pairs.

A pair (E, A) represents the pencil s E - A. The functions here classify
its eigenvalues as finite or infinite, decide regularity and
impulse-freeness numerically, and check whether every finite eigenvalue
lies inside a given LMI region.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .regions import DEFAULT_MARGIN_TOL, LmiRegion, membership

__all__ = [
    "MatrixPair",
    "SpectrumReport",
    "AdmissibilityVerdict",
    "spectrum",
    "regularity_check",
    "admissibility_check",
    "eigenvalue_parts",
    "invertibility",
    "load_pair",
    "save_pair",
]

DEFAULT_BETA_TOL = 1e-8
REGULARITY_TOL = 1e-12
_REGULARITY_SEED = 730552
_COND_LIMIT_FACTOR = 1e-12  # M counts as singular when cond(M) > 1/(n * this)


@dataclass(frozen=True)
class MatrixPair:
    """The data (E, A) of a square real pencil s E - A."""

    E: np.ndarray
    A: np.ndarray

    def __post_init__(self):
        E = np.atleast_2d(np.asarray(self.E, dtype=float))
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        if E.shape[0] != E.shape[1]:
            raise ValueError(f"E must be square, got {E.shape}")
        if A.shape != E.shape:
            raise ValueError(f"E and A must share dimension, got {E.shape} and {A.shape}")
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "A", A)

    @property
    def n(self) -> int:
        return self.E.shape[0]


@dataclass
class SpectrumReport:
    """Eigenvalue classification of a pencil with the tolerances that made it."""

    finite_eigenvalues: np.ndarray  # complex, length num_finite
    residuals: np.ndarray           # right eigenvector residuals, per finite eigenvalue
    residuals_left: np.ndarray      # left eigenvector residuals, per finite eigenvalue
    num_infinite: int
    rank_E: int
    is_regular: bool
    is_impulse_free: bool
    rank_tol: float
    beta_tol: float
    regularity_witness: complex | None = None

    @property
    def num_finite(self) -> int:
        return len(self.finite_eigenvalues)


@dataclass
class AdmissibilityVerdict:
    admissible: bool
    reasons: list = field(default_factory=list)
    worst_margin: float = np.inf
    margins: np.ndarray | None = None
    spectrum: SpectrumReport | None = None


def spectrum(pair: MatrixPair, rank_tol: float | None = None,
             beta_tol: float = DEFAULT_BETA_TOL) -> SpectrumReport:
    """Generalized eigenvalues of s E - A with finite/infinite split.

    An eigenvalue (alpha_i, beta_i) from the QZ reduction counts as finite
    when |beta_i| > beta_tol * (||E|| + ||A||); rank(E) comes from the
    singular values with threshold rank_tol (default n * eps * sigma_max).
    """
    E, A = pair.E, pair.A
    n = pair.n
    scale = scipy.linalg.norm(E, 2) + scipy.linalg.norm(A, 2)

    sv = scipy.linalg.svdvals(E)
    if rank_tol is None:
        rank_tol = n * np.finfo(float).eps * (sv[0] if len(sv) else 0.0)
    rank_E = int(np.sum(sv > rank_tol))

    regular, witness = regularity_check(pair)

    if scale == 0.0:
        return SpectrumReport(np.zeros(0, complex), np.zeros(0), np.zeros(0),
                              n, 0, False, False, rank_tol, beta_tol, witness)

    ab, vl, vr = scipy.linalg.eig(A, E, left=True, right=True,
                                  homogeneous_eigvals=True)
    alpha, beta = ab[0], ab[1]
    finite_mask = np.abs(beta) > beta_tol * scale
    lam = alpha[finite_mask] / beta[finite_mask]

    res = np.empty(len(lam))
    res_l = np.empty(len(lam))
    vfin = vr[:, finite_mask]
    wfin = vl[:, finite_mask]
    for i, lv in enumerate(lam):
        v = vfin[:, i]
        nv = np.linalg.norm(v)
        res[i] = np.linalg.norm(lv * (E @ v) - A @ v) / (nv if nv > 0 else 1.0)
        w = wfin[:, i]
        nw = np.linalg.norm(w)
        res_l[i] = np.linalg.norm(lv * (w.conj() @ E) - w.conj() @ A) / (nw if nw > 0 else 1.0)

    num_infinite = int(np.sum(~finite_mask))
    is_impulse_free = regular and (len(lam) == rank_E)
    return SpectrumReport(lam, res, res_l, num_infinite, rank_E, regular,
                          is_impulse_free, rank_tol, beta_tol, witness)


def regularity_check(pair: MatrixPair, tol: float = REGULARITY_TOL):
    """Decide det(s E - A) != 0 for some s, with a witness point.

    Samples s over {0, +-1, +-i} plus eight seeded Gaussian points; one
    well-conditioned sample certifies regularity, numerical singularity at
    every sample is taken as singular.
    """
    E, A = pair.E, pair.A
    scale = scipy.linalg.norm(E, 2) + scipy.linalg.norm(A, 2)
    if scale == 0.0:
        return False, None
    rng = np.random.default_rng(_REGULARITY_SEED)
    samples = [0.0, 1.0, -1.0, 1j, -1j]
    samples += list(rng.standard_normal(8) + 1j * rng.standard_normal(8))
    best = (-np.inf, None)
    for s in samples:
        smin = scipy.linalg.svdvals(s * E - A)[-1]
        rel = smin / scale
        if rel > best[0]:
            best = (rel, s)
        if rel >= tol:
            return True, s
    return False, best[1]


def admissibility_check(pair: MatrixPair, region: LmiRegion,
                        margin_tol: float = DEFAULT_MARGIN_TOL,
                        report: SpectrumReport | None = None) -> AdmissibilityVerdict:
    """Regular, impulse-free, and all finite eigenvalues inside the region.

    Eigenvalues are accepted when their membership margin is >= 0 at the
    given margin_tol (boundary points within margin_tol count as inside).
    """
    rep = report if report is not None else spectrum(pair)
    reasons = []
    if not rep.is_regular:
        reasons.append("not regular: det(sE - A) vanishes at all sample points")
    if rep.is_regular and not rep.is_impulse_free:
        reasons.append(
            f"not impulse-free: {rep.num_finite} finite eigenvalues != rank(E) = {rep.rank_E}")
    margins = np.array([membership(region, z, margin_tol).margin
                        for z in rep.finite_eigenvalues])
    worst = float(margins.min()) if len(margins) else np.inf
    if len(margins) and worst < -margin_tol:
        bad = rep.finite_eigenvalues[int(np.argmin(margins))]
        reasons.append(f"eigenvalue {bad:.6g} outside region (margin {worst:.3e})")
    return AdmissibilityVerdict(admissible=not reasons, reasons=reasons,
                                worst_margin=worst, margins=margins, spectrum=rep)


def invertibility(M):
    """(ok, rcond): rcond = 1 / cond(M), 0 for a singular M; ok iff
    cond(M) <= 1 / (n * 1e-12)."""
    cond = np.linalg.cond(M)
    rcond = 1.0 / cond if np.isfinite(cond) and cond > 0 else 0.0
    return bool(rcond >= M.shape[0] * _COND_LIMIT_FACTOR), float(rcond)


def eigenvalue_parts(E, J, R, Q, x):
    """Real and imaginary part of an eigenvalue from its left eigenvector.

    For a structured pair (E, (J - R) Q) with skew J, symmetric R and
    invertible Q such that Q^T E = E^T Q >= 0, a left eigenvector x gives

        Re(lambda) = -x* R x / x* E Q^{-1} x,
        Im(lambda) = -i x* J x / x* E Q^{-1} x.

    Raises when Q is singular or the denominator vanishes (which would
    contradict the regularity hypothesis on the pair).
    """
    E = np.asarray(E, dtype=float)
    J = np.asarray(J, dtype=float)
    R = np.asarray(R, dtype=float)
    Q = np.asarray(Q, dtype=float)
    x = np.asarray(x, dtype=complex).reshape(-1)
    if np.allclose(x, 0):
        raise ValueError("eigenvector x must be nonzero")
    if not invertibility(Q)[0]:
        raise np.linalg.LinAlgError("Q is numerically singular")
    EQinv = E @ np.linalg.inv(Q)
    denom = complex(x.conj() @ (EQinv @ x))
    scale = float(np.linalg.norm(x) ** 2) * max(np.linalg.norm(EQinv, 2), 1e-300)
    if abs(denom) <= 1e-14 * scale:
        raise ValueError(
            "x* E Q^{-1} x vanished; the regularity hypothesis on the pair fails "
            "(E and (J - R) Q share a left null direction at x)")
    re = -complex(x.conj() @ (R @ x)) / denom
    im = -1j * complex(x.conj() @ (J @ x)) / denom
    return float(re.real), float(im.real)


def load_pair(path) -> MatrixPair:
    """Read a pair from JSON {"E": ..., "A": ...} or CSV (E block stacked on A)."""
    path = str(path)
    if path.endswith(".json"):
        with open(path) as fh:
            obj = json.load(fh)
        try:
            return MatrixPair(np.asarray(obj["E"], float), np.asarray(obj["A"], float))
        except KeyError as exc:
            raise ValueError(f"pair file {path} is missing field {exc}") from None
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    rows, n = data.shape
    if rows != 2 * n:
        raise ValueError(
            f"CSV pair file must hold two stacked n x n blocks, got shape {data.shape}")
    return MatrixPair(data[:n], data[n:])


def save_pair(path, pair: MatrixPair):
    with open(path, "w") as fh:
        json.dump({"E": pair.E.tolist(), "A": pair.A.tolist()}, fh, indent=1)
