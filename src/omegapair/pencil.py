"""Generalized eigenstructure and admissibility diagnostics for real matrix pairs.

A pair (E, A) represents the pencil s E - A. The functions here classify
its eigenvalues as finite or infinite, decide regularity and
impulse-freeness numerically, and check whether every finite eigenvalue
lies inside a given LMI region.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from .regions import DEFAULT_MARGIN_TOL, LmiRegion, _json_matrix, membership_margins

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
        if E.ndim != 2 or E.shape[0] != E.shape[1]:
            raise ValueError(f"E must be a square matrix, got shape {E.shape}")
        if A.shape != E.shape:
            raise ValueError(f"E and A must share dimension, got {E.shape} and {A.shape}")
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "A", A)

    @property
    def n(self) -> int:
        return self.E.shape[0]


@dataclass
class SpectrumReport:
    """Eigenvalue classification of a pencil with the rank tolerance that made it.

    `residuals` and `residuals_left` are computed on first read, from one
    QZ with eigenvectors of `pair`; the admissibility verdict does not
    need them.
    """

    finite_eigenvalues: np.ndarray  # complex, length num_finite
    num_infinite: int
    rank_E: int
    is_regular: bool
    is_impulse_free: bool
    rank_tol: float
    regularity_witness: complex | None
    pair: MatrixPair = field(repr=False)
    scale: float  # sigma_max(E) + sigma_max(A)

    @property
    def num_finite(self) -> int:
        return len(self.finite_eigenvalues)

    @cached_property
    def _eigenvectors(self):
        """(lam, V, W): the finite eigenvalues with their right and left
        eigenvectors as columns, split by the same beta test as `spectrum`."""
        ab, vl, vr = scipy.linalg.eig(self.pair.A, self.pair.E, left=True, right=True,
                                      homogeneous_eigvals=True)
        alpha, beta = ab[0], ab[1]
        finite = np.abs(beta) > DEFAULT_BETA_TOL * self.scale
        return alpha[finite] / beta[finite], vr[:, finite], vl[:, finite]

    @cached_property
    def residuals(self) -> np.ndarray:
        """||lam E v - A v|| / ||v|| per finite eigenvalue."""
        lam, V, _ = self._eigenvectors
        E, A = self.pair.E, self.pair.A
        return _column_residuals((E @ V) * lam - A @ V, V)

    @cached_property
    def residuals_left(self) -> np.ndarray:
        """||lam w* E - w* A|| / ||w|| per finite eigenvalue."""
        lam, _, W = self._eigenvectors
        E, A = self.pair.E, self.pair.A
        Wh = W.conj().T
        return _column_residuals(((Wh @ E) * lam[:, None] - Wh @ A).T, W)


def _column_residuals(R, V):
    """Column norms of R over the column norms of V (over 1 for a zero column)."""
    nv = np.linalg.norm(V, axis=0)
    return np.linalg.norm(R, axis=0) / np.where(nv > 0, nv, 1.0)


@dataclass
class AdmissibilityVerdict:
    admissible: bool
    reasons: list = field(default_factory=list)
    worst_margin: float = np.inf
    margins: np.ndarray | None = None
    spectrum: SpectrumReport | None = None


def spectrum(pair: MatrixPair) -> SpectrumReport:
    """Generalized eigenvalues of s E - A with finite/infinite split.

    An eigenvalue (alpha_i, beta_i) from the QZ reduction counts as finite
    when |beta_i| > DEFAULT_BETA_TOL * (||E|| + ||A||); rank(E) counts the
    singular values above the report's `rank_tol`, n * eps * sigma_max(E).
    The QZ computes eigenvalues only, and the singular values of E and of
    A (one SVD each) give the scale, rank(E) and the regularity test's
    sample at s = 0.
    """
    E, A = pair.E, pair.A
    n = pair.n
    sv_E = scipy.linalg.svdvals(E)
    sv_A = scipy.linalg.svdvals(A)
    scale = _largest(sv_E) + _largest(sv_A)
    rank_tol = n * np.finfo(float).eps * _largest(sv_E)
    rank_E = int(np.sum(sv_E > rank_tol))

    regular, witness = _regularity(E, A, scale, sv_A)

    if scale == 0.0:
        return SpectrumReport(np.zeros(0, complex), n, 0, False, False, rank_tol,
                              witness, pair, scale)

    alpha, beta = scipy.linalg.eig(A, E, left=False, right=False, homogeneous_eigvals=True)
    finite_mask = np.abs(beta) > DEFAULT_BETA_TOL * scale
    lam = alpha[finite_mask] / beta[finite_mask]

    num_infinite = int(np.sum(~finite_mask))
    is_impulse_free = regular and (len(lam) == rank_E)
    return SpectrumReport(lam, num_infinite, rank_E, regular, is_impulse_free, rank_tol,
                          witness, pair, scale)


def _largest(sv) -> float:
    return float(sv[0]) if len(sv) else 0.0


def regularity_check(pair: MatrixPair):
    """Decide det(s E - A) != 0 for some s, with a witness point.

    Samples s over {0, +-1, +-i} plus eight seeded Gaussian points; one
    sample with sigma_min(s E - A) >= REGULARITY_TOL (||E|| + ||A||)
    certifies regularity, numerical singularity at every sample is taken
    as singular.
    """
    sv_A = scipy.linalg.svdvals(pair.A)
    scale = _largest(scipy.linalg.svdvals(pair.E)) + _largest(sv_A)
    return _regularity(pair.E, pair.A, scale, sv_A)


def _regularity(E, A, scale, sv_A):
    """`regularity_check` given scale = sigma_max(E) + sigma_max(A) and the
    singular values sv_A of A, whose smallest is the sample at s = 0."""
    if scale == 0.0:
        return False, None
    rng = np.random.default_rng(_REGULARITY_SEED)
    samples = [0.0, 1.0, -1.0, 1j, -1j]
    samples += list(rng.standard_normal(8) + 1j * rng.standard_normal(8))
    best = (-np.inf, None)
    for s in samples:
        smin = sv_A[-1] if s == 0.0 else scipy.linalg.svdvals(s * E - A)[-1]
        rel = smin / scale
        if rel > best[0]:
            best = (rel, s)
        if rel >= REGULARITY_TOL:
            return True, s
    return False, best[1]


def admissibility_check(pair: MatrixPair, region: LmiRegion,
                        margin_tol: float = DEFAULT_MARGIN_TOL) -> AdmissibilityVerdict:
    """Regular, impulse-free, and all finite eigenvalues inside the region.

    Eigenvalues are accepted when their membership margin is >= 0 at the
    given margin_tol (boundary points within margin_tol count as inside).
    A margin_tol that is negative, infinite or NaN raises ValueError: an
    infinite or NaN one would accept every eigenvalue.
    """
    if not 0.0 <= margin_tol < np.inf:
        raise ValueError(f"margin_tol must be finite and non-negative, got {margin_tol!r}")
    rep = spectrum(pair)
    reasons = []
    if not rep.is_regular:
        reasons.append("not regular: det(sE - A) vanishes at all sample points")
    if rep.is_regular and not rep.is_impulse_free:
        reasons.append(
            f"not impulse-free: {rep.num_finite} finite eigenvalues != rank(E) = {rep.rank_E}")
    margins = membership_margins(region, rep.finite_eigenvalues)
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
    """Read a pair from JSON {"E": ..., "A": ...} or CSV (E block stacked on
    A). A malformed file or a non-finite entry raises ValueError."""
    path = str(path)
    if path.endswith(".json"):
        with open(path) as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict):
            raise ValueError(f"pair file {path} must hold a JSON object with fields E and A")
        try:
            E, A = obj["E"], obj["A"]
        except KeyError as exc:
            raise ValueError(f"pair file {path} is missing field {exc}") from None
        pair = MatrixPair(_json_matrix(E, f"pair file {path} field 'E'"),
                          _json_matrix(A, f"pair file {path} field 'A'"))
    else:
        with warnings.catch_warnings():
            # a file without data is refused below by its shape, (0, 1)
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            data = np.loadtxt(path, delimiter=",", ndmin=2)
        rows, n = data.shape
        if rows != 2 * n:
            raise ValueError(
                f"CSV pair file must hold two stacked n x n blocks, got shape {data.shape}")
        pair = MatrixPair(data[:n], data[n:])
    if not (np.isfinite(pair.E).all() and np.isfinite(pair.A).all()):
        raise ValueError(f"pair file {path} holds a non-finite entry")
    return pair


def save_pair(path, pair: MatrixPair):
    with open(path, "w") as fh:
        json.dump({"E": pair.E.tolist(), "A": pair.A.tolist()}, fh, indent=1)
