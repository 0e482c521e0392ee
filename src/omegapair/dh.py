"""Structured (T, J, R, Q) parametrization of admissible pairs.

A quadruple with symmetric T, skew-symmetric J, symmetric R and invertible
Q realizes the pair (T Q, (J - R) Q). With T positive semidefinite and R
positive definite the realized pair is automatically regular and
impulse-free, and the Kronecker-assembled region LMI decides whether its
finite eigenvalues sit inside a given LMI region. This module holds the
quadruple type, the LMI assemblies, certificate verification, and the
conversion from a feasibility certificate X to a quadruple.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pencil import MatrixPair, admissibility_check, invertibility
from .regions import LmiRegion

__all__ = [
    "DhParam",
    "Certificate",
    "ConditionResult",
    "sym",
    "skew",
    "project_psd",
    "realize",
    "region_lmi",
    "region_lmi_pair",
    "certify_admissibility",
    "dh_from_certificate",
    "verify_certificate",
    "dh_to_dict",
    "dh_from_dict",
]

DEFAULT_DEF_TOL = 1e-9
DH_SCHEMA_VERSION = 1


def sym(M):
    return (M + M.T) / 2.0


def skew(M):
    return (M - M.T) / 2.0


def project_psd(M, floor=0.0):
    """Nearest PSD matrix in Frobenius norm: clip eigenvalues of the
    symmetric part at floor."""
    w, V = np.linalg.eigh(sym(np.asarray(M, dtype=float)))
    return (V * np.maximum(w, floor)) @ V.T


def _lam_range(M):
    w = np.linalg.eigvalsh(sym(M))
    return float(w[0]), float(w[-1])


def neg_def_margin(M, tol=DEFAULT_DEF_TOL):
    """Positive when M < 0 holds with the scaled threshold
    lambda_max(M) <= -tol * (1 + ||M||)."""
    lo, hi = _lam_range(M)
    scale = 1.0 + max(abs(lo), abs(hi))
    return -hi - tol * scale


def pos_def_margin(M, tol=DEFAULT_DEF_TOL):
    lo, hi = _lam_range(M)
    scale = 1.0 + max(abs(lo), abs(hi))
    return lo - tol * scale


def psd_margin(M, tol=DEFAULT_DEF_TOL):
    """Positive when M >= -tol * (1 + ||M||) * I, i.e. PSD up to tolerance."""
    lo, hi = _lam_range(M)
    scale = 1.0 + max(abs(lo), abs(hi))
    return lo + tol * scale


@dataclass(frozen=True)
class DhParam:
    """Solver variables (T, J, R, Q); symmetrized on construction."""

    T: np.ndarray
    J: np.ndarray
    R: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        T = sym(np.asarray(self.T, dtype=float))
        J = skew(np.asarray(self.J, dtype=float))
        R = sym(np.asarray(self.R, dtype=float))
        Q = np.asarray(self.Q, dtype=float)
        n = T.shape[0]
        for name, M in (("T", T), ("J", J), ("R", R), ("Q", Q)):
            if M.shape != (n, n):
                raise ValueError(f"{name} must be {n}x{n}, got {M.shape}")
        for name, M in (("T", T), ("J", J), ("R", R), ("Q", Q)):
            object.__setattr__(self, name, M)

    @property
    def n(self) -> int:
        return self.T.shape[0]


def realize(d: DhParam) -> MatrixPair:
    """The pair (T Q, (J - R) Q) realized by the quadruple.

    Raises when Q is numerically singular.
    """
    ok, rcond = invertibility(d.Q)
    if not ok:
        raise np.linalg.LinAlgError(
            f"Q is numerically singular (reciprocal condition {rcond:.3e})")
    return MatrixPair(d.T @ d.Q, (d.J - d.R) @ d.Q)


def region_lmi(region: LmiRegion, T, J, R) -> np.ndarray:
    """Kronecker assembly B (x) T + (C - C^T) (x) J - (C + C^T) (x) R.

    Negative definiteness of this matrix is the region constraint on the
    reduced variables; it is linear in (T, J, R).
    """
    B, C = region.B, region.C
    n = np.asarray(T).shape[0]
    for name, M in (("T", T), ("J", J), ("R", R)):
        if np.asarray(M).shape != (n, n):
            raise ValueError(f"{name} must be {n}x{n}")
    M = (np.kron(B, T) + np.kron(C - C.T, J) - np.kron(C + C.T, R))
    return sym(M)


def region_lmi_pair(region: LmiRegion, E, J, R, Q) -> np.ndarray:
    """Assembly B (x) Q^T E + (C-C^T) (x) Q^T J Q - (C+C^T) (x) Q^T R Q.

    Equals the congruence (I (x) Q)^T region_lmi(region, E Q^{-1}, J, R)
    (I (x) Q) whenever Q^T E is symmetric.
    """
    B, C = region.B, region.C
    E = np.asarray(E, dtype=float)
    n = E.shape[0]
    for name, M in (("J", J), ("R", R), ("Q", Q)):
        if np.asarray(M).shape != (n, n):
            raise ValueError(f"{name} must be {n}x{n}")
    M = (np.kron(B, Q.T @ E) + np.kron(C - C.T, Q.T @ J @ Q)
         - np.kron(C + C.T, Q.T @ R @ Q))
    return sym(M)


@dataclass
class ConditionResult:
    name: str
    ok: bool
    margin: float


@dataclass
class SufficiencyVerdict:
    certified: bool
    conditions: list
    admissibility: object | None = None  # cross-check by the pencil module

    def failed(self):
        return [c.name for c in self.conditions if not c.ok]


def certify_admissibility(region: LmiRegion, E, J, R, Q,
                          tol: float = DEFAULT_DEF_TOL,
                          cross_check: bool = True) -> SufficiencyVerdict:
    """Sufficient-condition check that (E, (J - R) Q) is admissible.

    Verifies J skew, R positive definite, Q invertible, Q^T E symmetric
    PSD, and the region LMI negative definite, each with the scaled
    eigenvalue threshold. When all hold the realized pair is certified
    admissible; the verdict also carries an independent spectrum-based
    admissibility check of the same pair.
    """
    E = np.asarray(E, dtype=float)
    J = np.asarray(J, dtype=float)
    R = np.asarray(R, dtype=float)
    Q = np.asarray(Q, dtype=float)
    conds = []

    dev = np.linalg.norm(J + J.T) - tol * (1.0 + np.linalg.norm(J))
    conds.append(ConditionResult("J skew-symmetric", dev <= 0, -dev))

    m = pos_def_margin(R, tol)
    conds.append(ConditionResult("R positive definite", m > 0, m))

    ok_q, rcond = invertibility(Q)
    conds.append(ConditionResult("Q invertible", ok_q, rcond))

    QE = Q.T @ E
    asym = np.linalg.norm(QE - QE.T) - tol * (1.0 + np.linalg.norm(QE))
    conds.append(ConditionResult("Q^T E symmetric", asym <= 0, -asym))
    m = psd_margin(sym(QE), tol)
    conds.append(ConditionResult("Q^T E PSD", m >= 0, m))

    M = region_lmi_pair(region, E, J, R, Q)
    m = neg_def_margin(M, tol)
    conds.append(ConditionResult("region LMI negative definite", m > 0, m))

    certified = all(c.ok for c in conds)
    check = None
    if cross_check and ok_q:
        check = admissibility_check(MatrixPair(E, (J - R) @ Q), region)
    return SufficiencyVerdict(certified, conds, check)


def dh_from_certificate(A, X) -> tuple:
    """Split A X^{-1} into skew and negated-symmetric parts with Q = X.

    Returns (J, R, Q) with (J - R) Q = A up to roundoff. Raises for
    singular X.
    """
    A = np.asarray(A, dtype=float)
    X = np.asarray(X, dtype=float)
    if not invertibility(X)[0]:
        raise np.linalg.LinAlgError("certificate matrix X is numerically singular")
    AXinv = np.linalg.solve(X.T, A.T).T
    return skew(AXinv), -sym(AXinv), X.copy()


@dataclass(frozen=True)
class Certificate:
    """A candidate feasibility certificate.

    kind "X": single matrix X with E^T X = X^T E >= 0 and the strict
        Kronecker LMI in (E, A, X).
    kind "PS": matrices (P, S) for regions in the open left half-plane,
        with the nonstrict Kronecker LMI.
    kind "S": matrix S augmenting a structured quadruple (passed to
        verify_certificate) for the nonstrict shifted LMI.
    """

    kind: str
    X: np.ndarray | None = None
    P: np.ndarray | None = None
    S: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("X", "PS", "S"):
            raise ValueError(f"unknown certificate kind {self.kind!r}")
        need = {"X": ("X",), "PS": ("P", "S"), "S": ("S",)}[self.kind]
        for name in need:
            if getattr(self, name) is None:
                raise ValueError(f"certificate kind {self.kind!r} needs matrix {name}")


def verify_certificate(cert: Certificate, pair: MatrixPair, region: LmiRegion,
                       tol: float = DEFAULT_DEF_TOL,
                       dh: DhParam | None = None) -> SufficiencyVerdict:
    """Evaluate every LMI of the certificate's characterization.

    kind "X" needs no extra data; kind "PS" applies to regions in the open
    left half-plane; kind "S" additionally requires the structured
    quadruple `dh` whose realized pair is being certified.
    """
    E, A = pair.E, pair.A
    B, C = region.B, region.C
    conds = []

    if cert.kind == "X":
        X = np.asarray(cert.X, dtype=float)
        EX = E.T @ X
        asym = np.linalg.norm(EX - X.T @ E) - tol * (1.0 + np.linalg.norm(EX))
        conds.append(ConditionResult("E^T X symmetric", asym <= 0, -asym))
        conds.append(ConditionResult("E^T X PSD", psd_margin(sym(EX), tol) >= 0,
                                     psd_margin(sym(EX), tol)))
        M = np.kron(B, EX) + np.kron(C, X.T @ A) + np.kron(C.T, A.T @ X)
        m = neg_def_margin(sym(M), tol)
        conds.append(ConditionResult("Kronecker LMI negative definite", m > 0, m))
    elif cert.kind == "PS":
        P = np.asarray(cert.P, dtype=float)
        S = np.asarray(cert.S, dtype=float)
        EP, ES = E @ P, E @ S
        for name, M in (("E P", EP), ("E S", ES)):
            asym = np.linalg.norm(M - M.T) - tol * (1.0 + np.linalg.norm(M))
            conds.append(ConditionResult(f"{name} symmetric", asym <= 0, -asym))
            m = psd_margin(sym(M), tol)
            conds.append(ConditionResult(f"{name} PSD", m >= 0, m))
        m = neg_def_margin(A @ S + (A @ S).T, tol)
        conds.append(ConditionResult("A S + (A S)^T negative definite", m > 0, m))
        AP = A @ P
        M = (np.kron(B, EP) + np.kron(C, AP) + np.kron(C.T, AP.T)
             + np.kron(np.eye(region.size), ES))
        m = psd_margin(-sym(M), tol)
        conds.append(ConditionResult("Kronecker LMI negative semidefinite",
                                     m >= 0, m))
    else:  # "S"
        if dh is None:
            raise ValueError("certificate kind 'S' needs the structured quadruple dh")
        S = np.asarray(cert.S, dtype=float)
        J, R, Q = dh.J, dh.R, dh.Q
        base = certify_admissibility(region, E, J, R, Q, tol, cross_check=False)
        # The structural conditions on (J, R, Q) carry over; the region LMI
        # is replaced by its shifted nonstrict variant below.
        conds.extend(c for c in base.conditions
                     if c.name != "region LMI negative definite")
        ES = E.T @ S
        asym = np.linalg.norm(ES - S.T @ E) - tol * (1.0 + np.linalg.norm(ES))
        conds.append(ConditionResult("E^T S symmetric", asym <= 0, -asym))
        m = psd_margin(sym(ES), tol)
        conds.append(ConditionResult("E^T S PSD", m >= 0, m))
        ok_s, rcond = invertibility(S)
        conds.append(ConditionResult("S invertible", ok_s, rcond))
        M = region_lmi_pair(region, E, J, R, Q) + np.kron(np.eye(region.size), sym(ES))
        m = psd_margin(-sym(M), tol)
        conds.append(ConditionResult("shifted Kronecker LMI negative semidefinite",
                                     m >= 0, m))

    ok = all(c.ok for c in conds)
    return SufficiencyVerdict(ok, conds, None)


def dh_to_dict(d: DhParam):
    return {
        "schema_version": DH_SCHEMA_VERSION,
        "T": d.T.tolist(),
        "J": d.J.tolist(),
        "R": d.R.tolist(),
        "Q": d.Q.tolist(),
    }


def dh_from_dict(obj) -> DhParam:
    version = obj.get("schema_version", DH_SCHEMA_VERSION)
    if version != DH_SCHEMA_VERSION:
        raise ValueError(f"unsupported DhParam schema version {version}")
    return DhParam(*(np.asarray(obj[k], dtype=float) for k in ("T", "J", "R", "Q")))

