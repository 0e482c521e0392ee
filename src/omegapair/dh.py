"""Structured (T, J, R, Q) parametrization of admissible pairs.

A quadruple with symmetric T, skew-symmetric J, symmetric R and invertible
Q realizes the pair (T Q, (J - R) Q). With T positive semidefinite and R
positive definite the realized pair is automatically regular and
impulse-free, and the region LMI decides whether its finite eigenvalues
sit inside a given LMI region. Every LMI in this module is the region's
Kronecker form M(X, Y) = B (x) X + C (x) Y + C^T (x) Y^T, at different
(X, Y). This module holds the quadruple type, the LMI assemblies,
certificate verification, and the conversion from a feasibility
certificate X to a quadruple.
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


def _definite_margin(M, tol, strict):
    """(ok, margin) of "M > 0" (strict) or "M >= 0" (not strict).

    The margin is lambda_min(sym M) -/+ tol * (1 + max |lambda|), so ok is
    margin > 0 when strict and margin >= 0 otherwise. A negative
    (semi)definite test is the same margin on -M.
    """
    w = np.linalg.eigvalsh(sym(M))
    lo = float(w[0])
    scaled = tol * (1.0 + max(abs(lo), abs(float(w[-1]))))
    m = lo - scaled if strict else lo + scaled
    return (m > 0 if strict else m >= 0), m


@dataclass(frozen=True)
class DhParam:
    """Solver variables (T, J, R, Q); symmetrized on construction."""

    T: np.ndarray
    J: np.ndarray
    R: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        n = np.shape(self.T)[0]
        for name, part in (("T", sym), ("J", skew), ("R", sym), ("Q", np.asarray)):
            M = part(np.asarray(getattr(self, name), dtype=float))
            if M.shape != (n, n):
                raise ValueError(f"{name} must be {n}x{n}, got {M.shape}")
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


def _kron_lmi(region: LmiRegion, X, Y) -> np.ndarray:
    """sym(B (x) X + C (x) Y + C^T (x) Y^T), the region's LMI at (X, Y)."""
    B, C = region.B, region.C
    return sym(np.kron(B, X) + np.kron(C, Y) + np.kron(C.T, Y.T))


def _square(n, **named):
    """The named matrices as float arrays; raises unless each is n x n."""
    out = []
    for name, M in named.items():
        M = np.asarray(M, dtype=float)
        if M.shape != (n, n):
            raise ValueError(f"{name} must be {n}x{n}")
        out.append(M)
    return out


def region_lmi(region: LmiRegion, T, J, R) -> np.ndarray:
    """M(T, J - R) = B (x) T + (C - C^T) (x) J - (C + C^T) (x) R.

    Negative definiteness of this matrix is the region constraint on the
    reduced variables; it is linear in (T, J, R). The two forms agree
    because (J - R)^T = -J - R for skew J and symmetric R.
    """
    T, J, R = _square(np.shape(T)[0], T=T, J=J, R=R)
    return _kron_lmi(region, T, J - R)


def region_lmi_pair(region: LmiRegion, E, J, R, Q) -> np.ndarray:
    """M(Q^T E, Q^T (J - R) Q), the region LMI of the pair (E, (J - R) Q).

    Equals the congruence (I (x) Q)^T region_lmi(region, E Q^{-1}, J, R)
    (I (x) Q) whenever Q^T E is symmetric.
    """
    E, J, R, Q = _square(np.shape(E)[0], E=E, J=J, R=R, Q=Q)
    return _kron_lmi(region, Q.T @ E, Q.T @ (J - R) @ Q)


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


def _symmetric_psd(name, M, tol):
    """The conditions "<name> symmetric" and "<name> PSD" on a product M,
    each with the scaled threshold tol * (1 + ||M||)."""
    asym = np.linalg.norm(M - M.T) - tol * (1.0 + np.linalg.norm(M))
    return [ConditionResult(f"{name} symmetric", asym <= 0, -asym),
            ConditionResult(f"{name} PSD", *_definite_margin(M, tol, strict=False))]


def _quadruple_conditions(E, J, R, Q, tol):
    """J skew, R positive definite, Q invertible and Q^T E symmetric PSD."""
    dev = np.linalg.norm(J + J.T) - tol * (1.0 + np.linalg.norm(J))
    return ([ConditionResult("J skew-symmetric", dev <= 0, -dev),
             ConditionResult("R positive definite", *_definite_margin(R, tol, strict=True)),
             ConditionResult("Q invertible", *invertibility(Q))]
            + _symmetric_psd("Q^T E", Q.T @ E, tol))


def certify_admissibility(region: LmiRegion, E, J, R, Q,
                          tol: float = DEFAULT_DEF_TOL) -> SufficiencyVerdict:
    """Sufficient-condition check that (E, (J - R) Q) is admissible.

    Verifies J skew, R positive definite, Q invertible, Q^T E symmetric
    PSD, and the region LMI negative definite, each with the scaled
    eigenvalue threshold. When all hold the realized pair is certified
    admissible; the verdict also carries an independent spectrum-based
    admissibility check of the same pair when Q is invertible.
    """
    E, J, R, Q = (np.asarray(M, dtype=float) for M in (E, J, R, Q))
    conds = _quadruple_conditions(E, J, R, Q, tol)
    conds.append(ConditionResult("region LMI negative definite", *_definite_margin(
        -region_lmi_pair(region, E, J, R, Q), tol, strict=True)))
    check = None
    if conds[2].ok:  # Q invertible
        check = admissibility_check(MatrixPair(E, (J - R) @ Q), region)
    return SufficiencyVerdict(all(c.ok for c in conds), conds, check)


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
    I = np.eye(region.size)
    if cert.kind == "X":
        X = np.asarray(cert.X, dtype=float)
        EX = E.T @ X
        conds = _symmetric_psd("E^T X", EX, tol)
        conds.append(ConditionResult("Kronecker LMI negative definite", *_definite_margin(
            -_kron_lmi(region, EX, X.T @ A), tol, strict=True)))
    elif cert.kind == "PS":
        P = np.asarray(cert.P, dtype=float)
        S = np.asarray(cert.S, dtype=float)
        EP, ES, AS = E @ P, E @ S, A @ S
        conds = _symmetric_psd("E P", EP, tol) + _symmetric_psd("E S", ES, tol)
        conds.append(ConditionResult("A S + (A S)^T negative definite",
                                     *_definite_margin(-(AS + AS.T), tol, strict=True)))
        M = _kron_lmi(region, EP, A @ P) + np.kron(I, sym(ES))
        conds.append(ConditionResult("Kronecker LMI negative semidefinite",
                                     *_definite_margin(-M, tol, strict=False)))
    else:  # "S"
        if dh is None:
            raise ValueError("certificate kind 'S' needs the structured quadruple dh")
        S = np.asarray(cert.S, dtype=float)
        ES = E.T @ S
        conds = (_quadruple_conditions(E, dh.J, dh.R, dh.Q, tol)
                 + _symmetric_psd("E^T S", ES, tol)
                 + [ConditionResult("S invertible", *invertibility(S))])
        M = region_lmi_pair(region, E, dh.J, dh.R, dh.Q) + np.kron(I, sym(ES))
        conds.append(ConditionResult("shifted Kronecker LMI negative semidefinite",
                                     *_definite_margin(-M, tol, strict=False)))

    return SufficiencyVerdict(all(c.ok for c in conds), conds)


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

