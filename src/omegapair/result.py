"""Solve results and trace files shared by the solvers."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .dh import DhParam, dh_to_dict, project_psd, realize, shift_dissipation
from .pencil import AdmissibilityVerdict, MatrixPair, admissibility_check
from .regions import LmiRegion

__all__ = ["SolveResult", "write_trace", "read_trace", "relative_error",
           "finalize_solution"]

TRACE_HEADER = "time_s,objective,relative_error"


@dataclass
class SolveResult:
    dh: DhParam
    pair: MatrixPair
    objective: float
    relative_error: float
    iterations: int
    admissible: bool
    admissibility: AdmissibilityVerdict
    trace: list = field(default_factory=list)  # rows (time_s, objective, rel_err)
    algorithm: str = ""
    mu: float = 1.0
    converged: bool = True
    shifted: bool = False
    stop_reason: str = ""

    def to_dict(self):
        return {
            "algorithm": self.algorithm,
            "mu": self.mu,
            "objective": self.objective,
            "relative_error": self.relative_error,
            "iterations": self.iterations,
            "admissible": self.admissible,
            "reasons": list(self.admissibility.reasons) if self.admissibility else [],
            "converged": self.converged,
            "shifted": self.shifted,
            "stop_reason": self.stop_reason,
            "E": self.pair.E.tolist(),
            "A": self.pair.A.tolist(),
            "dh": dh_to_dict(self.dh),
        }

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1)


def write_trace(path, rows):
    with open(path, "w") as fh:
        fh.write(TRACE_HEADER + "\n")
        for t, obj, rel in rows:
            fh.write(f"{t:.6f},{obj:.12e},{rel:.12e}\n")


def read_trace(path):
    rows = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != TRACE_HEADER:
            raise ValueError(f"unexpected trace header {header!r}")
        for line in fh:
            t, obj, rel = line.strip().split(",")
            rows.append((float(t), float(obj), float(rel)))
    return rows


def _objective_value(E, A, T, J, R, Q, mu):
    """||A - (J - R) Q||_F^2 + mu ||E - T Q||_F^2."""
    res_a = A - (J - R) @ Q
    res_e = E - T @ Q
    return float((res_a * res_a).sum() + mu * (res_e * res_e).sum())


def relative_error(E, A, Et, At) -> float:
    """sqrt((||A - At||_F^2 + ||E - Et||_F^2) / (||A||_F^2 + ||E||_F^2))."""
    E, A = np.asarray(E, float), np.asarray(A, float)
    Et, At = np.asarray(Et, float), np.asarray(At, float)
    denom = float(np.sum(A * A) + np.sum(E * E))
    if denom == 0.0:
        raise ValueError("relative error undefined for E = A = 0")
    num = float(np.sum((A - At) ** 2) + np.sum((E - Et) ** 2))
    return float(np.sqrt(num / denom))


def finalize_solution(E, A, d: DhParam, region: LmiRegion, mu,
                      margin_tol: float = 1e-6, psd_T: bool = True):
    """Realize, verify, and if needed repair a final quadruple.

    Returns (dh, pair, objective, relative_error, verdict, shifted). When
    the realized pair fails the admissibility check, a boundary repair is
    attempted: the PSD blocks are re-clipped at zero (roundoff can leave
    eigenvalues at -1e-16, which flips near-infinite eigenvalues to the
    wrong side) and the dissipation gets a tiny definite shift. The repair
    moves the pair by O(1e-10), so it can only rescue boundary solutions;
    a result that still fails is returned flagged, never silently upgraded.
    A numerically singular Q gives the pair (T Q, (J - R) Q) flagged
    non-admissible, with Q's reciprocal condition as the reason.
    """
    try:
        pair = realize(d)
    except np.linalg.LinAlgError as err:
        # the repair keeps Q, so it cannot help here
        pair = MatrixPair(d.T @ d.Q, (d.J - d.R) @ d.Q)
        return (d, pair, _objective_value(E, A, d.T, d.J, d.R, d.Q, mu),
                relative_error(E, A, pair.E, pair.A),
                AdmissibilityVerdict(False, [str(err)]), False)
    verdict = admissibility_check(pair, region, margin_tol=margin_tol)
    shifted = False
    if not verdict.admissible:
        T_rep = project_psd(d.T) if psd_T else d.T
        R_rep = d.R
        if np.linalg.eigvalsh(R_rep)[0] > -1e-12 * (1.0 + np.linalg.norm(R_rep)):
            R_rep = project_psd(R_rep)
        d_rep = shift_dissipation(
            DhParam(T_rep, d.J, R_rep, d.Q),
            delta=1e-10 * max(np.linalg.norm(d.R), 1.0))
        pair_rep = realize(d_rep)
        verdict_rep = admissibility_check(pair_rep, region,
                                          margin_tol=margin_tol)
        if verdict_rep.admissible:
            d, pair, verdict, shifted = d_rep, pair_rep, verdict_rep, True
    obj = _objective_value(E, A, d.T, d.J, d.R, d.Q, mu)
    rel = relative_error(E, A, pair.E, pair.A)
    return d, pair, obj, rel, verdict, shifted
