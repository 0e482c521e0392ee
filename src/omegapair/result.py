"""Solve results and trace files shared by the solvers."""

from __future__ import annotations

import operator
import time as _time
from dataclasses import dataclass, field

import numpy as np

from .dh import DhParam, dh_to_dict, project_psd, realize
from .pencil import AdmissibilityVerdict, MatrixPair, admissibility_check
from .regions import LmiRegion

__all__ = ["SolveResult", "write_trace", "read_trace", "relative_error",
           "finalize_solution"]

TRACE_HEADER = "time_s,objective,relative_error"
VERIFY_MARGIN = 1e-6  # boundary tolerance of the finish's admissibility check
LIFT_DELTA = 1e-12    # relative eigenvalue floor of the finish's PSD lift


@dataclass
class SolveResult:
    """A solve's quadruple, realized pair, verdict and best-so-far trace.

    `shifted` means the finish lifted T and R (see `finalize_solution`);
    the trace always belongs to the unlifted iterates.
    """

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


def _check_budget(name, value):
    """Refuse an iteration budget that is neither None nor a nonnegative
    integer (a bool included): -1 and NaN would run no iteration at all,
    and 2.5 would round up in one solver and down in the other."""
    try:
        ok = value is None or (not isinstance(value, bool) and operator.index(value) >= 0)
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"{name} must be None or a nonnegative integer, got {value!r}")


def _check_options(mu, max_time_s, budget_name, budget):
    """Refuse a solver option set that a solve cannot run with: mu must be
    finite and positive, max_time_s at least 0, and the iteration budget
    `budget_name` as `_check_budget` asks."""
    if not 0.0 < mu < np.inf:  # also false for NaN
        raise ValueError(f"mu must be finite and positive, got {mu!r}")
    # a NaN budget would switch its stop off: elapsed >= nan is false
    if not max_time_s >= 0.0:
        raise ValueError(f"max_time_s must be at least 0, got {max_time_s!r}")
    _check_budget(budget_name, budget)


def _check_pair(E, A):
    """The solvers' data (E, A) as float arrays, checked once on entry: a
    pair that is not square, not of one shape or not finite raises a
    ValueError naming the problem, as `load_pair` refuses such a file."""
    pair = MatrixPair(E, A)
    for name, M in (("E", pair.E), ("A", pair.A)):
        if not np.isfinite(M).all():
            raise ValueError(f"{name} has a non-finite entry")
    return pair.E, pair.A


def _residuals(EA, X, P, res):
    """res = [T Q - E, (J - R) Q - A] at X = [T, J, R, Q], with P = [T, J - R]
    on the way. EA = [E, A], P and res are (2, n, n) arrays; X is a
    (4, n, n) stack or any sequence of four n x n arrays."""
    np.copyto(P[0], X[0])
    np.subtract(X[1], X[2], out=P[1])
    np.matmul(P, X[3], out=res)
    res -= EA
    return res


def _squared_norms(EA, X, P=None, res=None):
    """[||T Q - E||_F^2, ||(J - R) Q - A||_F^2] at X = [T, J, R, Q], for
    EA = [E, A]; P and res are (2, n, n) scratch arrays, fresh when omitted."""
    if P is None:
        P, res = np.empty_like(EA), np.empty_like(EA)
    sq = _residuals(EA, X, P, res)
    sq *= sq
    return sq.sum(axis=(1, 2))


def _objective_value(EA, X, mu, P=None, res=None):
    """||A - (J - R) Q||_F^2 + mu ||E - T Q||_F^2 (see `_squared_norms`)."""
    s = _squared_norms(EA, X, P, res)
    return float(s[1] + mu * s[0])


def _relative(EA, s):
    """sqrt((s[1] + s[0]) / (||A||_F^2 + ||E||_F^2)) for EA = [E, A] and the
    squared residual norms s = [||E - Et||_F^2, ||A - At||_F^2]."""
    scale = (EA * EA).sum(axis=(1, 2))
    if scale[1] + scale[0] == 0.0:
        raise ValueError("relative error undefined for E = A = 0")
    return float(np.sqrt((s[1] + s[0]) / (scale[1] + scale[0])))


def relative_error(E, A, Et, At) -> float:
    """sqrt((||A - At||_F^2 + ||E - Et||_F^2) / (||A||_F^2 + ||E||_F^2))."""
    EA = np.array([E, A], dtype=float)
    sq = np.array([Et, At], dtype=float)
    sq -= EA
    sq *= sq
    return _relative(EA, sq.sum(axis=(1, 2)))


def _fit(EA, X, mu):
    """(objective, relative error) at X = [T, J, R, Q], for EA = [E, A], from
    one residual evaluation; the error is `relative_error` of (T Q, (J - R) Q)."""
    s = _squared_norms(EA, X)
    return float(s[1] + mu * s[0]), _relative(EA, s)


def _lifted(d: DhParam) -> DhParam:
    """d with T, and R unless it is clearly indefinite, lifted to PSD with
    every eigenvalue at least LIFT_DELTA * max(1, lambda_max)."""
    def lift(M, w):  # w: the eigenvalues of M, ascending
        return project_psd(M, LIFT_DELTA * max(1.0, w[-1]))

    wR = np.linalg.eigvalsh(d.R)
    R = lift(d.R, wR) if wR[0] > -1e-12 * (1.0 + np.linalg.norm(d.R)) else d.R
    return DhParam(lift(d.T, np.linalg.eigvalsh(d.T)), d.J, R, d.Q)


def finalize_solution(E, A, d: DhParam, region: LmiRegion, mu, *, algorithm,
                      iterations, stop_reason, trace, t0) -> SolveResult:
    """Realize and verify a solver's final quadruple, lifting it if needed.

    Appends the closing trace row (time since `t0` on `time.perf_counter`,
    objective and relative error of `d`) and returns the SolveResult. When
    the pair fails the admissibility check, the quadruple is lifted
    (`_lifted`): roundoff can leave T or R of a boundary optimum a few
    ulps indefinite, which flips near-infinite eigenvalues to the wrong
    side. The lift moves the pair by about LIFT_DELTA relative and is kept,
    with `shifted=True`, only if its pair passes the same check; otherwise
    the unlifted result comes back flagged. A numerically singular Q gives
    the pair (T Q, (J - R) Q) flagged, with Q's reciprocal condition as
    the reason.
    """
    EA = np.stack([E, A])
    closing = _fit(EA, (d.T, d.J, d.R, d.Q), mu)
    shifted = False
    try:
        pair = realize(d)
    except np.linalg.LinAlgError as err:
        # the lift keeps Q, so it cannot help here
        pair = MatrixPair(d.T @ d.Q, (d.J - d.R) @ d.Q)
        verdict = AdmissibilityVerdict(False, [str(err)])
    else:
        verdict = admissibility_check(pair, region, margin_tol=VERIFY_MARGIN)
        if not verdict.admissible:
            lifted = _lifted(d)
            pair_l = realize(lifted)
            verdict_l = admissibility_check(pair_l, region, margin_tol=VERIFY_MARGIN)
            if verdict_l.admissible:
                d, pair, verdict, shifted = lifted, pair_l, verdict_l, True
    obj, rel = _fit(EA, (d.T, d.J, d.R, d.Q), mu) if shifted else closing
    trace.append((_time.perf_counter() - t0, *closing))
    return SolveResult(dh=d, pair=pair, objective=obj, relative_error=rel,
                       iterations=iterations, admissible=verdict.admissible,
                       admissibility=verdict, trace=trace, algorithm=algorithm,
                       mu=mu, converged="budget" not in stop_reason,
                       shifted=shifted, stop_reason=stop_reason)
