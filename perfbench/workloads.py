"""The benchmark's workloads: inputs, fixed work budgets, targets and the gate.

Every solve runs under a fixed work budget (`max_iters` for FGM,
`max_outer_iters` for BCD); the wall-clock budget is only a safety cap,
and a solve that reaches it counts as failed. Each solve carries a fixed
target relative error, and each admissibility check a verdict known by
construction.

Targets are the paper's number plus the tolerance the repository's own
acceptance criteria allow, where the paper gives a number; elsewhere they
are a level the solver reaches within about two thirds of its budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag

import omegapair as op
from omegapair.bcd import BcdDiagnostics

PAPER_SEED = 2017     # seed of the paper's composite-region instance
SAFETY_S = 120.0      # wall-clock cap per solve; the work budgets end every solve long before
RECHECK_MARGIN = 1e-6  # margin of the independent re-check (acceptance criterion 9)
REL_TOL = 1e-9        # reported vs recomputed relative error
SAME_TOL = 1e-12      # relative error of one solve repeated within a run
LARGE_N = 200
CHECK_BATCH = 8       # pairs in the large-n check batch, each checked against two regions


def composite_region():
    """Vertical strip, horizontal strip and two parabolas (the paper's composite region)."""
    return op.intersect(op.vertical_strip(-5.0, 5.0), op.horizontal_strip(3.0),
                        op.left_parabola(6.0, 1.0), op.right_parabola(-6.0, 1.0))


def _orthogonal(n, rng):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


@dataclass
class Solve:
    """One call of `solve_hurwitz` (FGM options) or `solve_general` (BCD options)."""

    name: str
    E: np.ndarray
    A: np.ndarray
    region: op.LmiRegion
    opts: op.FgmOptions | op.BcdOptions
    target_pct: float

    def run(self):
        """Returns (SolveResult, BcdDiagnostics or None)."""
        if isinstance(self.opts, op.FgmOptions):
            return op.solve_hurwitz(self.E, self.A, self.opts), None
        diag = BcdDiagnostics()
        res = op.solve_general(self.E, self.A, self.region, self.opts, diagnostics=diag)
        return res, diag

    def target_row(self, res):
        """Index of the first trace row whose best-so-far error meets the target."""
        return next((i for i, row in enumerate(res.trace)
                     if 100.0 * row[2] <= self.target_pct), None)

    def time_to_target(self, res):
        i = self.target_row(res)
        return None if i is None else res.trace[i][0]

    def iters_to_target(self, res):
        """FGM iteration at which the target was first recorded in the trace."""
        i = self.target_row(res)
        if i is None:
            return None
        return res.iterations if i == len(res.trace) - 1 else i * self.opts.trace_every

    def gate(self, out):
        """Returns (wrong, missed): wrong outputs, and results that miss the goal."""
        res, _ = out
        wrong, missed = [], []
        recheck = op.admissibility_check(res.pair, self.region, margin_tol=RECHECK_MARGIN)
        if recheck.admissible != res.admissible:
            wrong.append(f"admissible={res.admissible} but the re-check says "
                         f"{recheck.admissible} ({'; '.join(recheck.reasons)})")
        rel = op.relative_error(self.E, self.A, res.pair.E, res.pair.A)
        if abs(rel - res.relative_error) > REL_TOL * rel:
            wrong.append(f"reported relative error {res.relative_error!r} != recomputed {rel!r}")
        for col, label in ((1, "objective"), (2, "relative error")):
            vals = [row[col] for row in res.trace]
            if any(b > a + 1e-12 * (1.0 + abs(a)) for a, b in zip(vals, vals[1:])):
                wrong.append(f"best-so-far {label} in the trace is not monotone")
        if not res.admissible:
            missed.append("flagged non-admissible: " + "; ".join(res.admissibility.reasons))
        if res.stop_reason == "time budget":
            missed.append("stopped on the wall-clock safety cap, not its work budget")
        if self.target_row(res) is None:
            missed.append(f"best error {100.0 * res.trace[-1][2]:.4f}% misses the "
                          f"target {self.target_pct}%")
        return wrong, missed

    def fingerprint(self, out):
        res, _ = out
        return (res.iterations, res.stop_reason, res.admissible, res.relative_error)

    def describe(self, out):
        res, _ = out
        ttt = self.time_to_target(res)
        return (f"{res.iterations} it, {100 * res.relative_error:.4f} %, "
                f"admissible={res.admissible}, shifted={res.shifted}, "
                f"stop: {res.stop_reason}; target {self.target_pct} % "
                + ("missed" if ttt is None else f"at {ttt:.3f} s"))

    @staticmethod
    def same(a, b):
        return a[:3] == b[:3] and abs(a[3] - b[3]) <= SAME_TOL * abs(a[3])


@dataclass
class Check:
    """One call of `admissibility_check` on a pair whose verdict is known by construction."""

    name: str
    pair: op.MatrixPair
    region: op.LmiRegion
    expected: bool

    def run(self):
        return op.admissibility_check(self.pair, self.region)

    def gate(self, verdict):
        if verdict.admissible != self.expected:
            return [f"verdict {verdict.admissible}, expected {self.expected} "
                    f"({'; '.join(verdict.reasons)})"], []
        return [], []

    def fingerprint(self, verdict):
        return (verdict.admissible, verdict.worst_margin)

    def describe(self, verdict):
        return f"admissible={verdict.admissible} (expected {self.expected})"

    @staticmethod
    def same(a, b):
        return a == b


def pass_summary(ops, outs, timings):
    """End-to-end numbers of one pass, and the layer counts spans cannot see.

    `timings[i].scaled(t)` gives the first t seconds of call i at the
    reference speed. A solve that missed its target counts with its full
    trace time.
    """
    done = [(s, *out, timing) for s, out, timing in zip(ops, outs, timings)
            if isinstance(s, Solve) and not isinstance(out, Exception)]
    ttt = iters = 0
    for s, res, _, timing in done:
        t = s.time_to_target(res)
        ttt += timing.scaled(res.trace[-1][0] if t is None else t)
        if isinstance(s.opts, op.FgmOptions):
            it = s.iters_to_target(res)
            iters += res.iterations if it is None else it
    diags = [diag for _, _, diag, _ in done if diag is not None]
    return {
        "time_to_target_s": ttt,
        "rel_err_pct": (sum(100.0 * res.relative_error for _, res, _, _ in done) / len(done)
                        if done else float("nan")),
        "fgm_iters_to_target": iters,
        "bcd_restarts": sum(d.restarts for d in diags),
        "bcd_q_fallbacks": sum(d.q_fallbacks for d in diags),
    }


def _fgm(name, pair, max_iters, target_pct):
    return Solve(name, pair.E, pair.A, op.hurwitz(),
                 op.FgmOptions(max_iters=max_iters, max_time_s=SAFETY_S), target_pct)


def fgm_paper(seed):
    """The paper's Hurwitz table (criteria 1 and 2). Grcar and MSD take no seed.

    Targets: the paper's 31.53 / 22.50 / 20.87 plus 1.0 (criterion 1's
    tolerance) for Grcar(10,1) and (10,3), plus 2.0 for Grcar(10,2), and
    criterion 2's 1e-4 for MSD. Grcar(10,3) gets the 30k iterations it
    needs to come within 1.0 of the paper (about 28k); there the solver
    returns it flagged non-admissible, a boundary optimum the dissipation
    shift does not repair, so this solve fails until that is fixed.
    Grcar(10,2) would need about 43k iterations and fails the same way;
    it runs the 20k budget and criterion 3's looser tolerance to keep the
    pass short.
    """
    ops = [_fgm("grcar(10,1)", op.grcar(10, 1), 20_000, 32.53),
           _fgm("grcar(10,2)", op.grcar(10, 2), 20_000, 24.50),
           _fgm("grcar(10,3)", op.grcar(10, 3), 30_000, 21.87),
           _fgm("msd(10,0.01)", op.msd(10, 0.01)[0], 20_000, 0.01)]
    warm = _fgm("warm-up grcar(10,1)", op.grcar(10, 1), 25, 100.0)
    return ops, warm


def bcd_regions(seed):
    """BCD around the SDP: the disk (criterion 3) and the composite region (criterion 4).

    The seed draws an orthogonal P and the composite solves run on
    (I, P^T A P), with A the paper's instance; seed 2017 runs A itself.
    The nearest-pair problem and the BCD iterates are equivariant under
    this similarity, so the seed changes the input matrices but not the
    work, the optimum or the targets.
    """
    grcar = op.grcar(10, 1)
    A = 2.0 * np.random.default_rng(PAPER_SEED).standard_normal((10, 10))
    if seed != PAPER_SEED:
        P = _orthogonal(10, np.random.default_rng(seed))
        A = P.T @ A @ P
    E, I = np.eye(10), np.eye(10)
    region = composite_region()
    ops = [Solve("grcar(10,1) disk", grcar.E, grcar.A, op.schur(),
                 op.BcdOptions(max_outer_iters=20, max_time_s=SAFETY_S), 29.06),
           Solve("composite full", E, A, region,
                 op.BcdOptions(max_outer_iters=3, max_time_s=SAFETY_S), 9.5),
           Solve("composite frozen-E", E, A, region,
                 op.BcdOptions(max_outer_iters=3, max_time_s=SAFETY_S, fix_T=I, fix_Q=I),
                 44.7)]
    small = op.grcar(4, 1)
    warm = Solve("warm-up grcar(4,1) composite", small.E, small.A, region,
                 op.BcdOptions(max_outer_iters=1, max_time_s=SAFETY_S), 100.0)
    return ops, warm


def _known_pair(rng, n, eigs):
    """(U E0 V, U A0 V) with E0 = diag(I_r, 0) and A0 = diag(A_f, I).

    A_f is orthogonally similar to the real block form of `eigs` (complex
    entries stand for a conjugate pair), so its finite spectrum is exactly
    `eigs`; the pencil is regular and impulse-free, and U, V have
    condition numbers at most 2.
    """
    blocks = [np.array([[z.real]]) if z.imag == 0.0
              else np.array([[z.real, z.imag], [-z.imag, z.real]]) for z in eigs]
    D = block_diag(*blocks)
    r = D.shape[0]
    W = _orthogonal(r, rng)
    E0 = block_diag(np.eye(r), np.zeros((n - r, n - r)))
    A0 = block_diag(W @ D @ W.T, np.eye(n - r))
    U = _orthogonal(n, rng) * rng.uniform(1.0, 2.0, n)
    V = rng.uniform(1.0, 2.0, n)[:, None] * _orthogonal(n, rng)
    return op.MatrixPair(U @ E0 @ V, U @ A0 @ V)


# Eigenvalue that puts a pair outside one region and inside the other (or
# outside both), at least 0.5 away from the boundary it crosses, keyed by
# the expected verdicts (hurwitz, composite).
_EXTRA = {
    (True, False): lambda rng: [complex(rng.uniform(-8.0, -5.6), 0.0)],
    (False, True): lambda rng: [complex(rng.uniform(0.6, 2.5), 0.0)],
    (False, False): lambda rng: [complex(rng.uniform(0.5, 2.0), rng.uniform(3.5, 4.5))],
    (True, True): lambda rng: [],
}


def large_n(seed):
    """FGM at n = 200, then admissibility checks of a seeded n = 200 batch.

    The base spectrum of each pair is 70 conjugate pairs in
    Re in [-2.5, -0.1], Im in [0.1, 2.4], at least 0.1 inside both the
    left half-plane and the composite region; one extra eigenvalue from
    `_EXTRA` sets the verdicts. The verdict mix is fixed, the positions
    and U, V come from the seed.
    """
    rng = np.random.default_rng(seed)
    hurwitz, composite = op.hurwitz(), composite_region()
    ops = [_fgm("grcar(200,3)", op.grcar(LARGE_N, 3), 150, 25.3)]
    kinds = list(_EXTRA)
    for i in range(CHECK_BATCH):
        verdicts = kinds[i % len(kinds)]
        base = rng.uniform(-2.5, -0.1, 70) + 1j * rng.uniform(0.1, 2.4, 70)
        pair = _known_pair(rng, LARGE_N, list(base) + _EXTRA[verdicts](rng))
        ops.append(Check(f"pair {i} hurwitz", pair, hurwitz, verdicts[0]))
        ops.append(Check(f"pair {i} composite", pair, composite, verdicts[1]))
    warm = _fgm("warm-up grcar(200,3)", op.grcar(LARGE_N, 3), 2, 100.0)
    return ops, warm


WORKLOADS = {
    "fgm-paper": fgm_paper,
    "bcd-regions": bcd_regions,
    "large-n": large_n,
}
