"""Benchmark instances, experiment tables, and plot-data emission.

Generators produce the standard test families (banded Toeplitz pairs, a
damped mass-spring descriptor chain, near-orthogonal matrices); the
runner executes solver/instance combinations under wall-clock or
iteration budgets and writes a results table plus one trace CSV per run.
An instance's algorithm is "fgm", "bcd" or "auto" (the default: fgm for
the Hurwitz region, bcd otherwise); fgm on any other region is refused
and gives an error row. Instance names must be unique.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .bcd import BcdOptions, solve_general
from .dh import DhParam
from .fgm import FgmOptions, solve_hurwitz
from .pencil import MatrixPair, spectrum
from .regions import LmiRegion, _json_matrix, is_hurwitz, membership_margins, region_from_dict
from .result import relative_error, write_trace

__all__ = [
    "BenchInstance",
    "grcar",
    "msd",
    "near_schur",
    "relative_error",
    "run_table",
    "region_plot_data",
]

BOUNDARY_TOL = 1e-6  # length below which `region_plot_data` stops bisecting


def grcar(n, k=1) -> MatrixPair:
    """Banded Toeplitz pair: subdiagonal -1, main and k superdiagonals 1, E = I.

    All eigenvalues have positive real part, which makes these pairs
    standard hard cases for half-plane nearness.
    """
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    A = np.zeros((n, n))
    for i in range(n):
        if i > 0:
            A[i, i - 1] = -1.0
        A[i, i: min(n, i + k + 1)] = 1.0
    return MatrixPair(np.eye(n), A)


def msd(n, eps=0.0):
    """Mass-spring-damper descriptor chain of size 2n, destabilized by eps.

    Blocks: E = diag(M, I), J = [[0, -I], [I, 0]], R = diag(D, -eps I),
    Q = diag(I, K), A = (J - R) Q, with M = I, K the standard second
    difference matrix, and D = 0.05 I. The light damping keeps eps = 0.01 just
    inside the stability boundary while eps = 0.1 is clearly unstable.
    Returns the pair and the structured quadruple that generated it.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if eps < 0:
        raise ValueError(f"need eps >= 0, got {eps}")
    I = np.eye(n)
    M = I.copy()
    K = 2.0 * I - np.eye(n, k=1) - np.eye(n, k=-1)
    D = 0.05 * I
    Z = np.zeros((n, n))
    E = np.block([[M, Z], [Z, I]])
    J = np.block([[Z, -I], [I, Z]])
    R = np.block([[D, Z], [Z, -eps * I]])
    Q = np.block([[I, Z], [Z, K]])
    A = (J - R) @ Q
    T = np.block([[M, Z], [Z, np.linalg.inv(K)]])
    return MatrixPair(E, A), DhParam(T, J, R, Q)


def near_schur(n, eps, seed=0) -> MatrixPair:
    """Random orthogonal matrix plus scaled Gaussian noise, E = I.

    A = U + eps * N * sqrt(n) / ||N||_F with U the orthogonal factor of a
    seeded Gaussian matrix, so ||A - U||_F = eps * sqrt(n) exactly.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    U, _ = scipy.linalg.qr(G)
    N = rng.standard_normal((n, n))
    A = U + eps * N * np.sqrt(n) / np.linalg.norm(N, "fro")
    return MatrixPair(np.eye(n), A)


@dataclass
class BenchInstance:
    name: str
    pair: MatrixPair
    region: LmiRegion
    algorithm: str = "auto"       # "fgm" | "bcd" | "auto"
    budget_s: float = 30.0
    mu: float = 1.0
    seed: int = 0
    max_iters: int | None = None

    @classmethod
    def from_dict(cls, obj):
        """The instance of a bench spec entry; a field of the wrong JSON type
        raises ValueError before any solve."""
        if not isinstance(obj, dict):
            raise ValueError(f"bench instance {obj!r} is not a JSON object")
        gen = _field(obj, "generator", dict)
        kind = _field(gen, "kind", str)
        seed = _field(obj, "seed", int, 0)
        if kind == "grcar":
            pair = grcar(_field(gen, "n", int), _field(gen, "k", int, 1))
        elif kind == "msd":
            pair, _ = msd(_field(gen, "n", int), float(_field(gen, "eps", float, 0.0)))
        elif kind == "near_schur":
            pair = near_schur(_field(gen, "n", int), float(_field(gen, "eps", float, 0.0)), seed)
        elif kind == "pair":
            if missing := [k for k in "EA" if k not in gen]:
                raise ValueError(f"bench generator has no field {missing[0]!r}")
            pair = MatrixPair(*(_json_matrix(gen[k], f"bench generator field {k!r}") for k in "EA"))
        else:
            raise ValueError(f"unknown generator kind {kind!r}")
        region = region_from_dict(obj.get("region", {"kind": "left_half_plane", "k": 0.0}))
        max_iters = None if obj.get("max_iters") is None else _field(obj, "max_iters", int)
        return cls(name=_field(obj, "name", str), pair=pair, region=region,
                   algorithm=_field(obj, "algorithm", str, "auto"),
                   budget_s=float(_field(obj, "budget_s", float, 30.0)),
                   mu=float(_field(obj, "mu", float, 1.0)), seed=seed, max_iters=max_iters)


_JSON_NAMES = {str: "a string", dict: "a JSON object", int: "an integer", float: "a number"}


def _field(obj, key, kind, default=None):
    """obj[key], or `default` where the key is absent and a default given;
    an absent key without a default, or a value of another JSON type than
    `kind`, raises ValueError (a boolean is neither an integer nor a number,
    an integer is a number)."""
    if default is None and key not in obj:
        raise ValueError(f"bench instance has no field {key!r}")
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ValueError(f"bench instance field {key!r} must be {_JSON_NAMES[kind]}, got {value!r}")
    return value


def _solve(pair, region, algorithm, mu, budget_s, max_iters, seed):
    """Run the solver that `algorithm` ("fgm", "bcd" or "auto") names.

    "auto" picks fgm exactly for the Hurwitz region. fgm solves for the
    open left half-plane only, so on any other region it is refused rather
    than report a verdict for a region the solve never looked at.
    """
    hurwitz = is_hurwitz(region)
    if algorithm == "auto":
        algorithm = "fgm" if hurwitz else "bcd"
    if algorithm == "fgm":
        if not hurwitz:
            raise ValueError("fgm solves for the open left half-plane only; "
                             "use bcd or auto (--algo bcd) for this region")
        return solve_hurwitz(pair.E, pair.A, FgmOptions(
            mu=mu, max_time_s=budget_s, max_iters=max_iters, seed=seed))
    if algorithm == "bcd":
        return solve_general(pair.E, pair.A, region, BcdOptions(
            mu=mu, max_time_s=budget_s, max_outer_iters=max_iters))
    raise ValueError(f"unknown algorithm {algorithm!r}")


_COLUMNS = ("instance", "algorithm", "relative_error_pct", "time_s",
            "objective", "admissible", "iterations", "seed", "error")


def _row(inst, res, error=""):
    """The results row of one instance; `res` None makes its error row."""
    nan = float("nan")
    if res is None:
        values = (inst.algorithm, nan, nan, nan, False, 0)
    else:
        values = (res.algorithm, 100.0 * res.relative_error, res.trace[-1][0],
                  res.objective, res.admissible, res.iterations)
    return dict(zip(_COLUMNS, (inst.name, *values, inst.seed, error)))


def run_table(instances, out_dir=None):
    """Run every instance and collect a results table.

    Returns a list of rows (dict per instance, input order preserved).
    With out_dir set, also writes results.csv, results.json, and one
    trace_<name>.csv per run. Failures, a refused algorithm included, are
    recorded per instance and do not stop the batch. Raises ValueError
    before any solve when two names share a trace file.
    """
    safe = ["".join(c if c.isalnum() or c in "-_" else "_" for c in inst.name)
            for inst in instances]
    clash = sorted({name for name in safe if safe.count(name) > 1})
    if clash:
        raise ValueError(f"instance names must be unique; trace names shared: {clash}")
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)

    def work(inst):
        try:
            res = _solve(inst.pair, inst.region, inst.algorithm, inst.mu,
                         inst.budget_s, inst.max_iters, inst.seed)
            return _row(inst, res), res
        except Exception as exc:  # noqa: BLE001 - batch keeps going by contract
            return _row(inst, None, f"{type(exc).__name__}: {exc}"), None

    outcome = [work(inst) for inst in instances]
    results = [row for row, _ in outcome]
    if out_dir is not None:
        for name, (row, res) in zip(safe, outcome):
            if res is not None:
                row["trace"] = os.path.join(out_dir, f"trace_{name}.csv")
                write_trace(row["trace"], res.trace)
        with open(os.path.join(out_dir, "results.json"), "w") as fh:
            json.dump(results, fh, indent=1)
        with open(os.path.join(out_dir, "results.csv"), "w") as fh:
            fh.write(",".join(_COLUMNS) + "\n")
            for row in results:
                fh.write(",".join(_csv_cell(row[c]) for c in _COLUMNS) + "\n")
    return results


def _csv_cell(v):
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def region_plot_data(region: LmiRegion, pairs, bounds, nx=161, ny=121, out_dir="."):
    """Emit eigenvalue scatters and a region boundary point cloud as CSV.

    The boundary is located where the membership margin (the largest
    eigenvalue of the characteristic matrix, negated and scaled) changes
    sign between neighbouring grid nodes, refined by bisection along the
    connecting segment to BOUNDARY_TOL. Returns the mapping of emitted
    file paths. `bounds` (xmin, xmax, ymin, ymax) must be four finite
    numbers with xmin < xmax and ymin < ymax, and the grid at least 2 x 2
    nodes; else ValueError, before anything is written.
    """
    if not (len(bounds) == 4 and np.isfinite(bounds).all()
            and bounds[0] < bounds[1] and bounds[2] < bounds[3]):
        raise ValueError(f"bounds must be four finite numbers xmin < xmax and ymin < ymax, "
                         f"got {tuple(bounds)!r}")
    if not (nx >= 2 and ny >= 2):
        raise ValueError(f"the grid needs nx >= 2 and ny >= 2 nodes, got {nx} x {ny}")
    os.makedirs(out_dir, exist_ok=True)
    xmin, xmax, ymin, ymax = bounds
    xs = np.linspace(xmin, xmax, nx)
    ys = np.linspace(ymin, ymax, ny)
    margins = np.array([membership_margins(region, xs + 1j * y) for y in ys])

    def bisect(z_a, z_b):
        inside_a = membership_margins(region, [z_a])[0] > 0.0
        for _ in range(80):
            if abs(z_b - z_a) < BOUNDARY_TOL:
                break
            mid = (z_a + z_b) / 2.0
            if (membership_margins(region, [mid])[0] > 0.0) == inside_a:
                z_a = mid
            else:
                z_b = mid
        return (z_a + z_b) / 2.0

    boundary = []
    for iy in range(ny):
        for ix in range(nx):
            z0 = xs[ix] + 1j * ys[iy]
            for jy, jx in ((iy, ix + 1), (iy + 1, ix)):
                if jx >= nx or jy >= ny:
                    continue
                z1 = xs[jx] + 1j * ys[jy]
                if np.sign(margins[iy, ix]) * np.sign(margins[jy, jx]) < 0:
                    boundary.append(bisect(z0, z1))

    files = {}
    bpath = os.path.join(out_dir, "boundary.csv")
    with open(bpath, "w") as fh:
        fh.write("re,im\n")
        for z in boundary:
            fh.write(f"{z.real:.12g},{z.imag:.12g}\n")
    files["boundary"] = bpath

    for i, pair in enumerate(pairs):
        rep = spectrum(pair)
        path = os.path.join(out_dir, f"eigenvalues_{i:02d}.csv")
        with open(path, "w") as fh:
            fh.write("re,im\n")
            for lam in rep.finite_eigenvalues:
                fh.write(f"{lam.real:.12g},{lam.imag:.12g}\n")
        files[f"eigenvalues_{i:02d}"] = path
    return files
