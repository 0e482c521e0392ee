"""Command-line interface.

Subcommands: solve (run a solver on a pair/region), check (admissibility
report), bench (run an instance table), region-info (inspect a region
file), plot-data (emit eigenvalue/boundary CSVs).

Exit codes: 0 success, 1 usage or input error, 2 solve finished but the
result is flagged non-admissible, 3 check found the pair non-admissible.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .bench import BenchInstance, _solve, region_plot_data, run_table
from .pencil import admissibility_check, load_pair, save_pair
from .regions import DEFAULT_MARGIN_TOL, load_region, uniform_part_nonempty
from .result import write_trace
from .sdp import InfeasibleStartError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FLAGGED = 2
EXIT_CHECK_FAILED = 3

_FMT = "{:.12g}"


def _fmt(x):
    return _FMT.format(float(x))


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, the code of a flagged solve here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parser():
    p = _Parser(prog="omegapair", description="Nearest admissible matrix pair tools")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="find the nearest admissible pair")
    ps.add_argument("--pair", required=True, help="pair file (JSON or CSV)")
    ps.add_argument("--region", required=True, help="region spec file (JSON)")
    ps.add_argument("--algo", choices=("fgm", "bcd", "auto"), default="auto")
    ps.add_argument("--mu", type=float, default=1.0)
    ps.add_argument("--time", type=float, default=30.0, help="budget in seconds")
    ps.add_argument("--max-iters", type=int, default=None)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--out", default=".", help="output directory")
    ps.add_argument("--trace", default=None, help="trace CSV path")

    pc = sub.add_parser("check", help="admissibility report for a pair")
    pc.add_argument("--pair", required=True)
    pc.add_argument("--region", required=True)
    pc.add_argument("--tol-margin", type=float, default=DEFAULT_MARGIN_TOL)

    pb = sub.add_parser("bench", help="run a table of instances")
    pb.add_argument("--spec", required=True, help="JSON list of instances")
    pb.add_argument("--out", default="bench_out")

    pr = sub.add_parser("region-info", help="inspect a region file")
    pr.add_argument("--region", required=True)

    pp = sub.add_parser("plot-data", help="emit eigenvalue/boundary CSVs")
    pp.add_argument("--region", required=True)
    pp.add_argument("--pair", action="append", default=[],
                    help="pair file; repeatable")
    pp.add_argument("--bounds", default="-5,5,-3,3",
                    help="xmin,xmax,ymin,ymax")
    pp.add_argument("--grid", default="161,121", help="nx,ny")
    pp.add_argument("--out", default="plot_out")
    return p


def _cmd_solve(args):
    pair = load_pair(args.pair)
    region = load_region(args.region)
    res = _solve(pair, region, args.algo, args.mu, args.time, args.max_iters,
                 args.seed)

    os.makedirs(args.out, exist_ok=True)
    trace_path = args.trace or os.path.join(args.out, "trace.csv")
    write_trace(trace_path, res.trace)
    result_path = os.path.join(args.out, "result.json")
    payload = res.to_dict()
    payload["trace"] = trace_path
    with open(result_path, "w") as fh:
        json.dump(payload, fh, indent=1)
    save_pair(os.path.join(args.out, "solution_pair.json"), res.pair)

    print(f"algorithm: {res.algorithm}")
    print(f"objective: {_fmt(res.objective)}")
    print(f"relative error: {_fmt(res.relative_error)}")
    print(f"iterations: {res.iterations}")
    print(f"admissible: {res.admissible}")
    for reason in res.admissibility.reasons:
        print(f"  reason: {reason}")
    print(f"result: {result_path}")
    return EXIT_OK if res.admissible else EXIT_FLAGGED


def _cmd_check(args):
    pair = load_pair(args.pair)
    region = load_region(args.region)
    verdict = admissibility_check(pair, region, margin_tol=args.tol_margin)
    rep = verdict.spectrum
    print(f"n: {pair.n}")
    print(f"rank(E): {rep.rank_E}")
    print(f"regular: {rep.is_regular}")
    print(f"impulse-free: {rep.is_impulse_free}")
    print(f"finite eigenvalues: {rep.num_finite}; infinite: {rep.num_infinite}")
    for lam, margin in zip(rep.finite_eigenvalues, verdict.margins):
        print(f"  lambda = {_fmt(lam.real)} + {_fmt(lam.imag)}j"
              f"  margin = {_fmt(margin)}")
    print(f"admissible: {verdict.admissible}")
    for reason in verdict.reasons:
        print(f"  reason: {reason}")
    return EXIT_OK if verdict.admissible else EXIT_CHECK_FAILED


def _cmd_bench(args):
    with open(args.spec) as fh:
        spec = json.load(fh)
    if not isinstance(spec, list):
        raise ValueError(f"bench spec {args.spec} must hold a JSON list of instances")
    instances = [BenchInstance.from_dict(obj) for obj in spec]
    rows = run_table(instances, out_dir=args.out)
    for row in rows:
        err = row["error"] or "ok"
        print(f"{row['instance']:>24s}  {row['algorithm']:>4s}  "
              f"rel_err% = {_fmt(row['relative_error_pct'])}  "
              f"admissible = {row['admissible']}  ({err})")
    print(f"table: {os.path.join(args.out, 'results.csv')}")
    return EXIT_OK


def _cmd_region_info(args):
    region = load_region(args.region)
    print(f"size: {region.size}")
    print(f"primitives: {len(region.primitives)}")
    for p in region.primitives:
        print(f"  {p.kind}: " + ", ".join(f"{k}={_fmt(v)}" for k, v in p.params.items()))
    print(f"uniform part nonempty: {uniform_part_nonempty(region)}")
    with np.printoptions(precision=12, suppress=False):
        print("B =")
        print(region.B)
        print("C =")
        print(region.C)
    return EXIT_OK


def _flag_numbers(flag, text, kind):
    """The comma-separated numbers of a flag's value `text`, each read by
    `kind`; a value that does not read is an error naming the flag."""
    try:
        return tuple(kind(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} takes comma-separated numbers, got {text!r}") from None


def _cmd_plot_data(args):
    region = load_region(args.region)
    pairs = [load_pair(path) for path in args.pair]
    bounds = _flag_numbers("--bounds", args.bounds, float)
    grid = _flag_numbers("--grid", args.grid, int)
    if len(grid) != 2:
        raise ValueError(f"--grid needs nx,ny, got {args.grid!r}")
    files = region_plot_data(region, pairs, bounds, *grid, out_dir=args.out)
    for name, path in files.items():
        print(f"{name}: {path}")
    return EXIT_OK


def main(argv=None):
    args = _parser().parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "check": _cmd_check,
        "bench": _cmd_bench,
        "region-info": _cmd_region_info,
        "plot-data": _cmd_plot_data,
    }
    try:
        return handlers[args.command](args)
    except InfeasibleStartError as exc:
        print(f"error: infeasible region: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError, KeyError, FloatingPointError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
