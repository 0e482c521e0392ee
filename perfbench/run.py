#!/usr/bin/env python3
"""omegapair benchmark: fixed-work solves through the public API.

Run from the repository root:

    python3 perfbench/run.py --workload fgm-paper --seed 1 --seconds 30 --trace 0

One run sets the workload up (five times, each in a fresh interpreter,
for `setup_s`, then once more for itself), then makes whole passes over
the workload's call list: at least two, so that every operation is
repeated and checked for determinism, and more while the next pass should
still end within `--seconds`. Every result goes through the correctness gate in
`workloads.py`. With `--trace 1` every second pass is traced (see
`spans.py`) and the per-layer metrics replace the end-to-end ones.

Times are reported at a reference host speed. The host's CPU speed can
change by 2x from one second to the next, so a fixed probe of small
numpy calls and Python overhead (independent of omegapair) is timed before
and after every call and, for about 1 ms, every TICK_S seconds during it.
Each call's time, less those ticks, is scaled by PROBE_REF_S over the
probe's time per PROBE_REPS rounds across the probes around and inside
the call. The unscaled times are printed on the '#'
lines, and the traced run reports them with the probe's own figures as
`host.*` metrics. A run whose median probe differs from the median of
PROBE_SETTLE probes taken just after set-up by more than PROBE_DRIFT_MAX
is flagged: the scaling may then be absorbing a slowdown that the
program leaves behind in its own process.

With `--trace 1` the spans of every traced pass are written to
`perfbench/spans.jsonl` at the end of the run.

Human-readable lines start with '#'; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

import os

# One BLAS thread, set before numpy is first imported here or in a child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import glob
import json
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
# the keys of workloads.WORKLOADS; that module is imported only in set_up, which times it
WORKLOADS = ("fgm-paper", "bcd-regions", "large-n")
SETUP_SAMPLES = 5
MIN_PASSES = 2
PROBE_REPS = 250
PROBE_REF_S = 0.013  # probe time at the reference speed: its fastest on a 2-CPU Xeon VM
TICK_S = 0.1
TICK_ROUNDS = 20  # about 1 ms of probe per tick
PROBE_SETTLE = 5
PROBE_DRIFT_MAX = 0.25  # the bound of wall_s in BENCHMARK.json
SPANS_FILE = os.path.join(HERE, "spans.jsonl")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=2017,
                   help="drives the composite-region instance and the large-n "
                        "check batch (2017: the paper's instance)")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measure for about this long (at least two passes)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def set_up(workload, seed):
    """Import omegapair, build the workload's inputs, make one warm-up call.

    Returns the workload module, the call list and the seconds it took.
    """
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import workloads
    if not os.path.abspath(workloads.op.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported omegapair from {workloads.op.__file__}, "
                         f"not from {SRC}")
    ops, warm = workloads.WORKLOADS[workload](seed)
    warm.run()
    return workloads, ops, time.perf_counter() - t0


class SpeedProbe:
    """A fixed routine of small numpy calls and Python overhead, timed to
    follow the host's CPU speed; it does not touch omegapair."""

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        M = rng.standard_normal((10, 10))
        B = rng.standard_normal((40, 40))
        self.sym, self.spd = M + M.T, B @ B.T + 40.0 * np.eye(40)
        self.x, self.K = rng.standard_normal(150), rng.standard_normal((150, 20, 20))
        self()  # the first call pays one-off costs of numpy and LAPACK

    def sample(self, rounds=PROBE_REPS):
        """Run `rounds` rounds of the probe; returns (start, end, rounds)."""
        np = self.np
        t0 = time.perf_counter()
        for _ in range(rounds):
            np.linalg.eigh(self.sym)
            np.linalg.cholesky(self.spd)
            np.einsum("k,kij->ij", self.x, self.K)
            sum(range(300))
        return t0, time.perf_counter(), rounds

    def __call__(self):
        return probe_time([self.sample()])


def probe_time(samples):
    """Seconds the probe takes for PROBE_REPS rounds, over (start, end, rounds) samples."""
    return PROBE_REPS * sum(e - b for b, e, _ in samples) / sum(r for _, _, r in samples)


class Ticker:
    """Runs TICK_ROUNDS rounds of the probe every TICK_S seconds while a call
    runs (on SIGALRM, in the main thread), so that a long call is scaled by
    the host's speed during it and not only at its ends."""

    def __init__(self, probe):
        self.probe, self.ticks, self._busy = probe, [], False
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        if not self._busy:
            self._busy = True
            self.ticks.append(self.probe.sample(TICK_ROUNDS))
            self._busy = False

    @contextlib.contextmanager
    def running(self):
        self.ticks = []
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield self.ticks
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)


@dataclass
class CallTiming:
    start: float
    end: float
    samples: list  # probe samples: one just before the call, the ticks inside it, one after

    def net(self, until):
        """Seconds from the start of the call to `until`, less the ticks."""
        return until - self.start - sum(max(0.0, min(e, until) - b)
                                        for b, e, _ in self.samples[1:-1])

    @property
    def raw(self):
        return self.net(self.end)

    def scaled(self, elapsed=None):
        """Net seconds of the call's first `elapsed` seconds (all of it by
        default) at the reference speed of the probes run up to then."""
        until = self.end if elapsed is None else min(self.start + elapsed, self.end)
        used = [s for s in self.samples[:-1] if s[0] < until]
        if until >= self.end:
            used.append(self.samples[-1])
        return self.net(until) * PROBE_REF_S / probe_time(used)


def setup_samples(args, probe):
    """Scaled set-up times of SETUP_SAMPLES fresh interpreters, each waited for."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples, before = [], probe()
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
        after = probe()
        samples.append(float(out.stdout.split()[-1]) * 2.0 * PROBE_REF_S / (before + after))
        before = after
    return samples


def _blas_threads(libdir):
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return getattr(lib, sym)()
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            return next((line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name")), platform.processor())
    except OSError:
        return platform.processor()


def _git_revision():
    """The commit checked out at the repository root, or None outside a git checkout."""
    git = os.path.join(os.path.dirname(HERE), ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            return next((line.split()[0] for line in fh if line.rstrip().endswith(" " + ref)),
                        None)
    except OSError:
        return None


def environment():
    import numpy
    import scipy

    env = {"revision": _git_revision(), "cpu": _cpu_model(), "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)), "machine": platform.machine(),
           "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__}
    for mod in (numpy, scipy):
        blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        site = os.path.dirname(os.path.dirname(mod.__file__))
        env[f"{mod.__name__}_blas"] = {
            "name": blas.get("name"), "version": blas.get("version"),
            "threads": _blas_threads(os.path.join(site, f"{mod.__name__}.libs"))}
    return env


@dataclass
class Pass:
    traced: bool
    calls: list = field(default_factory=list)  # CallTiming per call
    outs: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    @property
    def wall(self):
        return sum(c.raw for c in self.calls)

    @property
    def scaled(self):
        return sum(c.scaled() for c in self.calls)

    @property
    def probes(self):
        """Times of the full probes: before the first call and after each."""
        return [probe_time([c.samples[0]]) for c in self.calls[:1]] + [
            probe_time([c.samples[-1]]) for c in self.calls]


def run_pass(ops, probe, ticker, tracer=None):
    """One timed pass over the call list; outcomes are gated afterwards."""
    p = Pass(traced=tracer is not None)
    with tracer.recording() if tracer else contextlib.nullcontext([]) as recorded:
        before = probe.sample()
        for i, op in enumerate(ops):
            if tracer:
                tracer.solve = i
            with ticker.running() as ticks:
                start = time.perf_counter()
                try:
                    p.outs.append(op.run())
                except Exception as exc:  # a raising call is a failed operation; the pass goes on
                    p.outs.append(exc)
                end = time.perf_counter()
            after = probe.sample()
            p.calls.append(CallTiming(start, end,
                                      [before, *(t for t in ticks if t[0] < end), after]))
            before = after
    p.spans = recorded
    return p


@dataclass
class Verdict:
    """Gate findings of one run."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    findings: list = field(default_factory=list)

    def add(self, label, problems, wrong):
        if problems:
            self.failed += 1
            self.correct = self.correct and not wrong
            self.findings += [f"{label}: {msg}" for msg in problems]


def gate(ops, passes):
    """Apply the per-operation gate and the determinism check to every pass."""
    v = Verdict()
    first = {}
    for k, p in enumerate(passes):
        for i, (op, out) in enumerate(zip(ops, p.outs)):
            v.attempted += 1
            label = f"pass {k + 1} {op.name}"
            if isinstance(out, Exception):
                v.add(label, [f"raised {type(out).__name__}: {out}"], wrong=True)
                continue
            wrong, missed = op.gate(out)
            fp = op.fingerprint(out)
            first.setdefault(i, fp)
            if not op.same(first[i], fp):
                wrong = wrong + [f"differs from its first run: {fp} vs {first[i]}"]
            v.add(label, wrong + missed, wrong=bool(wrong))
    return v


def end_to_end(passes, setup, verdict):
    untraced = [p for p in passes if not p.traced]
    return {
        "wall_s": (statistics.median(p.scaled for p in untraced), "s"),
        "time_to_target_s": (statistics.median(p.summary["time_to_target_s"]
                                               for p in untraced), "s"),
        "rel_err_pct": (statistics.median(p.summary["rel_err_pct"] for p in untraced), "%"),
        "pass_frac": ((verdict.attempted - verdict.failed) / verdict.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def probe_drift(passes, settled):
    """Median probe of the passes over the median probe just after set-up, minus 1."""
    return statistics.median(t for p in passes for t in p.probes) / settled - 1.0


def per_layer(passes, drift):
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    metrics = spans.median_metrics([spans.layer_metrics(p.spans, p.summary) for p in traced])
    metrics["trace.overhead_frac"] = (statistics.median(p.scaled for p in traced)
                                      / statistics.median(p.scaled for p in untraced)
                                      - 1.0, "ratio")
    metrics["host.wall_raw_s"] = (statistics.median(p.wall for p in untraced), "s")
    metrics["host.probe_ratio"] = (statistics.median(t for p in passes for t in p.probes)
                                   / PROBE_REF_S, "ratio")
    metrics["host.probe_drift"] = (drift, "ratio")
    return metrics


def describe(ops, k, p):
    print(f"# pass {k + 1}{' (traced)' if p.traced else ''}: {p.wall:.3f} s, "
          f"{p.scaled:.3f} s scaled")
    for op, out, t in zip(ops, p.outs, (c.raw for c in p.calls)):
        if isinstance(out, Exception):
            print(f"#   {op.name}: raised {type(out).__name__} after {t:.3f} s")
        else:
            print(f"#   {op.name}: {t:.3f} s, {op.describe(out)}")


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "omegapair", "__init__.py")):
        print(f"perfbench: no omegapair source under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.setup_only:
        print(set_up(args.workload, args.seed)[2])
        return 0

    probe = SpeedProbe()
    setup = [] if args.trace else setup_samples(args, probe)
    workloads, ops, _ = set_up(args.workload, args.seed)
    settled = statistics.median(probe() for _ in range(PROBE_SETTLE))
    print(f"# omegapair benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# environment " + json.dumps(environment()))
    if setup:
        print("# setup_s samples (scaled) " + " ".join(f"{s:.4f}" for s in setup))

    tracer = spans.Tracer(workloads.op) if args.trace else None
    ticker = Ticker(probe)
    passes = []
    t0 = time.perf_counter()
    # another pass only when it should end within --seconds, at the speed of the last one
    while (len(passes) < MIN_PASSES
           or time.perf_counter() - t0 + passes[-1].wall <= args.seconds):
        passes.append(run_pass(ops, probe, ticker, tracer if len(passes) % 2 else None))

    for k, p in enumerate(passes):
        p.summary = workloads.pass_summary(ops, p.outs, p.calls)
        describe(ops, k, p)
    verdict = gate(ops, passes)
    for msg in verdict.findings:
        print(f"# FAILED {msg}")
    drift = probe_drift(passes, settled)
    print(f"# probe drift {drift:+.4f} (median probe of the passes over the median "
          f"after set-up, minus 1)")
    if abs(drift) > PROBE_DRIFT_MAX:
        print(f"# FLAG probe drift {drift:+.3f} exceeds {PROBE_DRIFT_MAX}: the scaled times "
              "may hide a slowdown of the benchmark process")

    if args.trace:
        metrics = per_layer(passes, drift)
        spans.write_spans(SPANS_FILE, [p.spans for p in passes if p.traced])
    else:
        metrics = end_to_end(passes, setup, verdict)
    print(f"# failed_frac {verdict.failed / verdict.attempted:.6g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
