#!/usr/bin/env python3
"""Repeat the benchmark over seeds and report each metric's median and spread.

Run from the repository root, for instance

    python3 perfbench/repeat.py --workloads fgm-paper large-n --seeds 1-10

For every workload and end-to-end metric this prints the median over the
runs, the quartiles, and the spread (q3 - q1) / median next to the
metric's bound from BENCHMARK.json. With `--trace 1` it checks instead
that the per-layer counts repeat exactly. `--out FILE` also writes every
run's result and the environment record that run.py prints (machine,
library versions, BLAS threads, git revision) as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# counts that must repeat exactly between traced runs of the same code
COUNTS = ("fgm.iterations", "fgm.ls_trials_per_iter", "sdp.newton_steps", "sdp.cold_starts",
          "bcd.sweeps", "pencil.checks", "regions.membership_calls", "result.repairs")


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600,
                         check=True).stdout.splitlines()
    env = next((json.loads(line[len("# environment "):]) for line in out
                if line.startswith("# environment ")), {})
    flags = [line[len("# FLAG "):] for line in out if line.startswith("# FLAG ")]
    return json.loads(out[-1]), env, flags


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+")
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"),
                   help="inclusive range such as 1-10")
    p.add_argument("--seconds", type=int,
                   help="measurement time per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", metavar="FILE")
    args = p.parse_args()
    if len(args.seeds) < 2:
        p.error("need at least two seeds")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    record = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for w in workloads:
        runs = []
        for seed in args.seeds:
            result, env, flags = run_once(w, seed, seconds, args.trace)
            record["environment"] = env
            runs.append({"seed": seed, **result, "flags": flags})
            print(f"{w} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
            for flag in flags:
                print(f"  FLAG {flag}")
            ok = ok and result["correct"]
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            if args.trace:
                summary[name] = {"median": statistics.median(values)}
                if name in COUNTS and len(set(values)) > 1:
                    print(f"  {name} differs between runs: {values}")
                    ok = False
                continue
            summary[name] = summarize(values)
            s = summary[name]
            print(f"  {name:18s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}  bound {bounds[name]}")
        record["workloads"][w] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
