#!/usr/bin/env python3
"""Steadiness check for the perfbench benchmark.

    python3 perfbench/steady.py [--workloads a,b] [--trace 0|1]
                                [--json out.json]

Runs two sets of ten runs of each workload, one after another; run r of
every set uses seed 2023 + r, the default seed first (run.py builds the
driver first if needed).  For every metric it prints each set's median
and quartiles (statistics.quantiles(n=4)) and the spread
(Q3 - Q1) / median, and it says whether

  - each spread stays within the metric's bound from BENCHMARK.json and
    below a third of it ("steady"),
  - the second set's median is within the bound of the first set's, in
    either direction ("agree"), and
  - virtual_s and every count repeat bit for bit at each seed.

It exits 1 when a check fails.  --json writes the per-set figures, the
form the checked-in baseline (perfbench/baseline.json) has.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SETS = 2
FIRST_SEED = 2023  # the driver's default seed, the one the goldens are at


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                       timeout=900)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {r.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: outputs not correct:\n" +
                           r.stdout)
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values),
            "values": values}


def worse_by(first, later, better):
    """How much worse `later` is than `first`, as a share of `first`
    (negative when it is better)."""
    if first == 0:
        return 0.0
    d = (later - first) / first
    return d if better == "lower" else -d


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--json")
    args = ap.parse_args()

    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    ok = True
    report = {"run_seconds": spec["run_seconds"], "runs": RUNS,
              "workloads": {}}
    for workload in args.workloads.split(","):
        sets, raw = [], []
        for s in range(SETS):
            runs = []
            for r in range(RUNS):
                seed = FIRST_SEED + r
                t0 = time.monotonic()
                runs.append(one_run(workload, seed, spec["run_seconds"],
                                    args.trace))
                print(f"  {workload} set {s} seed {seed} "
                      f"({time.monotonic() - t0:.1f} s): " +
                      " ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()),
                      file=sys.stderr)
            raw.append(runs)
            sets.append({m["name"]: summary([run[m["name"]] for run in runs])
                         for m in metrics})
        report["workloads"][workload] = sets
        print(f"\n{workload}  ({SETS} sets x {RUNS} runs, "
              f"{spec['run_seconds']} s each)")
        exact = [m["name"] for m in metrics
                 if m["name"] == "virtual_s" or m["unit"] == "count"]
        for name in exact:
            same = all(runs[r][name] == raw[0][r][name]
                       for runs in raw for r in range(RUNS))
            ok = ok and same
            print(f"  {name}: {'bit-identical' if same else 'DIFFERS'} "
                  f"across sets at every seed")
        print(f"  {'metric':<30} {'set':>3} {'median':>14} {'q1':>14} "
              f"{'q3':>14} {'spread':>8} {'bound':>6}  verdict")
        for m in metrics:
            name, bound = m["name"], m.get("bound")
            first = sets[0][name]
            for s, st in enumerate(st[name] for st in sets):
                verdict = []
                if bound is not None:
                    if st["spread"] > bound:
                        verdict.append("SPREAD>BOUND")
                        ok = False
                    elif st["spread"] > bound / 3:
                        verdict.append("spread>bound/3")
                    else:
                        verdict.append("steady")
                if bound is not None and s > 0:
                    w = worse_by(first["median"], st["median"], m["better"])
                    if abs(w) > bound:
                        verdict.append(f"DISAGREE({w:+.3f})")
                        ok = False
                    else:
                        verdict.append(f"agree({w:+.3f})")
                print(f"  {name:<30} {s:>3} {st['median']:>14.6g} "
                      f"{st['q1']:>14.6g} {st['q3']:>14.6g} "
                      f"{st['spread']:>8.4f} "
                      f"{'' if bound is None else bound:>6}  "
                      f"{' '.join(verdict)}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
    print("\nall spreads within bounds and sets agree" if ok
          else "\nSTEADINESS CHECK FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
