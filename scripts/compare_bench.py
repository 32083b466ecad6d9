#!/usr/bin/env python3
"""Compare two directories of benchmark JSON against each other.

CI caches the benchmark output of the last main build and feeds it here
together with the current run: any tracked metric that regresses by more
than the tolerance fails the job, so a perf regression is caught by the
PR that introduces it, not by someone eyeballing dashboards later.

Metrics are extracted per schema (the same documents check_bench.py
threshold-checks).  All are virtual-clock results and therefore exactly
reproducible.

usage: compare_bench.py --old <dir> --new <dir> [--tolerance 0.10]
                        [--report <path>]
       compare_bench.py --selftest
"""

import argparse
import json
import os
import sys
import tempfile

# Direction of goodness per metric: "lower" (runtimes) regresses when the
# new value exceeds old * (1 + tolerance); "higher" (throughput) regresses
# when the new value drops below old * (1 - tolerance).
LOWER, HIGHER = "lower", "higher"


def extract_fig4(doc):
    for p in doc.get("points", []):
        procs = p["procs"]
        for impl in ("cpu", "jax", "omp"):
            r = p.get(impl)
            if r and not r.get("oom"):
                yield f"fig4/procs={procs}/{impl}.runtime_s", \
                    r["runtime_s"], LOWER


def extract_fig5(doc):
    for i in doc.get("implementations", []):
        if not i.get("oom"):
            yield f"fig5/{i['name']}.runtime_s", i["runtime_s"], LOWER


def extract_fig6(doc):
    for k in doc.get("kernels", []):
        for impl in ("cpu_s", "jax_s", "omp_s"):
            yield f"fig6/{k['name']}.{impl}", k[impl], LOWER


def extract_overlap(doc):
    yield "overlap/sync_runtime_s", doc["sync_runtime_s"], LOWER
    for p in doc.get("points", []):
        yield f"overlap/streams={p['streams']}.runtime_s", \
            p["runtime_s"], LOWER


def extract_plan(doc):
    for j in doc.get("jobs", []):
        yield f"plan/{j['name']}.sync_runtime_s", j["sync_runtime_s"], LOWER
        yield f"plan/{j['name']}.prefetch_runtime_s", \
            j["prefetch_runtime_s"], LOWER


def extract_comm(doc):
    for p in doc.get("points", []):
        key = f"comm/ranks={p['ranks']}/bytes={p['bytes']:.0f}"
        yield f"{key}.ring_s", p["ring_s"], LOWER
        yield f"{key}.rsag_s", p["rsag_s"], LOWER


def extract_resilience(doc):
    # Virtual-clock runtimes: bitwise reproducible, so any drift is a
    # real model change.  Gate the recovery overhead (chaos minus clean)
    # rather than the booleans — check_bench.py --resilience owns those.
    ident = doc.get("identity", {})
    if "no_policy_runtime_s" in ident:
        yield "resilience/identity.runtime_s", \
            ident["no_policy_runtime_s"], LOWER
    shrink = doc.get("shrink", {})
    if "chaos_runtime_s" in shrink:
        yield "resilience/shrink.chaos_runtime_s", \
            shrink["chaos_runtime_s"], LOWER
    job = doc.get("job_shrink", {})
    if "chaos_runtime_s" in job:
        yield "resilience/job_shrink.chaos_runtime_s", \
            job["chaos_runtime_s"], LOWER
    deg = doc.get("degraded", {})
    if "runtime_s" in deg:
        yield "resilience/degraded.runtime_s", deg["runtime_s"], LOWER


def extract_tune(doc):
    # Virtual-clock runtimes, bitwise reproducible.  Gating the tuned
    # runtime catches both a cost-model regression and the tuner silently
    # settling for a worse schedule; the best hand-picked runtime is the
    # control (it moves only when the model itself moved).
    for r in doc.get("rows", []):
        yield f"tune/{r['name']}.tuned_runtime_s", \
            r["tuned_runtime_s"], LOWER
        yield f"tune/{r['name']}.best_hand_runtime_s", \
            r["best_hand_runtime_s"], LOWER
    for p in doc.get("crossover", {}).get("points", []):
        best = min(p["seconds"].values())
        yield f"tune/crossover/bytes={p['bytes']:.0f}.best_s", best, LOWER


def extract_serve(doc):
    # Virtual-clock service metrics, bitwise reproducible.  Throughput
    # regresses when it drops (scheduler packing fewer jobs per virtual
    # second); tail queue wait regresses when it grows.  The invariant
    # booleans are owned by check_bench.py --serve.
    for p in doc.get("points", []):
        key = f"serve/load={p['offered_load']:g}"
        yield f"{key}.throughput_jobs_per_s", \
            p["throughput_jobs_per_s"], HIGHER
        yield f"{key}.queue_wait_p99_s", p["queue_wait_p99_s"], LOWER
        yield f"{key}.makespan_s", p["makespan_s"], LOWER


EXTRACTORS = {
    "toastcase-bench-fig4-v1": extract_fig4,
    "toastcase-bench-fig5-v1": extract_fig5,
    "toastcase-bench-fig6-v1": extract_fig6,
    "toastcase-bench-overlap-v1": extract_overlap,
    "toastcase-bench-plan-v1": extract_plan,
    "toastcase-bench-comm-v1": extract_comm,
    "toastcase-bench-resilience-v1": extract_resilience,
    "toastcase-bench-tune-v1": extract_tune,
    "toastcase-bench-serve-v1": extract_serve,
}


def load_metrics(directory):
    """All tracked metrics from recognized documents under `directory`:
    {metric name: (value, direction)}."""
    metrics = {}
    for fname in sorted(os.listdir(directory)):
        if not fname.endswith(".json"):
            continue
        path = os.path.join(directory, fname)
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError):
            continue  # trace files and partial artifacts are not metrics
        extractor = EXTRACTORS.get(
            doc.get("schema") if isinstance(doc, dict) else None)
        if extractor is None:
            continue
        for name, value, direction in extractor(doc):
            metrics[name] = (float(value), direction)
    return metrics


def compare(old, new, tolerance):
    """Compare metric maps; returns (regressions, improvements, deltas).
    A regression is a tracked metric that moved in the bad direction by
    more than `tolerance` (relative)."""
    regressions, improvements, deltas = [], [], []
    for name in sorted(set(old) & set(new)):
        old_v, direction = old[name]
        new_v, _ = new[name]
        if old_v == 0:
            rel = 0.0 if new_v == 0 else float("inf")
        else:
            rel = (new_v - old_v) / abs(old_v)
        bad = rel if direction == LOWER else -rel
        entry = {
            "metric": name,
            "old": old_v,
            "new": new_v,
            "delta_pct": 100.0 * rel,
            "direction": direction,
            "tolerance_pct": 100.0 * tolerance,
        }
        deltas.append(entry)
        if bad > tolerance:
            regressions.append(entry)
        elif bad < -tolerance:
            improvements.append(entry)
    return regressions, improvements, deltas


def run_compare(old_dir, new_dir, tolerance, report_path):
    old = load_metrics(old_dir)
    new = load_metrics(new_dir)
    if not new:
        print(f"compare_bench.py: no tracked metrics under {new_dir}")
        return 1
    if not old:
        # First run on a branch with no cached baseline: nothing to
        # compare against yet, but the current metrics become the report.
        print(f"compare_bench.py: no baseline under {old_dir}; "
              f"recorded {len(new)} metrics, nothing to compare")
        write_report(report_path, tolerance, [], [], [],
                     sorted(new), [])
        return 0

    regressions, improvements, deltas = compare(old, new, tolerance)
    added = sorted(set(new) - set(old))
    removed = sorted(set(old) - set(new))

    print(f"compared {len(deltas)} metrics "
          f"(tolerance ±{100 * tolerance:.0f}%): "
          f"{len(regressions)} regressed, {len(improvements)} improved, "
          f"{len(added)} added, {len(removed)} removed")
    for e in improvements:
        print(f"  [better] {e['metric']}: "
              f"{e['old']:.6g} -> {e['new']:.6g} ({e['delta_pct']:+.1f}%)")
    for name in removed:
        print(f"  [gone]   {name} (was tracked in the baseline)")
    for e in regressions:
        print(f"  [WORSE]  {e['metric']}: "
              f"{e['old']:.6g} -> {e['new']:.6g} ({e['delta_pct']:+.1f}%)")

    write_report(report_path, tolerance, deltas, regressions, improvements,
                 added, removed)

    if regressions:
        print(f"\n{len(regressions)} metric(s) regressed beyond "
              f"±{100 * tolerance:.0f}%")
        return 1
    print("\nno benchmark regressions")
    return 0


def write_report(path, tolerance, deltas, regressions, improvements,
                 added, removed):
    if not path:
        return
    with open(path, "w") as f:
        json.dump(
            {
                "schema": "toastcase-bench-compare-v1",
                "tolerance": tolerance,
                "compared": len(deltas),
                "regressions": regressions,
                "improvements": improvements,
                "added": added,
                "removed": removed,
                "deltas": deltas,
            },
            f,
            indent=2,
        )
        f.write("\n")
    print(f"wrote {path}")


def selftest():
    """End-to-end check of the gate itself: identical runs must pass, a
    synthetic 20% slowdown (and a 20% throughput loss) must fail."""
    base = {
        "schema": "toastcase-bench-fig5-v1",
        "implementations": [
            {"name": "omp", "runtime_s": 100.0, "oom": False},
            {"name": "jax", "runtime_s": 120.0, "oom": False},
        ],
    }
    serve = {
        "schema": "toastcase-bench-serve-v1",
        "points": [{"offered_load": 1.0, "throughput_jobs_per_s": 3.0,
                    "queue_wait_p99_s": 2.0, "makespan_s": 50.0}],
    }

    def write_dir(d, fig5, srv):
        with open(os.path.join(d, "fig5.json"), "w") as f:
            json.dump(fig5, f)
        with open(os.path.join(d, "BENCH_serve.json"), "w") as f:
            json.dump(srv, f)

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        old_d = os.path.join(tmp, "old")
        same_d = os.path.join(tmp, "same")
        slow_d = os.path.join(tmp, "slow")
        ratio_d = os.path.join(tmp, "ratio")
        for d in (old_d, same_d, slow_d, ratio_d):
            os.mkdir(d)
        write_dir(old_d, base, serve)
        write_dir(same_d, base, serve)

        slow = json.loads(json.dumps(base))
        slow["implementations"][0]["runtime_s"] *= 1.20  # 20% slower
        write_dir(slow_d, slow, serve)

        # A higher-is-better metric regresses when it drops.
        lost = json.loads(json.dumps(serve))
        lost["points"][0]["throughput_jobs_per_s"] *= 0.80
        write_dir(ratio_d, base, lost)

        print("--- selftest: identical runs must pass")
        if run_compare(old_d, same_d, 0.10, "") != 0:
            failures.append("identical runs flagged as a regression")
        print("--- selftest: 20% runtime slowdown must fail")
        if run_compare(old_d, slow_d, 0.10, "") != 1:
            failures.append("20% slowdown not flagged")
        print("--- selftest: 20% throughput loss must fail")
        if run_compare(old_d, ratio_d, 0.10, "") != 1:
            failures.append("20% throughput loss not flagged")
        print("--- selftest: missing baseline must pass (first run)")
        empty_d = os.path.join(tmp, "empty")
        os.mkdir(empty_d)
        if run_compare(empty_d, same_d, 0.10, "") != 0:
            failures.append("missing baseline treated as a failure")

    if failures:
        for msg in failures:
            print(f"selftest FAIL: {msg}")
        return 1
    print("selftest passed")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--old", help="baseline directory (cached from main)")
    ap.add_argument("--new", help="current run's benchmark directory")
    ap.add_argument("--tolerance", type=float, default=0.10,
                    help="relative regression tolerance (default 0.10)")
    ap.add_argument("--report", default="",
                    help="write the delta report JSON here")
    ap.add_argument("--selftest", action="store_true",
                    help="verify the gate catches a synthetic regression")
    args = ap.parse_args()

    if args.selftest:
        return selftest()
    if not args.old or not args.new:
        ap.error("--old and --new are required (or use --selftest)")
    return run_compare(args.old, args.new, args.tolerance, args.report)


if __name__ == "__main__":
    sys.exit(main())
