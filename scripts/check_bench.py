#!/usr/bin/env python3
"""Threshold-check the benchmark JSON output against the paper's findings.

CI runs the figure benchmarks in --json mode and feeds the files here; the
checks assert the *relative ordering* the paper reports (Demeure et al.,
SC-W 2023), not absolute seconds, so they are robust to model retuning but
fail if a code change flips a JAX-vs-OpenMP conclusion.

usage: check_bench.py --fig4 fig4.json --fig6 fig6.json [--fig5 fig5.json]
                      [--overlap overlap.json] [--faults faults.json]
                      [--plan plan.json] [--comm comm.json]
                      [--async async.json]
                      [--resilience resilience.json] [--tune tune.json]
"""

import argparse
import json
import sys

FAILURES = []


def check(cond, msg):
    status = "ok" if cond else "FAIL"
    print(f"  [{status}] {msg}")
    if not cond:
        FAILURES.append(msg)


def expect_schema(doc, want):
    got = doc.get("schema")
    if got != want:
        raise ValueError(f"schema is {got!r}, expected {want!r}")


def warn_unknown_keys(doc, known, path):
    """Warn (without failing) about top-level keys the checker does not
    understand: usually a renamed section, where silently ignoring it
    would turn every assertion on the old name into a vacuous pass."""
    for key in sorted(set(doc) - set(known) - {"schema", "benchmark"}):
        print(f"  [warn] {path}: unknown top-level key {key!r} "
              "(checker out of date?)")


def non_empty(seq, what):
    """Guard against vacuous passes: a checker iterating an empty list
    would report success without checking anything.  An empty section
    means the benchmark emitted a truncated file and must fail CI."""
    if not seq:
        raise ValueError(f"section {what!r} is empty (truncated output?)")
    return seq


def run_check(fn, path):
    """Run one file checker; a missing key, a malformed document or a
    failed structural assertion is a clear failure, not a traceback (a
    benchmark that wrote a malformed/truncated file must fail CI with a
    message that names the problem and the file)."""
    try:
        fn(path)
    except KeyError as e:
        print(f"check_bench.py: missing key {e.args[0]!r} in {path}")
        sys.exit(1)
    except (AssertionError, ValueError) as e:
        print(f"check_bench.py: malformed document {path}: {e}")
        sys.exit(1)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_bench.py: cannot read {path}: {e}")
        sys.exit(1)


def check_fig6(path):
    with open(path) as f:
        doc = json.load(f)
    expect_schema(doc, "toastcase-bench-fig6-v1")
    print(f"fig6 ({path}):")
    warn_unknown_keys(doc, {"kernels", "mean_jax_over_omp", "data_movement",
                            "procs"}, path)
    kernels = {k["name"]: k for k in non_empty(doc["kernels"], "kernels")}

    for name, k in kernels.items():
        check(
            k["cpu_s"] > k["jax_s"] > 0 and k["cpu_s"] > k["omp_s"] > 0,
            f"{name}: both GPU ports beat the CPU baseline",
        )

    # Paper §4.3: pixels_healpix strongly favours OpenMP target (branchy
    # kernel, 41x vs JAX 11x) while template_offset_project_signal favours
    # JAX (XLA's linear-algebra lowering, 45x vs 19x).
    ph = kernels["pixels_healpix"]
    check(ph["omp_s"] < ph["jax_s"], "pixels_healpix: omp faster than jax")
    op = kernels["template_offset_project_signal"]
    check(op["jax_s"] < op["omp_s"],
          "template_offset_project_signal: jax faster than omp")

    # Paper: OMP faster than JAX per kernel on average (~2.4x).
    check(doc["mean_jax_over_omp"] > 1.0,
          f"mean jax/omp ratio {doc['mean_jax_over_omp']:.2f} > 1")


def check_fig4(path):
    with open(path) as f:
        doc = json.load(f)
    expect_schema(doc, "toastcase-bench-fig4-v1")
    print(f"fig4 ({path}):")
    warn_unknown_keys(doc, {"points"}, path)
    points = {p["procs"]: p for p in non_empty(doc["points"], "points")}

    # Paper §4.1 memory behaviour: JAX cannot run at 1 or 64 processes,
    # the OpenMP port fits at 1 but not 64, the CPU baseline always fits.
    check(points[1]["jax"]["oom"], "jax OOM at 1 process")
    check(points[64]["jax"]["oom"], "jax OOM at 64 processes")
    check(not points[1]["omp"]["oom"], "omp-target fits at 1 process")
    check(points[64]["omp"]["oom"], "omp-target OOM at 64 processes")
    check(all(not p["cpu"]["oom"] for p in points.values()),
          "cpu baseline never OOMs")

    # Where all three run: omp < jax < cpu.
    for procs, p in sorted(points.items()):
        if p["jax"]["oom"] or p["omp"]["oom"]:
            continue
        check(
            p["omp"]["runtime_s"] < p["jax"]["runtime_s"]
            < p["cpu"]["runtime_s"],
            f"@{procs} procs: omp < jax < cpu",
        )

    # CPU runtime falls monotonically with process count (serial work is
    # parallelized by adding processes).
    cpu_times = [p["cpu"]["runtime_s"] for _, p in sorted(points.items())]
    check(all(a > b for a, b in zip(cpu_times, cpu_times[1:])),
          "cpu runtime falls with process count")


def check_fig5(path):
    with open(path) as f:
        doc = json.load(f)
    expect_schema(doc, "toastcase-bench-fig5-v1")
    print(f"fig5 ({path}):")
    warn_unknown_keys(doc, {"implementations", "comm", "prefetch", "staging"},
                      path)
    impls = {i["name"]: i
             for i in non_empty(doc["implementations"], "implementations")}

    check(not any(i["oom"] for i in impls.values()),
          "large problem fits for all implementations")
    # Paper §4.2: omp-target 2.58x > jax 2.28x > cpu; jax-on-CPU far slower.
    check(impls["omp"]["runtime_s"] < impls["jax"]["runtime_s"]
          < impls["cpu"]["runtime_s"], "omp < jax < cpu")
    check(impls["jax_cpu"]["runtime_s"] > impls["cpu"]["runtime_s"],
          "jax CPU backend slower than the threaded baseline")


def check_overlap(path):
    with open(path) as f:
        doc = json.load(f)
    expect_schema(doc, "toastcase-bench-overlap-v1")
    print(f"overlap ({path}):")
    warn_unknown_keys(doc, {"points", "sync_runtime_s", "chunks"}, path)
    points = {p["streams"]: p["runtime_s"]
              for p in non_empty(doc["points"], "points")}
    sync = doc["sync_runtime_s"]

    # One stream must reproduce the synchronous timeline exactly (the
    # scheduler's serial-equivalence guarantee).
    check(points[1] == sync,
          f"1 stream == synchronous timeline ({points[1]} vs {sync})")
    # More streams never hurt (overlap can only hide time, not add it).
    runtimes = [t for _, t in sorted(points.items())]
    check(all(a >= b for a, b in zip(runtimes, runtimes[1:])),
          "runtime non-increasing with stream count")
    # And >= 2 streams must actually overlap: strictly faster than serial.
    check(min(t for s, t in points.items() if s >= 2) < sync,
          "multi-stream pipeline strictly faster than serial")


def check_faults(path):
    with open(path) as f:
        doc = json.load(f)
    expect_schema(doc, "toastcase-bench-faults-v1")
    print(f"faults ({path}):")
    warn_unknown_keys(doc, {"backends"}, path)
    backends = {b["name"]: b for b in non_empty(doc["backends"], "backends")}

    for name, b in sorted(backends.items()):
        # The contract of the fault layer: an empty plan changes nothing,
        # and a seeded plan is fully deterministic (identical runtimes AND
        # identical fault counters across two runs).
        check(b["zero_fault_identical"],
              f"{name}: empty fault plan bit-for-bit identical to no plan")
        check(b["chaos_deterministic"],
              f"{name}: same chaos seed twice yields identical results")
        check(b["chaos_runtime_s"] >= b["baseline_runtime_s"],
              f"{name}: chaos run never faster than the clean run")

    # Accelerated backends must survive persistent launch faults by
    # degrading kernels to their CPU implementations.
    for name in ("jax", "omp"):
        b = backends[name]
        check(b["fallback_completed"],
              f"{name}: persistent launch faults complete via CPU fallback")
        check(b["fallback_counters"].get("fault_fallbacks", 0) > 0,
              f"{name}: fallback counters recorded")
        check(len(b["degraded_kernels"]) > 0,
              f"{name}: degraded kernels listed")


def check_plan(path):
    with open(path) as f:
        doc = json.load(f)
    expect_schema(doc, "toastcase-bench-plan-v2")
    print(f"plan ({path}):")
    warn_unknown_keys(doc, {"direct", "jobs"}, path)

    # Plan replay keeps the science: every staging mode, backend and
    # chaos plan yields the fault-free omp pipelined row's products bit
    # for bit, and recovery from injected faults costs virtual time.
    direct = {r["name"]: r for r in non_empty(doc["direct"], "direct")}
    ref = direct["omp_pipelined"]
    for name, row in direct.items():
        check(row["signal_sum"] == ref["signal_sum"]
              and row["zmap_sum"] == ref["zmap_sum"],
              f"{name}: science products bitwise equal to omp_pipelined")
    chaos = [r for r in direct.values() if "fault_free" in r]
    for row in non_empty(chaos, "direct chaos rows"):
        clean = direct[row["fault_free"]]
        check(row["plan_runtime_s"] > clean["plan_runtime_s"],
              f"{row['name']}: slower than fault-free {clean['name']}")

    jobs = {j["name"]: j for j in non_empty(doc["jobs"], "jobs")}
    for name, j in sorted(jobs.items()):
        # Prefetch overlaps next-operator uploads with compute: the planned
        # hybrid job must be strictly faster than the sync plan.
        check(j["prefetch_runtime_s"] < j["sync_runtime_s"],
              f"{name} job: prefetch strictly faster than sync plan")
        counters = j["plan_counters"]
        check(counters.get("plan_cache_hits", 0) > 0,
              f"{name} job: plan cache re-used across observations")
        check(counters.get("transfers_avoided", 0) > 0,
              f"{name} job: pipelined staging avoids transfers vs naive")
        check(counters.get("prefetched_uploads", 0) > 0,
              f"{name} job: uploads actually ran on the copy engine")
        check(counters.get("evictions", 0) > 0,
              f"{name} job: liveness eviction fired")
        check(counters.get("peak_mapped_bytes", 0) > 0,
              f"{name} job: peak mapped bytes recorded")


def check_comm(path):
    with open(path) as f:
        doc = json.load(f)
    expect_schema(doc, "toastcase-bench-comm-v1")
    print(f"comm ({path}):")
    warn_unknown_keys(doc, {"points", "determinism"}, path)
    points = non_empty(doc["points"], "points")

    # The engine's oracle contract: ring allreduce on the uniform topology
    # reproduces the CommModel closed form bit for bit at EVERY grid point.
    check(all(p["ring_equals_formula"] for p in points),
          "engine ring allreduce bitwise-equal to the closed form")

    by_ranks = {}
    for p in points:
        by_ranks.setdefault(p["ranks"], []).append(p)
    for ranks, group in sorted(by_ranks.items()):
        group.sort(key=lambda p: p["bytes"])
        big = group[-1]
        # Bandwidth regime: reduce-scatter + all-gather sends the same
        # volume over fewer rounds, so it never loses to the ring.
        check(big["rsag_s"] <= big["ring_s"],
              f"@{ranks} ranks: rs+ag <= ring at {big['bytes']:.0f} bytes")
        # Latency regime: the log-round tree wins small messages once the
        # ring's 2(n-1) rounds dominate.
        if ranks >= 4:
            small = group[0]
            check(small["tree_s"] < small["ring_s"],
                  f"@{ranks} ranks: tree < ring at {small['bytes']:.0f} bytes")

    # Packed nodes share NICs: the cluster topology must cost more than
    # the uniform one at the largest (multi-node, bandwidth-bound) point.
    largest = max(points, key=lambda p: (p["ranks"], p["bytes"]))
    check(largest["cluster_rsag_s"] > largest["rsag_s"],
          f"@{largest['ranks']} ranks: shared NICs contend vs uniform")

    det = doc["determinism"]
    check(det["repeat_identical"],
          "repeated engine schedule bitwise identical")
    check(det["chaos_deterministic"],
          "pinned chaos plan twice yields identical makespan")
    check(det["chaos_slower"], "degraded links cost schedule time")


# Pipelining the destriper's collectives behind the next matvec has to
# actually hide latency, not just reshuffle spans: the overlap solve must
# beat the staged solve by at least this factor.
ASYNC_MIN_OVERLAP = 1.1


def check_async(path):
    with open(path) as f:
        doc = json.load(f)
    expect_schema(doc, "toastcase-bench-async-v2")
    print(f"async ({path}):")
    warn_unknown_keys(doc, {"plan", "pipeline_overlap", "solver", "chaos"},
                      path)

    # Recording the step log must not move a bit: the logged run
    # reproduces staged plan replay — virtual runtime, TimeLog and
    # science products — including under the launch-chaos plan that
    # forces a mid-run degrade onto the patch steps.
    for row in non_empty(doc["plan"], "plan"):
        name = row["name"]
        check(row["runtime_equal"],
              f"{name}: logged runtime bitwise-equal to staged replay")
        check(row["timelog_equal"],
              f"{name}: logged TimeLog identical to staged replay")
        check(row["products_equal"],
              f"{name}: science products identical to staged replay")
        check(row["n_tasks"] > 0, f"{name}: steps actually executed")
        check(0.0 < row["critical_path_s"] <= row["total_busy_s"],
              f"{name}: critical path within (0, busy] seconds")
        check(0.0 <= row["overlap_fraction"] < 1.0,
              f"{name}: overlap fraction in [0, 1)")
    chaos_rows = [r for r in doc["plan"] if "chaos" in r["name"]]
    check(bool(chaos_rows) and all(r["patched"] > 0 for r in chaos_rows),
          "chaos plan rows re-routed groups to their patch steps")

    # Overlap runs: placing the step log may only shorten the virtual
    # clock, and never at the cost of bitwise parity.
    for row in non_empty(doc["pipeline_overlap"], "pipeline_overlap"):
        name = row["name"]
        check(row["products_equal"],
              f"{name}: overlap run keeps products bitwise")
        check(row["timelog_equal"],
              f"{name}: overlap run keeps TimeLog identical")
        check(row["no_slower"],
              f"{name}: overlap run no slower than staged replay")
        check(row["speedup"] > 0.0,
              f"{name}: overlap speedup {row['speedup']:.3f}x positive")

    solver = doc["solver"]
    check(solver["overlap_products_equal"],
          "solver: overlap mode leaves amplitudes/residuals bitwise")
    check(solver["overlap_speedup"] >= ASYNC_MIN_OVERLAP,
          f"solver: overlap {solver['overlap_speedup']:.2f}x over staged "
          f">= {ASYNC_MIN_OVERLAP}x floor")

    chaos = doc["chaos"]
    check(chaos["overlap_products_equal"],
          "chaos: overlap keeps staged products bitwise under pinned "
          "rank failures")
    check(chaos["checkpoint_restores"] > 0,
          "chaos: checkpoint restores actually fired")


def check_resilience(path):
    with open(path) as f:
        doc = json.load(f)
    expect_schema(doc, "toastcase-bench-resilience-v1")
    print(f"resilience ({path}):")
    warn_unknown_keys(
        doc, {"identity", "breaker", "shrink", "job_shrink", "degraded"},
        path)

    # The pass-through contract from the fault PR, now owned by the
    # policy engine: an empty policy document must change nothing.
    ident = doc["identity"]
    check(ident["bitwise_equal"],
          "identity: empty policy bitwise-equal to no policy")

    breaker = doc["breaker"]
    check(breaker["deterministic"],
          "breaker: same-seed repeat bitwise identical")
    check(breaker["opens"] > 0, "breaker: tripped under sustained faults")
    check(breaker["half_opens"] > 0 and breaker["closes"] > 0,
          "breaker: recovered through half-open probes")
    check(breaker["fast_fails"] > 0,
          "breaker: open state actually shed load")

    shrink = doc["shrink"]
    check(shrink["deterministic"],
          "shrink: world-shrink decisions repeat bitwise")
    check(shrink["world_shrinks"] > 0,
          "shrink: exhausted restore budget dropped a rank")
    check(shrink["amplitudes_match"],
          "shrink: amplitudes equal to the no-fault solve")
    check(shrink["chaos_runtime_s"] > shrink["clean_runtime_s"],
          "shrink: recovery cost charged to the virtual clock")

    job = doc["job_shrink"]
    check(job["deterministic"],
          "job_shrink: same-seed repeat bitwise identical")
    check(job["final_ranks"] < job["total_ranks"],
          "job_shrink: world actually shrank")
    check(job["world_shrinks"] > 0 and job["redistributed_obs"] > 0,
          "job_shrink: dead rank's observations redistributed")

    deg = doc["degraded"]
    check(deg["escalations"] > 0,
          "degraded: ladder escalated under repeated faults")
    check(deg["amplitudes_match"],
          "degraded: degraded comm modes keep products bitwise")


def check_tune(path):
    with open(path) as f:
        doc = json.load(f)
    expect_schema(doc, "toastcase-bench-tune-v1")
    print(f"tune ({path}):")
    warn_unknown_keys(doc, {"rows", "crossover", "determinism", "chaos"},
                      path)

    # The autotuner's contract: on every benchmarked shape the searched
    # schedule is never worse than the best hand-picked preset (the hand
    # presets all live inside the search space, and the tuner multi-starts
    # from any preset the greedy descent failed to dominate).
    for row in non_empty(doc["rows"], "rows"):
        name = row["name"]
        non_empty(row["hand"], f"{name}.hand")
        check(row["tuned_not_worse"],
              f"{name}: tuned never worse than hand-picked")
        check(row["tuned_runtime_s"] <= row["best_hand_runtime_s"],
              f"{name}: tuned {row['tuned_runtime_s']:.6g}s <= best hand "
              f"{row['best_hand_runtime_s']:.6g}s ({row['best_hand_name']})")
        check(row["tuned_evaluations"] > 0,
              f"{name}: tuner actually evaluated candidates")

    # The comm crossover (PR 5), rediscovered from the cost model alone:
    # on the fig5 cluster topology the micro-tuner must pick the binomial
    # tree in the latency regime (smallest message) and the ring
    # reduce-scatter + all-gather decomposition in the bandwidth regime
    # (largest message), with every choice the literal argmin of the
    # per-algorithm seconds it reports.
    points = non_empty(doc["crossover"]["points"], "crossover.points")
    for p in points:
        argmin = min(p["seconds"], key=p["seconds"].get)
        check(p["chosen"] == argmin,
              f"crossover @{p['bytes']:.0f}B: chosen {p['chosen']!r} is the "
              f"argmin")
    smallest = min(points, key=lambda p: p["bytes"])
    largest = max(points, key=lambda p: p["bytes"])
    check(smallest["chosen"] == "tree",
          f"crossover: tree wins the latency regime "
          f"({smallest['bytes']:.0f}B)")
    check(largest["chosen"] == "ring",
          f"crossover: rs+ag ring wins the bandwidth regime "
          f"({largest['bytes']:.0f}B)")
    check(smallest["chosen"] != largest["chosen"],
          "crossover: the winner actually crosses over")

    # Determinism: the same search twice must produce byte-identical
    # winners, and a pinned fault plan under the tuned schedule must not
    # break bitwise reproducibility.
    check(doc["determinism"]["repeat_identical"],
          "repeated tune run byte-identical")
    check(doc["chaos"]["bitwise_identical"],
          "pinned chaos plan under the tuned schedule bitwise identical")


def check_serve(path):
    with open(path) as f:
        doc = json.load(f)
    expect_schema(doc, "toastcase-bench-serve-v1")
    print(f"serve ({path}):")
    warn_unknown_keys(doc, {"points", "invariants"}, path)

    # The service contract, independent of offered load: the scheduler
    # never idles capacity a queued job could use, every admitted job
    # eventually finishes, and serving a job changes nothing about its
    # science — served results are bitwise-equal to standalone runs,
    # chaos stays inside the tenant that configured it, and a same-seed
    # repeat of the whole service day is byte-identical.
    inv = doc["invariants"]
    check(inv["work_conserving"],
          "invariants: scheduler is work-conserving")
    check(inv["no_starvation"],
          "invariants: every admitted job completed")
    check(inv["served_bitwise_standalone"],
          "invariants: served results bitwise-equal to standalone runs")
    check(inv["isolation_bitwise"],
          "invariants: tenant chaos isolated bitwise from co-tenants")
    check(inv["repeat_bitwise"],
          "invariants: same-seed service repeat byte-identical")

    for p in non_empty(doc["points"], "points"):
        load = p["offered_load"]
        check(0 <= p["completed"] <= p["admitted"] <= p["submitted"],
              f"load {load}: completed <= admitted <= submitted")
        check(p["makespan_s"] > 0.0, f"load {load}: makespan positive")
        check(p["throughput_jobs_per_s"] > 0.0,
              f"load {load}: throughput positive")
        check(0.0 <= p["queue_wait_p50_s"] <= p["queue_wait_p95_s"]
              <= p["queue_wait_p99_s"],
              f"load {load}: queue-wait percentiles ordered")
        check(0.0 <= p["utilization"] <= 1.0,
              f"load {load}: node occupancy in [0, 1]")
        check(p["work_conserving"], f"load {load}: pass work-conserving")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fig4")
    ap.add_argument("--fig5")
    ap.add_argument("--fig6")
    ap.add_argument("--overlap")
    ap.add_argument("--faults")
    ap.add_argument("--plan")
    ap.add_argument("--comm")
    ap.add_argument("--async", dest="async_path")
    ap.add_argument("--resilience")
    ap.add_argument("--tune")
    ap.add_argument("--serve")
    args = ap.parse_args()
    checks = [
        (check_fig4, args.fig4),
        (check_fig5, args.fig5),
        (check_fig6, args.fig6),
        (check_overlap, args.overlap),
        (check_faults, args.faults),
        (check_plan, args.plan),
        (check_comm, args.comm),
        (check_async, args.async_path),
        (check_resilience, args.resilience),
        (check_tune, args.tune),
        (check_serve, args.serve),
    ]
    if not any(path for _, path in checks):
        ap.error(
            "pass at least one of "
            "--fig4/--fig5/--fig6/--overlap/--faults/--plan/--comm"
            "/--async/--resilience/--tune/--serve")

    for fn, path in checks:
        if path:
            run_check(fn, path)

    if FAILURES:
        print(f"\n{len(FAILURES)} check(s) failed:")
        for msg in FAILURES:
            print(f"  - {msg}")
        return 1
    print("\nall benchmark ordering checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
