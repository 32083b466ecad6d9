#!/usr/bin/env python3
"""Build the perfbench driver from source and make one benchmark run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --regen-goldens W|all
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --list-metrics

Run it from the root of a toastcase checkout.  The driver is a CMake
project of its own (perfbench/CMakeLists.txt) that compiles the
repository's libraries from src/; it is configured and built, RelWithDebInfo,
into $CARGO_TARGET_DIR (default .bench_build).  Build output goes to
standard error, so the last line of standard output is the driver's JSON
result.  A traced run (--trace 1) also writes its host-time spans as a
Chrome trace to <build dir>/traces/<workload>-seed<N>.json.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["figjobs_jax", "figjobs_host", "tune_rows", "destripe"]
# A run may take its --seconds plus this much for set-up, the last pass's
# overrun, the checks and the traced run's probes (170 s at --seconds 50).
RUN_MARGIN_S = 120
BUILD_TIMEOUT_S = 900


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure (once) and build the driver; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no toastcase sources under {ROOT}/src")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja") is not None:
            cmd += ["-G", "Ninja"]
        step(cmd)
    step(["cmake", "--build", bdir, "-j", "4",
          "--target", "perfbench", "perfbench_selftest"])
    return bdir


def step(cmd):
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    if r.returncode != 0:
        fail(f"build step failed ({r.returncode}): {' '.join(cmd)}")


def run(cmd, seconds=0):
    """Run the driver with inherited stdout; return its exit code."""
    timeout = seconds + RUN_MARGIN_S
    try:
        return subprocess.run(cmd, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {timeout} s")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--regen-goldens", choices=WORKLOADS + ["all"])
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--list-metrics", action="store_true")
    args = ap.parse_args()

    if args.regen_goldens or args.selftest or args.list_metrics:
        bdir = build()
        exe = os.path.join(bdir, "perfbench")
        if args.selftest:
            return run([os.path.join(bdir, "perfbench_selftest"), ROOT])
        if args.list_metrics:
            return run([exe, "--list-metrics"])
        names = WORKLOADS if args.regen_goldens == "all" else [args.regen_goldens]
        for name in names:
            code = run([exe, "--regen-goldens", name, "--root", ROOT])
            if code != 0:
                return code
        return 0

    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        ap.error("--seed must be >= 0 and --seconds within 1..3600")
    bdir = build()
    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", ROOT]
    if args.trace:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    return run(cmd, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
