#!/usr/bin/env python3
"""Build and run the vortex-sim benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload memory --seed 1 --seconds 20 --trace 0

builds perfbench/ with CMake into $CARGO_TARGET_DIR (default .bench_build),
runs one workload and passes its output through; the last stdout line is
the JSON result. Two more modes:

    --steady N        run each --workload (comma-separated, default all)
                      N times with seeds SEED..SEED+N-1 and print each
                      metric's median, quartiles and spread against its
                      bound in BENCHMARK.json
    --record-expected run each workload once and rewrite
                      perfbench/expected.txt with its simulated numbers
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ["compute", "memory", "sampled", "campaign"]


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure and build the benchmark; CMake output goes to stderr so
    stdout keeps only the benchmark's report."""
    out = build_dir()
    subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return out / "perfbench"


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_digest():
    """SHA-256 over the simulator sources and build files, so results from
    a checkout without git history still name the code they measured."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted((ROOT / "src").rglob("*"))
    files += sorted(BENCH_DIR.rglob("*"))
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode() + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def run_once(binary, workload, seed, seconds, trace, record=False,
             capture=False):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--expected", str(BENCH_DIR / "expected.txt"),
           "--spec-dir", str(BENCH_DIR / "specs"),
           "--out-dir", str(build_dir() / "out"),
           "--commit", commit(), "--source-digest", source_digest()]
    if record:
        cmd.append("--record")
    return subprocess.run(cmd, cwd=ROOT, text=True,
                          stdout=subprocess.PIPE if capture else None)


def steady(binary, workloads, first_seed, n, seconds, trace):
    """Repeat each workload n times and report, per metric, the median,
    quartiles and spread (Q3 - Q1) / median against the metric's bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in
              spec["end_to_end"] + spec["per_layer"]}
    worst_ok = True
    for workload in workloads:
        values = {}
        for seed in range(first_seed, first_seed + n):
            proc = run_once(binary, workload, seed, seconds, trace,
                            capture=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED", flush=True)
                worst_ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{workload}: {n} runs, seeds {first_seed}.."
              f"{first_seed + n - 1}")
        print(f"  {'metric':30} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if spread < bound / 3 else "WIDE"
                worst_ok &= spread <= bound
            print(f"  {name:30} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {bound if bound else '':>6} {flag}",
                  flush=True)
    return 0 if worst_ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="compute")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steady", type=int, metavar="N")
    ap.add_argument("--record-expected", action="store_true")
    args = ap.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    if args.steady:
        workloads = (WORKLOADS if args.workload == "all"
                     else args.workload.split(","))
        return steady(binary, workloads, args.seed, args.steady,
                      args.seconds, args.trace)
    if args.record_expected:
        (BENCH_DIR / "expected.txt").unlink(missing_ok=True)
        for workload in WORKLOADS:
            proc = run_once(binary, workload, args.seed, args.seconds, 0,
                            record=True)
            if proc.returncode != 0:
                return proc.returncode
        return 0
    return run_once(binary, args.workload, args.seed, args.seconds,
                    args.trace).returncode


if __name__ == "__main__":
    sys.exit(main())
