#!/usr/bin/env python3
"""One benchmark for host speed and simulated outcome.

Builds the benchmark program fcl_perfbench (perfbench/CMakeLists.txt,
Release) into .bench_build/, derives the workload's configuration from
--seed, runs the program in its own process and prints one JSON line:

    python3 perfbench/run.py --workload serve_overload --seed 1 \
        --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. The line is checked against BENCHMARK.json: every declared
metric with its unit, and no other. A failed output check exits 1 and names
the check on stderr. See perfbench/README.md for the workloads.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "spans")
PROGRAM = os.path.join(BUILD_DIR, "fcl_perfbench")

# The generated configuration of each workload. "configs" is how many
# load-generator seeds the run derives from --seed; the armed workload arms
# the first eight and pools plain runs of all of them.
WORKLOADS = {
    "serve_overload": {"kind": "serve", "mix": "mixed", "streams": 64,
                       "rate": 150, "queue_depth": 100000, "horizon_s": 1,
                       "configs": 8},
    "cluster_pipeline": {"kind": "cluster", "mix": "pipeline", "workers": 2,
                         "streams": 16, "rate": 200, "queue_depth": 64,
                         "horizon_s": 5, "configs": 8},
    "serve_armed": {"kind": "serve", "mix": "mixed", "streams": 16,
                    "rate": 120, "queue_depth": 256, "horizon_s": 0.0625,
                    "armed": True, "configs": 512},
    "paper_functional": {"kind": "paper", "size": 512, "configs": 0},
}

# --tiny: the same workloads at sizes that finish in about a second, for
# the benchmark's own test.
TINY = {
    "serve_overload": {"horizon_s": 0.05},
    "cluster_pipeline": {"horizon_s": 0.05},
    "serve_armed": {"horizon_s": 0.02, "configs": 4},
    "paper_functional": {"size": 64},
}

# The first run of a checkout builds; build and run stay under 900 s, and
# every later run under 180 s.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def derive_seeds(workload, seed, count):
    """Load-generator seeds for one run: a pure function of (workload, seed)."""
    out = []
    for i in range(count):
        digest = hashlib.sha256(f"{workload}/{seed}/{i}".encode()).digest()
        out.append(int.from_bytes(digest[:4], "little") or 1)
    return out


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cfg = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        steps.append(cfg)
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "fcl_perfbench",
                  "-j", "3"])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.read().splitlines()[-25:]
                print("\n".join(tail), file=sys.stderr)
                # A failed configure leaves no usable cache behind.
                cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
                if cmd[1] == "-S" and os.path.exists(cache):
                    os.remove(cache)
                fail(f"build failed: {' '.join(cmd)}")


def program_args(name, seed, seconds, trace, tiny):
    w = dict(WORKLOADS[name])
    if tiny:
        w.update(TINY[name])
    args = [PROGRAM, f"--workload={name}", f"--kind={w['kind']}",
            f"--seconds={seconds}", f"--trace={trace}"]
    if w["configs"]:
        seeds = derive_seeds(name, seed, w["configs"])
        args.append("--seeds=" + ",".join(str(s) for s in seeds))
    for key, flag in (("mix", "mix"), ("streams", "streams"),
                      ("rate", "rate"), ("queue_depth", "queue-depth"),
                      ("horizon_s", "horizon-s"), ("workers", "workers"),
                      ("size", "size")):
        if key in w:
            args.append(f"--{flag}={w[key]}")
    if w.get("armed"):
        args.append("--armed")
    if trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        args.append("--spans=" + os.path.join(
            SPANS_DIR, f"{name}-seed{seed}.jsonl"))
    return args


def check_metrics(result, declared):
    """Every declared metric, with its unit and a finite value; no other."""
    metrics = result.get("metrics", {})
    errors = []
    for name, unit in declared.items():
        m = metrics.get(name)
        if m is None:
            errors.append(f"missing metric {name}")
        elif m.get("unit") != unit:
            errors.append(f"metric {name}: unit {m.get('unit')!r}, "
                          f"declared {unit!r}")
        elif not isinstance(m.get("value"), (int, float)) or \
                not math.isfinite(m["value"]):
            errors.append(f"metric {name}: bad value {m.get('value')!r}")
    for name in metrics:
        if name not in declared:
            errors.append(f"undeclared metric {name}")
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny sizes (the benchmark's own test)")
    opts = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    group = "per_layer" if opts.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in bench[group]}

    build()
    args = program_args(opts.workload, opts.seed, opts.seconds, opts.trace,
                        opts.tiny)
    try:
        proc = subprocess.run(args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{opts.workload} did not finish in {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 3) or not lines:
        fail(f"{opts.workload} exited with status {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"{opts.workload} printed no result line")

    errors = check_metrics(result, declared)
    if errors:
        fail("; ".join(errors))
    failed_checks = result.get("failed_checks", [])
    out = {"correct": bool(result["correct"]) and not failed_checks,
           "attempted": int(result["attempted"]),
           "failed": int(result["failed"]),
           "metrics": {name: result["metrics"][name] for name in declared}}
    print(json.dumps(out))
    if not out["correct"] or out["attempted"] < 1:
        fail("failed output checks: " + (", ".join(failed_checks) or
                                         "no jobs attempted"), code=1)


if __name__ == "__main__":
    main()
