#!/usr/bin/env python3
"""Run one workload of the ACORN end-to-end benchmark.

    python3 perfbench/run.py --workload fleet_churn --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds perfbench/ (and the ACORN libraries
it compiles from src/) into .bench_build/, runs the workload in a fresh
process and prints, as the last stdout line, one JSON object with the
keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.
The lines before it carry the run's context and deterministic outputs.

Deterministic outputs (goodput, plan fingerprint, exact counters, bit
and packet errors) of a correct run are stored per (workload, seed,
seconds, hash of the sources built) under .bench_build/expected/; a
later run with the same key, traced or not, must reproduce them exactly
or it is reported incorrect.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BUILD_TYPE = "RelWithDebInfo"
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("fleet_churn", "durable_churn", "replan", "phy_sweep")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("ACORN sources (src/) not found next to perfbench/; "
             "run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            sys.stderr.write(res.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))


def source_hash():
    """Hash of every source the benchmark binary is built from."""
    h = hashlib.sha256()
    for top in ("src", os.path.join("perfbench", "cpp")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    with open(os.path.join(HERE, "CMakeLists.txt"), "rb") as f:
        h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    """git HEAD when available, else None."""
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return None
    if res.returncode != 0:
        return None
    return res.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def check_expected(args, sources, deterministic, correct):
    """Compare against this key's recorded deterministic outputs.

    The key is (workload, seed, seconds, source hash), so a change to the
    program starts a fresh record. Only a correct run is recorded.
    """
    key = "%s-s%d-t%s-%s" % (args.workload, args.seed,
                             format(args.seconds, "g"), sources)
    directory = os.path.join(BUILD_ROOT, "expected")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, key + ".json")
    if os.path.exists(path):
        with open(path) as f:
            expected = json.load(f)
        return ["%s: %r != expected %r" % (k, deterministic.get(k), v)
                for k, v in expected.items() if deterministic.get(k) != v]
    if correct:
        tmp = path + ".tmp.%d" % os.getpid()
        with open(tmp, "w") as f:
            json.dump(deterministic, f, sort_keys=True)
        os.replace(tmp, path)
    return []


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workers", type=int, default=2)
    args = ap.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", format(args.seconds, "g"),
           "--trace", str(args.trace), "--workers", str(args.workers)]
    try:
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        fail("%s exited with %d" % (args.workload, res.returncode))
    out = json.loads(lines[-1])

    errors = list(out.get("errors", []))
    det = out["deterministic"]
    sources = source_hash()
    # The workers setting must not change any deterministic output, so
    # runs that differ only in it share the key and are compared too.
    errors += ["deterministic output changed: " + d
               for d in check_expected(args, sources, det,
                                       bool(out["correct"]) and not errors)]
    context = dict(out["context"])
    context.update({
        "git_rev": git_rev(),
        "source_hash": sources,
        "build_type": BUILD_TYPE,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
    })
    correct = bool(out["correct"]) and not errors
    for e in errors:
        print("perfbench: CHECK FAILED: " + e, file=sys.stderr)
    print("context: " + json.dumps(context, sort_keys=True))
    print("deterministic: " + json.dumps(det, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": out["metrics"],
    }
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
