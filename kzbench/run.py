#!/usr/bin/env python3
"""Runs the repo benchmark (kzbench/README.md).

    python3 kzbench/run.py --workload month|fleet|fleet_hits --seed N \
        --seconds S --trace 0|1
    python3 kzbench/run.py compare A1.json [A2.json ...] -- B1.json [...]

Run from the repository root. The first run builds kzbench (a Release
CMake build of ../src plus this directory) under .bench_build/. Each run
stamps the host and the source tree into .bench_build/results/ and prints,
as the last line of stdout, one JSON object with exactly the keys
correct, attempted, failed and metrics: the end-to-end metrics when
untraced, the per-layer metrics when traced. A traced run also reports the
tracing overhead (traced minus untraced end-to-end numbers of the same
workload and seed; the untraced run is made first if none is recorded).

`compare` prints the metric medians of two sets of recorded results side
by side, and refuses when they come from different hosts.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "kzbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
BINARY = os.path.join(BUILD, "kzbench")
MEASURE_BUDGET_S = 170  # all measuring runs of one invocation, build excluded
HOST_KEYS = ("nproc", "cpu_model", "compiler", "build_type")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest():
    """sha256 over the library and benchmark sources (path + bytes)."""
    h = hashlib.sha256()
    for top in ("src", "kzbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise SystemExit("kzbench: no library sources under %s/src" % ROOT)
    jobs = str(max(1, min(4, nproc())))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "-j", jobs]):
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise SystemExit("kzbench: build failed: %s" % " ".join(cmd))


def measure(args, trace, deadline):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0"]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit("kzbench: %s timed out" % args.workload)
    sys.stderr.write(out.stderr)
    if out.returncode != 0:
        raise SystemExit("kzbench: %s exited with %d" % (args.workload,
                                                          out.returncode))
    run = json.loads(out.stdout.strip().splitlines()[-1])
    for line in run["failures"]:
        log("kzbench: failed: " + line)
    for line in run["notes"]:
        log("kzbench: note: " + line)
    return run


def stamp(run, digest):
    run["host"] = {"nproc": nproc(), "cpu_model": cpu_model(),
                   "compiler": run["compiler"],
                   "build_type": run["build_type"]}
    run["commit"] = commit()
    run["source_digest"] = digest
    return run


def record(run, args, trace):
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "%s-seed%d-trace%d.json" %
                        (args.workload, args.seed, 1 if trace else 0))
    with open(path, "w") as f:
        json.dump(run, f, indent=1)
    return path


def recorded_untraced(args, digest, host):
    path = os.path.join(RESULTS, "%s-seed%d-trace0.json" %
                        (args.workload, args.seed))
    try:
        with open(path) as f:
            run = json.load(f)
    except (OSError, ValueError):
        return None
    same = (run.get("source_digest") == digest and run.get("host") == host
            and run.get("seconds") == args.seconds)
    return run if same else None


def result_line(run, metrics):
    return json.dumps({"correct": bool(run["correct"]),
                       "attempted": int(run["attempted"]),
                       "failed": int(run["failed"]),
                       "metrics": metrics})


def main_run(argv):
    p = argparse.ArgumentParser(description="Run one kzbench workload.")
    p.add_argument("--workload", required=True,
                   choices=["month", "fleet", "fleet_hits"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    build()
    deadline = time.monotonic() + MEASURE_BUDGET_S
    digest = source_digest()
    run = stamp(measure(args, bool(args.trace), deadline), digest)
    run["seconds"] = args.seconds
    metrics = dict(run["metrics"])
    if args.trace:
        base = recorded_untraced(args, digest, run["host"])
        if base is None:
            log("kzbench: no untraced run recorded for this seed; making one")
            base = stamp(measure(args, False, deadline), digest)
            base["seconds"] = args.seconds
            record(base, args, trace=False)
        # Tracing overhead: traced minus untraced end-to-end numbers.
        for name, traced in run["traced_e2e"].items():
            metrics["overhead." + name] = {
                "value": traced["value"] - base["metrics"][name]["value"],
                "unit": traced["unit"]}
    run["reported"] = metrics
    log("kzbench: recorded " + record(run, args, bool(args.trace)))
    print(result_line(run, metrics), flush=True)


def main_compare(argv):
    if "--" not in argv or argv.index("--") == 0 or argv[-1] == "--":
        raise SystemExit("usage: run.py compare A1.json [A2.json ...] -- "
                         "B1.json [B2.json ...]")
    cut = argv.index("--")
    loaded = []
    for paths in (argv[:cut], argv[cut + 1:]):
        runs = []
        for path in paths:
            with open(path) as f:
                runs.append(json.load(f))
        loaded.append(runs)
    hosts = {json.dumps({k: r["host"][k] for k in HOST_KEYS}, sort_keys=True)
             for runs in loaded for r in runs}
    if len(hosts) != 1:
        raise SystemExit("kzbench: refusing to compare results from "
                         "different hosts:\n  " + "\n  ".join(sorted(hosts)))
    kinds = {(r["workload"], bool(r["trace"])) for runs in loaded for r in runs}
    if len(kinds) != 1:
        raise SystemExit("kzbench: refusing to compare different workloads "
                         "or traced with untraced runs")
    print("%-32s %14s %14s %8s" % ("metric", "A median", "B median", "B/A"))
    for name in loaded[0][0]["reported"]:
        med = [statistics.median(r["reported"][name]["value"] for r in runs)
               for runs in loaded]
        ratio = med[1] / med[0] if med[0] else float("nan")
        print("%-32s %14.6g %14.6g %8.3f" % (name, med[0], med[1], ratio))


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        main_compare(sys.argv[2:])
    else:
        main_run(sys.argv[1:])
