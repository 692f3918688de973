#!/usr/bin/env python3
"""Layer-ladder benchmark: builds the `ladder` driver from this checkout and runs one workload.

    python3 ladderbench/run.py --workload fleet_wire --seed 1 --seconds 10 --trace 0
    python3 ladderbench/run.py --selftest

With --trace 0 the last stdout line carries every end-to-end metric; with --trace 1 every
per-layer metric of the ladder. The line before it is the host and input descriptor, and the
full record (descriptor, every metric, facts) is kept under .bench_build/ladderbench-results/.
See ladderbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# BENCHMARK.json's workloads, plus simulate_fleet, which runs the same way but is left out
# of BENCHMARK.json (see README.md).
WORKLOADS = ("fleet_wire", "deep_stacks_wire", "simulate_fleet", "fleet_migrate")
TIMEOUT_S = 175


def declared_metrics(kind):
    """name -> unit of BENCHMARK.json's `kind` list ("end_to_end" or "per_layer")."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build():
    """Configures and builds the driver; returns its path, or None on failure."""
    out = os.path.join(build_dir(), "ladderbench")
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("ladderbench: build failed: " + " ".join(step))
            return None
    return os.path.join(out, "ladder")


def cmake_cache(name):
    path = os.path.join(build_dir(), "ladderbench", "CMakeCache.txt")
    try:
        with open(path) as cache:
            for line in cache:
                if line.startswith(name + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def first_line(command):
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, cwd=ROOT, timeout=20)
        return done.stdout.splitlines()[0].strip() if done.returncode == 0 else "unknown"
    except (OSError, IndexError, subprocess.SubprocessError):
        return "unknown"


def source_hash():
    """sha256 over every file under src/, so results from different code never compare."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def descriptor(args, facts):
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    return {
        "nproc": os.cpu_count(),
        "compiler": compiler + " (" + first_line([compiler, "--version"]) + ")",
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "git_commit": (first_line(["git", "rev-parse", "HEAD"])
                       if os.path.isdir(os.path.join(ROOT, ".git")) else "unknown"),
        "source_sha256": source_hash(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_hash": facts.get("input_hash", "unknown"),
    }


def run_driver(command):
    """Runs the driver in its own process group; returns (exit code, stdout)."""
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("ladderbench: driver timed out")
        return 1, ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # reap any helper left behind
        except ProcessLookupError:
            pass
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    ladder = build()
    if ladder is None:
        return 1
    workdir = os.path.join(build_dir(), "ladderbench-work")
    if args.selftest:
        return subprocess.run([ladder, "selftest", "--workdir", workdir], cwd=ROOT).returncode

    code, out = run_driver([ladder, "run", "--workload", args.workload, "--seed",
                            str(args.seed), "--seconds", str(args.seconds), "--trace",
                            str(args.trace), "--workdir", workdir])
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        log("ladderbench: driver failed with exit code %d" % code)
        return 1
    raw = json.loads(lines[-1])
    wanted = declared_metrics("per_layer" if args.trace else "end_to_end")
    missing = [name for name in wanted if name not in raw["metrics"]]
    if missing:
        log("ladderbench: driver did not report " + ", ".join(missing))
        return 1
    result = {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {name: {"value": raw["metrics"][name], "unit": unit}
                    for name, unit in wanted.items()},
    }
    desc = descriptor(args, raw["facts"])
    results = os.path.join(build_dir(), "ladderbench-results")
    os.makedirs(results, exist_ok=True)
    record = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(results, record), "w") as f:
        json.dump({"descriptor": desc, "result": result, "all_metrics": raw["metrics"],
                   "facts": raw["facts"]}, f, indent=1, sort_keys=True)
    print("descriptor " + json.dumps(desc, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
