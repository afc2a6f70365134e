#!/usr/bin/env python3
"""Builds and runs one MetaBLINK benchmark run.

    python3 perfbench/run.py --workload fit --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The benchmark binary is built from source
into .bench_build/ (perfbench/CMakeLists.txt compiles ../src), then run
once; its standard output is passed through, and its last line is the JSON
result. The metric names in that line are checked against BENCHMARK.json.
Exits non-zero, without a result line, when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "metablink_perfbench")
WORKLOADS = ("fit", "serve_zipf", "serve_large")
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def source_digest():
    """sha256 over every file the binary is built from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def build():
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target",
                  "metablink_perfbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr; stdout carries only the run.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def declared_metrics(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if traced else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # The generated worlds; benchmark runs keep the default. A different
    # value measures how far the accuracy metrics move across worlds.
    parser.add_argument("--world-seed", type=int, default=1)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under %s/src; run from a full checkout" % ROOT)
    build()

    workdir = os.path.join(BUILD, "work", "%s-%d-%d" % (args.workload,
                                                        args.seed,
                                                        os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--world-seed", str(args.world_seed),
           "--workdir", workdir, "--source-digest", source_digest()]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        traces = os.path.join(BUILD, "traces")
        for name in os.listdir(workdir) if os.path.isdir(workdir) else []:
            if name.startswith("trace-"):
                os.makedirs(traces, exist_ok=True)
                shutil.move(os.path.join(workdir, name),
                            os.path.join(traces, name))
        shutil.rmtree(workdir, ignore_errors=True)

    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("benchmark exited with code %d" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write("\n".join(lines) + "\n")
        fail("last line is not a JSON result")
    want = declared_metrics(args.trace == 1)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if result["correct"] and got != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("metrics do not match BENCHMARK.json: got %s, declared %s"
             % (sorted(got.items()), sorted(want.items())))
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
