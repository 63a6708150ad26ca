#!/usr/bin/env python3
"""Repo benchmark entry point.

    python3 perfbench/run.py --workload serve-paced|serve-saturate|train \
        --seed N --seconds S --trace 0|1 [--scale paper|tiny] [--shards K]

Run from the root of a checkout. Builds the gansec libraries and the
benchmark executable from source into .bench_build/ (Release), trains the
serve fixture once per source tree, runs one workload, checks that it
printed every metric BENCHMARK.json declares (end-to-end, or per-layer when
traced) with the declared unit, and prints the executable's output; the
last line is the result JSON. Exits non-zero without a result line when
anything fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)
BUILD_ROOT = os.path.abspath(".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORK_DIR = os.path.join(BUILD_ROOT, "perfbench-work")
EXE = os.path.join(BUILD_DIR, "gansec_perfbench")

RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850

_child = None


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def _terminate(signum, _frame):
    if _child is not None and _child.poll() is None:
        _child.kill()
        _child.wait()
    sys.exit(128 + signum)


def run_child(cmd, timeout, stdout=None, stderr=None):
    """Runs `cmd`, killing it (and waiting for it) on timeout or signal."""
    global _child
    _child = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, text=True)
    try:
        out, _ = _child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _child.kill()
        _child.wait()
        fail("timed out after %d s: %s" % (timeout, " ".join(cmd)))
    code = _child.returncode
    _child = None
    return code, out


def build():
    if not (os.path.isfile(os.path.join(REPO_DIR, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(REPO_DIR, "src"))):
        fail("no gansec sources next to %s; nothing to build" % BENCH_DIR)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "perfbench-build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j4"])
        for step in steps:
            code, _ = run_child(step, BUILD_TIMEOUT_S, stdout=log,
                                stderr=subprocess.STDOUT)
            if code != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build step failed: " + " ".join(step))


def source_key():
    """Digest of every source the fixture depends on."""
    h = hashlib.sha256()
    roots = [os.path.join(REPO_DIR, d) for d in ("src", "include")]
    roots.append(os.path.join(BENCH_DIR, "src"))
    for root in roots:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, REPO_DIR).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def fixture(scale):
    prefix = "fixture-%s-" % scale
    path = os.path.join(BUILD_ROOT, prefix + source_key())
    if not os.path.isdir(path):
        for name in os.listdir(BUILD_ROOT):
            if name.startswith(prefix):
                shutil.rmtree(os.path.join(BUILD_ROOT, name),
                              ignore_errors=True)
        code, _ = run_child([EXE, "--make-fixture", "--fixture", path,
                             "--scale", scale], BUILD_TIMEOUT_S)
        if code != 0:
            fail("fixture build failed")
    return path


def load_spec():
    """BENCHMARK.json at the checkout root: workloads and metric units."""
    path = os.path.join(REPO_DIR, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--scale", default="paper", choices=["paper", "tiny"])
    parser.add_argument("--shards", default=3, type=int)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, _terminate)

    build()
    fixture_dir = fixture(args.scale)
    code, out = run_child(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", args.trace,
         "--scale", args.scale, "--shards", str(args.shards),
         "--fixture", fixture_dir, "--work-dir", WORK_DIR],
        RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    if code != 0:
        fail("%s exited with %d" % (os.path.basename(EXE), code))
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("no result line in the benchmark output")
    declared = spec["per_layer" if args.trace == "1" else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if sorted(result["metrics"]) != sorted(units):
        fail("metrics %s differ from the declared %s"
             % (sorted(result["metrics"]), sorted(units)))
    for name, metric in result["metrics"].items():
        if units[name] != metric["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (name, metric["unit"], units[name]))
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
