#!/usr/bin/env python3
"""End-to-end benchmark of winomc: builds perfbench from source and runs one
workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
winomc libraries and the perfbench binary under .bench_build/ (build output
goes to stderr); later runs only rebuild what changed. The binary runs with
every inherited WINOMC_* variable removed and the pinned knobs set, prints a
fingerprint line and an info line, and ends stdout with one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end list of BENCHMARK.json, with
--trace 1 the per_layer list. A per-layer metric that does not apply to the
workload (see perfbench/METRICS.md) is reported as 0 and named on the
"perfbench-not-applicable" line. The exit code is 0 only when every output
check passed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
PINNED_KNOBS = {
    "WINOMC_TUNE": "analytic",
    "WINOMC_FUSED": "auto",
    "WINOMC_ISA": "auto",
}
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_id():
    """git commit when the checkout is a repository, else a hash of the
    sources the binary is built from."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(
                ["git", "--git-dir=.git", "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True)
            return "git:" + out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree:" + h.hexdigest()[:16]


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    for need in ("BENCHMARK.json", "perfbench/CMakeLists.txt",
                 "src/CMakeLists.txt"):
        if not os.path.isfile(need):
            fail("run from the repository root: %s is missing" % need)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    wanted = spec["per_layer" if args.trace == "1" else "end_to_end"]

    build()
    env = {k: v for k, v in os.environ.items() if not k.startswith("WINOMC_")}
    env.update(PINNED_KNOBS)
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--source", source_id()]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("no result line from the binary (exit %d)" % proc.returncode)

    metrics = result["metrics"]
    unknown = sorted(set(metrics) - {m["name"] for m in wanted})
    if unknown:
        fail("metrics missing from BENCHMARK.json: %s" % ", ".join(unknown))
    ordered, not_applicable = {}, []
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            if args.trace == "0":
                fail("end-to-end metric %s was not measured" % m["name"])
            not_applicable.append(m["name"])
            got = {"value": 0, "unit": m["unit"]}
        elif got["unit"] != m["unit"]:
            fail("%s: unit %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        ordered[m["name"]] = got
    if args.trace == "0":
        zero = [n for n, v in ordered.items() if not v["value"] > 0]
        if zero:
            fail("end-to-end metrics not positive: %s" % ", ".join(zero))
    if not_applicable:
        print("perfbench-not-applicable " + json.dumps(not_applicable))
    result["metrics"] = ordered
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
