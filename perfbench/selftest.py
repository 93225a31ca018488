#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/selftest.py [--seconds S]

1. On every workload, two seeds report the same metric names, and every
   end-to-end metric is positive.
2. The traced run of every workload reports trace.overhead_pct.
3. The traced run of train_dense reports nn.coverage and mpt.coverage; the
   run itself checks both lie in [0.95, 1] and is incorrect otherwise.
4. In a directory holding only BENCHMARK.json and perfbench/, the command
   exits nonzero and prints no result.

Short runs (--seconds, default 4) keep this to a few minutes; they check
behaviour, not performance. Exits 1 if any test fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKDIR = os.path.join(".bench_build", "selftest")


def run(workload, seed, seconds, trace, cwd="."):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    result = None
    if proc.stdout.strip():
        try:
            result = json.loads(proc.stdout.splitlines()[-1])
        except ValueError:
            pass
    return proc, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=4)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for w in (w["name"] for w in spec["workloads"]):
        names = []
        for seed in (1, 2):
            proc, res = run(w, seed, args.seconds, 0)
            expect(proc.returncode == 0 and res and res["correct"],
                   "%s seed %d: runs correct" % (w, seed))
            if res:
                names.append(sorted(res["metrics"]))
                expect(all(v["value"] > 0 for v in res["metrics"].values()),
                       "%s seed %d: end-to-end metrics positive" % (w, seed))
        expect(len(names) == 2 and names[0] == names[1],
               "%s: both seeds report the same metric names" % w)

        proc, res = run(w, 3, args.seconds, 1)
        metrics = res["metrics"] if res else {}
        expect(proc.returncode == 0 and res and res["correct"],
               "%s traced: runs correct" % w)
        expect("trace.overhead_pct" in metrics,
               "%s traced: reports trace.overhead_pct" % w)
        if w == "train_dense":
            for name in ("nn.coverage", "mpt.coverage"):
                cov = metrics.get(name, {}).get("value", 0)
                expect(0.95 <= cov <= 1.0,
                       "%s traced: %s %.4f checked in [0.95, 1]"
                       % (w, name, cov))

    # Without the sources the command must fail without a result.
    shutil.rmtree(WORKDIR, ignore_errors=True)
    os.makedirs(WORKDIR)
    shutil.copy("BENCHMARK.json", WORKDIR)
    shutil.copytree(HERE, os.path.join(WORKDIR, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    w = spec["workloads"][0]["name"]
    proc, res = run(w, 1, 1, 0, cwd=WORKDIR)
    expect(proc.returncode != 0 and res is None,
           "without sources: exits %d and prints no result" % proc.returncode)
    shutil.rmtree(WORKDIR, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
