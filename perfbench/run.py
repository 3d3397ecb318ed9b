#!/usr/bin/env python3
"""Build the repository benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload cold|steady|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first form builds perfbench/main.exe with dune (build output goes to
stderr) and runs it; the last line of standard output is the result as one
JSON object.  The second form checks that the benchmark counts a corrupted
output as failed and that two runs with the same seed give the same
simulated times and counts.
"""

import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 175


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("perfbench: run from the repository root (no dune-project or lib/ here)\n")
        return False
    env = dict(os.environ, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.join(os.getcwd(), ".perfbench", "cache"))
    try:
        r = subprocess.run(["dune", "build", "--root", ".", "./perfbench/main.exe"],
                           stdout=sys.stderr, stderr=sys.stderr, env=env,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write("perfbench: build failed: %s\n" % e)
        return False
    return r.returncode == 0


def result(args):
    """Run the benchmark once and parse its last line."""
    r = subprocess.run([EXE] + args, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                       universal_newlines=True)
    if r.returncode != 0:
        raise RuntimeError("%s exited with %d" % (" ".join(args), r.returncode))
    return json.loads(r.stdout.strip().splitlines()[-1])


# Figures that must repeat exactly under one seed and a fixed op count.
# Serve batches form by timing, so only its inputs are compared.
DETERMINISTIC = {
    "cold": ["sim_gpu_us", "tuner.measured", "tuner.skipped", "tuner.cache_hits",
             "tuner.cache_misses", "pipeline.runs", "pipeline.passes",
             "pipeline.cache_hits", "pipeline.cache_misses", "engine.compiles"],
    "steady": ["sim_gpu_us", "pipeline.runs", "pipeline.passes", "engine.compiles",
               "tir.facts_scans"],
    "serve": ["sim_gpu_us", "formats.delta_rebuilt"],
}
OPS = {"cold": 14, "steady": 14, "serve": 110}


def selftest():
    problems = []
    for w, names in DETERMINISTIC.items():
        args = ["--workload", w, "--seed", "2", "--trace", "1", "--ops", str(OPS[w])]
        a, b = result(args), result(args)
        for k in names:
            va, vb = a["metrics"][k]["value"], b["metrics"][k]["value"]
            if va != vb:
                problems.append("%s: %s differs between same-seed runs: %r vs %r" % (w, k, va, vb))
        if not a["correct"] or a["failed"] != 0:
            problems.append("%s: clean run reported failures" % w)
        c = result(["--workload", w, "--seed", "2", "--trace", "0", "--ops", str(OPS[w]),
                    "--corrupt", "1"])
        if c["correct"] or c["failed"] != 1:
            problems.append("%s: a corrupted output was not counted (failed=%d)" % (w, c["failed"]))
        sys.stderr.write("selftest: %s checked\n" % w)
    for p in problems:
        sys.stderr.write("selftest: %s\n" % p)
    print("selftest: %s" % ("ok" if not problems else "FAILED"))
    return 1 if problems else 0


def main(argv):
    if not build():
        return 2
    if argv[:1] == ["--selftest"]:
        return selftest()
    try:
        return subprocess.run([EXE] + argv, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
