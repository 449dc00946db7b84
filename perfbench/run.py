#!/usr/bin/env python3
"""Builds the perfbench binary from the checkout's sources and runs it.

    python3 perfbench/run.py --workload hot_small --seed 1 --seconds 10 --trace 0

The build goes to .bench_build/perfbench under the checkout root (a
Release build of ../src plus the benchmark; the first run compiles, later
runs only relink what changed). The binary's last stdout line is the
result object; build output and the run's context go to stderr. Traced
runs write their spans to .bench_build/perfbench/spans/<workload>.csv.

A run during which the hypervisor stole more than MAX_STEAL_PCT of the
machine's CPU time is measured again, by a fresh process on the same seed,
while ATTEMPT_BUDGET_S allows. See perfbench/README.md.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
# A binary still running after this many seconds, attempts together, is
# killed and the run fails.
RUN_TIMEOUT_S = 175
# Steal above this share of the measured phase makes an attempt invalid:
# runs below it kept every timing spread at or under 0.19 (README.md).
MAX_STEAL_PCT = 2.5
# Another attempt starts only if the attempts so far plus one more as long
# as the last stay within this many seconds, so that a long steal episode
# cannot make a set of runs outlast its time limit.
ATTEMPT_BUDGET_S = 36
STEAL_RE = re.compile(rb"host\.steal_pct=([0-9.]+)")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no dynaprox sources under %s/src" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.call(step, stdout=sys.stderr, stderr=sys.stderr) != 0:
            sys.exit("perfbench: build step failed: %s" % " ".join(step))


class Attempt:
    def __init__(self, completed):
        self.returncode = completed.returncode
        self.stdout = completed.stdout
        match = STEAL_RE.search(completed.stderr)
        self.steal_pct = float(match.group(1)) if match else None
        lines = completed.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if lines else {}
        except ValueError:
            result = {}
        # Failures are reported, never measured away.
        self.clean = (result.get("correct") is True and
                      result.get("failed") == 0)

    def final(self):
        """True when this attempt is the run's result whatever follows."""
        return (self.returncode != 0 or not self.clean or
                self.steal_pct is None or self.steal_pct <= MAX_STEAL_PCT)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["hot_small", "large_page", "churn"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    build()
    span_dir = os.path.join(BUILD_DIR, "spans")
    os.makedirs(span_dir, exist_ok=True)
    command = [os.path.join(BUILD_DIR, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--span-dir", span_dir]
    start = time.monotonic()
    attempts = []
    while True:
        attempt_start = time.monotonic()
        try:
            completed = subprocess.run(
                command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                timeout=RUN_TIMEOUT_S - (attempt_start - start))
        except subprocess.TimeoutExpired:
            sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        sys.stderr.buffer.write(completed.stderr)
        attempt = Attempt(completed)
        attempts.append(attempt)
        now = time.monotonic()
        if attempt.final():
            break
        if (now - start) + (now - attempt_start) > ATTEMPT_BUDGET_S:
            sys.stderr.write(
                "perfbench: every attempt had more than %g %% steal\n" %
                MAX_STEAL_PCT)
            break
        sys.stderr.write("perfbench: attempt %d had %.2f %% steal; "
                         "measuring again\n" %
                         (len(attempts), attempt.steal_pct))
    chosen = attempts[-1]
    if not chosen.final():
        chosen = min(attempts, key=lambda a: a.steal_pct)
    sys.stderr.write("perfbench: reporting attempt %d of %d (%.2f %% steal)\n"
                     % (attempts.index(chosen) + 1, len(attempts),
                        chosen.steal_pct if chosen.steal_pct is not None
                        else float("nan")))
    sys.stdout.buffer.write(chosen.stdout)
    sys.stdout.flush()
    return chosen.returncode


if __name__ == "__main__":
    sys.exit(main())
