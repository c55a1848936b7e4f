#!/usr/bin/env python3
"""The repository benchmark: build from source, run one workload, print its result.

Run from the repository root:

    python3 perfbench/run.py --workload pair-inproc --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer metrics of the traced run. --smoke runs
every workload briefly, traced and untraced, and checks the results
(every metric BENCHMARK.json declares present with its unit and finite,
nothing failed, trace coverage >= 0.9).
See perfbench/README.md.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys

WORKLOADS = ["pair-inproc", "pair-fleet", "scale-1m"]
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
CLI = os.path.join("_build", "default", "bin", "alpenhorn_cli.exe")
RUN_TIMEOUT = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Build the measuring program and the server CLI inside this checkout."""
    for path in ("dune-project", "lib", "bin", os.path.join("perfbench", "dune")):
        if not os.path.exists(path):
            fail("run from the repository root: %s not found" % path)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", EXE, CLI]
    try:
        r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    except FileNotFoundError:
        fail("dune not found")
    sys.stderr.write(r.stdout.decode(errors="replace"))
    if r.returncode != 0:
        fail("build failed")


def run(workload, seed, seconds, trace, setups=None):
    """Run the measuring program; returns (exit code, stdout lines)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--cli", CLI]
    if setups is not None:
        cmd += ["--setups", str(setups)]
    # its own process group, so the server processes pair-fleet spawns can
    # be stopped with it whatever happens
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        out = None
    try:
        os.killpg(p.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    if out is None:
        p.communicate()
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT))
    return p.returncode, out.decode(errors="replace").splitlines()


def smoke():
    """A short run of every workload, traced and untraced, with the checks."""
    problems = []
    with open("BENCHMARK.json") as f:
        declared = json.load(f)
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines = run(workload, seed=1, seconds=1, trace=trace, setups=1)
            name = "%s trace=%d" % (workload, trace)
            try:
                res = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append(name + ": no result line")
                continue
            metrics = res["metrics"]
            table = declared["end_to_end" if trace == 0 else "per_layer"]
            want = {m["name"]: m["unit"] for m in table}
            got = {k: v["unit"] for k, v in metrics.items()}
            if want != got:
                problems.append("%s: metrics differ from BENCHMARK.json: %s" % (name, sorted(set(want.items()) ^ set(got.items()))))
            bad = [k for k, v in metrics.items() if not math.isfinite(v["value"])]
            if code != 0 or not res["correct"]:
                problems.append("%s: exit %d, correct=%s" % (name, code, res["correct"]))
            if res["failed"] != 0:
                problems.append("%s: failed_frac %g" % (name, res["failed"] / res["attempted"]))
            if bad:
                problems.append("%s: not finite: %s" % (name, ", ".join(bad)))
            if trace == 1 and metrics["trace.coverage"]["value"] < 0.9:
                problems.append("%s: trace.coverage %.3f < 0.9" % (name, metrics["trace.coverage"]["value"]))
            print("%-22s %d metrics, %d operations, failed %d" % (name, len(metrics), res["attempted"], res["failed"]))
    for p in problems:
        print("smoke: FAIL " + p)
    print("smoke: " + ("FAIL" if problems else "OK"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        fail("--workload or --smoke is required")
    build()
    if args.smoke:
        sys.exit(smoke())
    code, lines = run(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
