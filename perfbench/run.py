#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe from source with dune, runs it, checks that
its last output line is a result naming exactly the metrics that
BENCHMARK.json declares for the mode (end_to_end for --trace 0,
per_layer for --trace 1), and forwards its output.  Exits non-zero,
without a result, when the tree cannot be built or the run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
OUT = os.path.join(HERE, "out")
BUILD_TIMEOUT_S = 840


def run_timeout_s(seconds):
    """Set-up, warm-up, the checks and the traced run's extra phases take
    up to about 50 s plus twice the measured time; allow twice that."""
    return 100 + 4 * seconds


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("no dune project with lib/ at %s; nothing to build" % ROOT, 2)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune not found on PATH", 2)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if proc.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(proc.stdout)
        fail("build failed")


def run(args):
    os.makedirs(OUT, exist_ok=True)
    # Runtime_events ring files of the traced run stay inside the tree.
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=OUT)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    timeout = run_timeout_s(args.seconds)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("run timed out after %d s" % timeout)
    if proc.returncode != 0:
        sys.stderr.write(out + err)
        fail("run exited with code %d" % proc.returncode)
    return out, err


def check(result, spec, trace):
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return "result keys"
    if not isinstance(result["correct"], bool):
        return "correct is not a boolean"
    for k in ("attempted", "failed"):
        if not isinstance(result[k], int) or isinstance(result[k], bool):
            return k + " is not an integer"
    if result["attempted"] < 1:
        return "attempted < 1"
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    if set(metrics) != set(units):
        return "metric names differ from BENCHMARK.json: %s" % sorted(
            set(metrics) ^ set(units))
    for name, v in metrics.items():
        if set(v) != {"value", "unit"} or v["unit"] != units[name]:
            return "metric %s: unit or keys differ" % name
        if not isinstance(v["value"], (int, float)) or isinstance(v["value"], bool):
            return "metric %s: value is not a number" % name
    return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (spec_path, e), 2)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload, 2)
    build()
    out, err = run(args)
    lines = [l for l in out.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(out + err)
        fail("no result line")
    problem = check(result, spec, args.trace == 1)
    if problem:
        sys.stderr.write(out + err)
        fail("malformed result: " + problem)
    sys.stderr.write(err)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
