#!/usr/bin/env python3
"""Served-system benchmark: build it, run one workload, print the result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/main.exe with dune,
runs it in its own process group (the server runs in a child of it), and
checks its result against BENCHMARK.json: every end-to-end metric with
--trace 0, every per-layer metric with --trace 1.  A per-layer metric the
workload does not exercise is reported as 0 and named in a report line.
The last line of standard output is the result object.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import time

RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def stop_group(pgid):
    """Kill whatever is left of the benchmark's process group and wait."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if build.returncode != 0:
        fail("build failed")

    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    proc = subprocess.Popen(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        stop_group(proc.pid)
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        fail("benchmark exited with code %d" % proc.returncode)
    report, last = lines[:-1], lines[-1]
    try:
        res = json.loads(last)
    except ValueError:
        sys.stdout.write(out)
        fail("no result line")

    got = res["metrics"]
    names = {m["name"] for m in declared}
    extra = sorted(set(got) - names)
    if extra:
        fail("metrics not declared in BENCHMARK.json: " + ", ".join(extra))
    metrics, absent = {}, []
    for m in declared:
        v = got.get(m["name"])
        if v is None:
            if not args.trace:
                fail("end-to-end metric missing: " + m["name"])
            absent.append(m["name"])
            v = {"value": 0.0, "unit": m["unit"]}
        elif v["unit"] != m["unit"]:
            fail("unit of %s is %s, declared %s" % (m["name"], v["unit"], m["unit"]))
        metrics[m["name"]] = v
    for line in report:
        print(line)
    if absent:
        print("not exercised by %s (reported as 0): %s" % (args.workload, ", ".join(absent)))
    print(json.dumps({"correct": bool(res["correct"]), "attempted": int(res["attempted"]),
                      "failed": int(res["failed"]), "metrics": metrics}))


if __name__ == "__main__":
    main()
