#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

W is one of the workloads in perfbench/workloads.json, or "all" to run
every workload, each in its own process, one after another. The
benchmark executable is built from source with dune into the build
directory ($CARGO_TARGET_DIR, default .bench_build) and runs with the
workload's constants from workloads.json. Its report is printed as is;
the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is non-zero when
any output was wrong, and no result line is printed when the benchmark
cannot be built.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(build_dir, env):
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", build_dir,
           "--profile", "release", "./perfbench/perfbench.exe"]
    try:
        # Build output goes to stderr: stdout is reserved for the result.
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0:
        fail("build failed")
    exe = os.path.join(build_dir, "default", "perfbench", "perfbench.exe")
    if not os.path.isfile(exe):
        fail("build produced no executable")
    return exe


def run_one(exe, design, workload, args, build_dir, env):
    params = design["workloads"][workload]["params"]
    cmd = [exe, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    for key in sorted(params):
        cmd += ["--set", "%s=%s" % (key, params[key])]
    if args.trace == 1:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.tsv" % (workload, args.seed))]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").splitlines()
    if not lines:
        fail("%s printed no result (exit %d)" % (workload, done.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s: last line is not JSON: %s" % (workload, lines[-1]))
    for line in lines[:-1]:
        print(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result has keys %s" % (workload, sorted(result)))
    if done.returncode != 0 and result["correct"]:
        fail("%s exited %d" % (workload, done.returncode))
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    try:
        with open(os.path.join(HERE, "workloads.json")) as f:
            design = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read workloads.json: %s" % e)
    names = list(design["workloads"])
    if args.workload != "all" and args.workload not in names:
        fail("unknown workload %s (one of: %s, all)" % (args.workload, ", ".join(names)))

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ)
    # Everything the build and the run write stays in the checkout: no
    # shared dune cache, and the runtime-events ring in the build dir.
    env["DUNE_CACHE"] = "disabled"
    env["OCAML_RUNTIME_EVENTS_DIR"] = build_dir
    env.pop("OCAML_RUNTIME_EVENTS_START", None)
    env.pop("OCAML_RUNTIME_EVENTS_PRESERVE", None)
    exe = build(build_dir, env)

    if args.workload != "all":
        result = run_one(exe, design, args.workload, args, build_dir, env)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            r = run_one(exe, design, name, args, build_dir, env)
            result["correct"] = result["correct"] and r["correct"]
            result["attempted"] += r["attempted"]
            result["failed"] += r["failed"]
            for k, v in r["metrics"].items():
                result["metrics"]["%s.%s" % (name, k)] = v
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
