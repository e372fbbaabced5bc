#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (the library from src/ plus the benchmark)
into the directory named by CARGO_TARGET_DIR, or .bench_build, runs the
benchmark's self-tests once per build, then the workload. Its last stdout line is the
result JSON. Trace runs also write Chrome trace-event JSON under the build
directory and check that it parses. Exits non-zero, without a result line,
when the build, a self-test, the run or the trace check fails.
"""

import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def arg_value(args, flag):
    for i in range(len(args) - 1):
        if args[i] == flag:
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    jobs = str(min(4, os.cpu_count() or 1))
    selftest = os.path.join(build, "perfbench_selftest")
    stamp = os.path.join(build, "perfbench_selftest.passed")
    steps = [
        ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build, "--parallel", jobs,
         "--target", "perfbench", "perfbench_selftest"],
    ]
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for step in steps:
        # Build chatter goes to stderr: stdout carries results.
        if subprocess.run(step, cwd=root, env=env,
                          stdout=sys.stderr).returncode != 0:
            fail("step failed: " + " ".join(step))
    if (not os.path.exists(stamp)
            or os.path.getmtime(stamp) < os.path.getmtime(selftest)):
        step = [selftest, "--workdir", os.path.join(build, "perfbench-selftest")]
        if subprocess.run(step, cwd=root, stdout=sys.stderr).returncode != 0:
            fail("self-test failed")
        open(stamp, "w").close()

    workdir = os.path.join(build, "perfbench-work")
    trace_path = os.path.join(
        workdir, "trace-%s-%s.json" % (arg_value(args, "--workload"),
                                       arg_value(args, "--seed")))
    if os.path.exists(trace_path):
        os.remove(trace_path)
    command = [os.path.join(build, "perfbench")] + args + [
        "--workdir", workdir, "--trace-out", trace_path]
    try:
        run = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        fail("run exited with code %d" % run.returncode)
    if arg_value(args, "--trace") == "1":
        try:
            with open(trace_path) as f:
                events = json.load(f)["traceEvents"]
        except (OSError, ValueError, KeyError) as e:
            fail("trace %s unreadable: %s" % (trace_path, e))
        if not events:
            fail("trace %s has no events" % trace_path)
        print("[perfbench] trace JSON parsed: %d events" % len(events))
    print("\n".join(lines[:-1]))
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
