#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload hot --seed 1 --seconds 30 --trace 0

Run from the repository root. The first run configures and builds the
library and the perfbench program (Release) under .bench_build/perfbench;
later runs only rebuild what changed. Build output goes to stderr, the
program's readable report and its JSON result line to stdout. The workload's
parameters come from perfbench/workloads.json. The exit code is non-zero when
the build fails, a correctness check fails, or the run overstays its time.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# The program runs about --seconds of load phases (about twice that with
# --trace 1, which adds the capacity search) after five set-ups. The build is
# extra.
SETUP_ALLOWANCE_S = 60


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(out_dir):
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", out_dir, "--target", "perfbench", "-j",
         str(min(4, os.cpu_count() or 1))],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True,
                    help="measured time; the run may take %d s + 3 x this"
                    % SETUP_ALLOWANCE_S)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)["workloads"]
    if args.workload not in workloads:
        sys.exit("unknown workload %r; choose from %s" %
                 (args.workload, ", ".join(sorted(workloads))))

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("perfbench build failed: %s" % e)

    work_dir = os.path.join(out_dir, "work-%d" % os.getpid())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    for key, value in workloads[args.workload]["params"].items():
        cmd += ["--param", "%s=%s" % (key, value)]

    timeout_s = SETUP_ALLOWANCE_S + 3 * args.seconds
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        shutil.rmtree(work_dir, ignore_errors=True)
        sys.exit("perfbench: run exceeded %d s" % timeout_s)
    shutil.rmtree(work_dir, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.exit("perfbench: no result line (exit code %d)" % proc.returncode)
    print("# run wall %.1f s" % (time.monotonic() - start))
    if proc.returncode != 0 or not result.get("correct"):
        print(lines[-1])
        sys.exit(1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
