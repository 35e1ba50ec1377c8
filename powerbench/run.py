#!/usr/bin/env python3
"""Build and run one workload of the powerlim end-to-end benchmark.

    python3 powerbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
powerbench/ (the repository's src/ libraries plus the powerbench
binary, Release) into $CARGO_TARGET_DIR, or .bench_build when that is
unset; later runs only re-check the build. The workloads and their
parameters are described in powerbench/workloads.json. The last line of
stdout is the result JSON (correct, attempted, failed, metrics); build
logs and check failures go to stderr. Any build or run failure exits
non-zero without a result.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Time a run may take beyond its measured passes (one pass, two with
# --trace 1): set-up repetitions, the batch that overruns --seconds, the
# output checks and the traced rebuild.
RUN_ALLOWANCE_S = 145


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "powerbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail("unknown workload '%s' (have: %s)"
             % (args.workload, ", ".join(workloads)))
    expected = {m["name"] for m in
                spec["per_layer" if args.trace else "end_to_end"]}

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir)

    work_dir = os.path.join(ROOT, ".bench_run",
                            "%s-%d" % (args.workload, os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    timeout_s = (2 if args.trace else 1) * args.seconds + RUN_ALLOWANCE_S
    # Own process group, so a timeout also stops the daemon, executors
    # and workers the powerbench binary forked.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("workload timed out after %g s" % timeout_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("powerbench exited with %d" % proc.returncode)
    result = json.loads(lines[-1])
    if set(result["metrics"]) != expected:
        fail("metrics differ from BENCHMARK.json: %s"
             % sorted(set(result["metrics"]) ^ expected))
    print(lines[-1])


if __name__ == "__main__":
    main()
