#!/usr/bin/env python3
"""Builds and runs the DirectLoad benchmark for one workload.

    python3 perfbench/run.py --workload serve_zipf --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout. It configures and builds the benchmark
(perfbench/CMakeLists.txt, Release) under .bench_build/perfbench, runs it,
and passes its output through: the last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}, the line before it the run's
context. Spans of a traced run (--trace 1) are written as CSV files to
.bench_build/perfbench/traces. The exit status is the benchmark's: 0 for a run
whose answers were all right, 1 for a wrong answer, 2 when nothing could be
measured (including a checkout without the DirectLoad sources).

    python3 perfbench/run.py --selftest

builds and runs the benchmark's own logic tests instead.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

WORKLOADS = ("serve_zipf", "write_heavy")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def source_id(root):
    """The commit when the checkout is a git repository, otherwise a digest
    of every source file the benchmark builds from."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(root, build_dir, target):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log(f"no DirectLoad sources under {root}/src; nothing to build")
        return False
    # Configuring every time is cheap and keeps a reused build directory in
    # step with this checkout's targets.
    steps = [["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j4", "--target", target]]
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, cwd=root, stdout=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    # Write the build's dirty pages back now, not during the measurement.
    os.sync()
    return True


def run(cmd, cwd, timeout):
    """Runs `cmd` in its own process group and waits for it to end; on
    timeout the whole group is killed and reaped."""
    proc = subprocess.Popen(cmd, cwd=cwd, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout}s; killing the run")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 2
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build", "perfbench")

    if args.selftest:
        if not build(root, build_dir, "perfbench_logic_test"):
            return 2
        return run([os.path.join(build_dir, "perfbench_logic_test")], root,
                   RUN_TIMEOUT_S)

    if not build(root, build_dir, "perfbench"):
        return 2
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--trace-dir", trace_dir, "--commit", source_id(root)]
    sys.stdout.flush()
    return run(cmd, root, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
