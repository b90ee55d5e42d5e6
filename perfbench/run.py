#!/usr/bin/env python3
"""End-to-end pipeline benchmark: build, run one workload, print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|smoke]

Run from the repository root.  The first call configures and builds the
agtram libraries and the runner (Release) under .bench_build/perfbench;
later calls rebuild incrementally.  The workload runs in its own process;
its stdout is passed through, so the last line is the result object
{"correct", "attempted", "failed", "metrics"}.  Traced runs also write their
spans to .bench_build/spans/<workload>-<size>-seed<N>.jsonl.  Exits non-zero,
with no result line, when the sources are missing, the build fails or the
runner fails or times out.  See perfbench/README.md for the workloads and
metrics.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNNER = os.path.join(BUILD, "perfbench_runner")
WORKLOADS = ("solve-paper", "serve-drift", "online-churn", "regional-50k")
RUNNER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# Compiler and runner temporaries stay inside the checkout.
TMP = os.path.join(ROOT, ".bench_build", "tmp")
CHILD_ENV = dict(os.environ, TMPDIR=TMP)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_child(cmd, timeout, stdout):
    """Runs `cmd` in its own process group and returns (exit code, stdout
    text or None).  On timeout, or when this script is stopped, the whole
    group (a build's compilers included) is killed and waited for; a
    timeout returns exit code None."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, stderr=sys.stderr,
                            text=True, start_new_session=True, env=CHILD_ENV)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        return None, None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; returns success."""
    code, _ = run_child(cmd, timeout, sys.stderr)
    if code is None:
        log(f"{cmd[0]} exceeded {timeout} s and was stopped")
    return code == 0


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        log("the agtram sources (CMakeLists.txt, src/) are not beside perfbench/")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run_quiet(["cmake", "--build", BUILD, "-j", jobs], BUILD_TIMEOUT_S)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10,
                             check=False)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "bench/bench_common.hpp", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as fh:
                digest.update(fh.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["attempted"], int) and result["attempted"] >= 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args()

    os.makedirs(TMP, exist_ok=True)
    if not build():
        log("build failed")
        return 2

    cmd = [RUNNER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--commit", source_id()]
    if args.trace:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, f"{args.workload}-{args.size}-seed{args.seed}.jsonl")]
    code, out = run_child(cmd, RUNNER_TIMEOUT_S, subprocess.PIPE)
    if code is None:
        log(f"runner exceeded {RUNNER_TIMEOUT_S} s and was stopped")
        return 3
    lines = out.splitlines()
    if not lines or not valid_result(lines[-1]):
        log(f"runner exited {code} without a result")
        return code or 4
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    # A SIGTERM unwinds through run_child, which stops the child's group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
