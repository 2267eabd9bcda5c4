#!/usr/bin/env python3
"""llmfi benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call builds the libraries, the
llmfi_serve server and the benchmark program into the build directory
($CARGO_TARGET_DIR, default .bench_build) and trains the `qilin` model into
a checkpoint cache the benchmark owns (the one-time prepare step; it is
never part of any timed figure). Every call then runs the program, whose
last stdout line is the JSON result. See perfbench/WORKLOADS.md.
"""

import argparse
import fcntl
import os
import subprocess
import sys
import time

WORKLOADS = ("campaign-comp", "campaign-mem-detect", "serve-poisson")
# A run that overruns this is killed: every run must end within 180 s.
RUN_TIMEOUT_S = 170
MODEL_FILE = "qilin_v1.bin"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def locked(path):
    f = open(path, "a+")
    fcntl.flock(f, fcntl.LOCK_EX)
    return f


def build(root, build_dir):
    src = os.path.join(root, "perfbench")
    obj = os.path.join(build_dir, "perfbench")
    os.makedirs(obj, exist_ok=True)
    with locked(os.path.join(build_dir, "perfbench.lock")):
        if not os.path.exists(os.path.join(obj, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", src, "-B", obj,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", obj, "-j", str(os.cpu_count() or 1)],
                       check=True, stdout=sys.stderr)
    return os.path.join(obj, "perfbench")


def prepare(binary, cache_dir, env):
    """Trains qilin once into the benchmark's own checkpoint cache.

    The zoo writes checkpoints in place, so training goes to a private
    directory and the finished file is renamed into the cache: a
    concurrent reader sees no checkpoint or a whole one, never a torn one.
    """
    os.makedirs(cache_dir, exist_ok=True)
    final = os.path.join(cache_dir, MODEL_FILE)
    with locked(os.path.join(cache_dir, "prepare.lock")):
        if os.path.exists(final):
            return
        tmp = os.path.join(cache_dir, f"tmp-{os.getpid()}")
        os.makedirs(tmp, exist_ok=True)
        t0 = time.monotonic()
        subprocess.run([binary, "prepare", "--cache", tmp], check=True,
                       stdout=sys.stderr, env=env)
        os.replace(os.path.join(tmp, MODEL_FILE), final)
        os.rmdir(tmp)
        log(f"prepare: trained qilin in {time.monotonic() - t0:.1f} s "
            f"(one-time, excluded from every metric)")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")

    root = os.getcwd()
    for need in ("src/CMakeLists.txt", "tools/llmfi_serve.cpp"):
        if not os.path.exists(os.path.join(root, need)):
            log(f"{need} not found: run from the root of an llmfi checkout")
            return 2
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    os.makedirs(build_dir, exist_ok=True)

    # Knobs the program reads from the environment would silently change
    # the measured configuration; the benchmark sets everything explicitly.
    env = {k: v for k, v in os.environ.items() if not k.startswith("LLMFI_")}
    cache_dir = os.path.join(build_dir, "perfbench_models")
    env["LLMFI_MODEL_CACHE"] = cache_dir
    # Campaigns run 2 workers, so 2 OpenMP threads each fill the cores;
    # the serve workload gives the server and the load generator one
    # OpenMP thread each (the server's engine thread is single-threaded).
    nproc = os.cpu_count() or 1
    omp = max(1, nproc // 2) if args.workload.startswith("campaign") else 1
    env["OMP_NUM_THREADS"] = str(omp)

    try:
        binary = build(root, build_dir)
        prepare(binary, cache_dir, env)
    except subprocess.CalledProcessError as e:
        log(f"build/prepare failed: {e}")
        return 2

    cmd = [binary, "run", "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--cache", cache_dir, "--out", build_dir]
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s; killing it")
        os.killpg(proc.pid, 9)
        proc.wait()
        return 3
    except BaseException:
        os.killpg(proc.pid, 9)
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
