#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last stdout line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <cnn1-sync|fleet-buffered|serve-ingest>
                             --seed <n> --seconds <s> --trace <0|1>

The first run in a checkout configures and builds the fedadmm library and
the perfbench binary from source into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). Each run gets a fresh scratch directory
under .bench_build/scratch/ for the slab and checkpoint logs, removed when
the run ends, also on failure. Traced runs write their spans to
.bench_build/traces/.

With --trace 0 the result carries every end-to-end metric of BENCHMARK.json,
with --trace 1 every per-layer metric. If the build fails or the binary does
not finish, the script exits non-zero and prints no result.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BINARY_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def run_process(cmd, timeout, stdout):
    """Runs `cmd` in its own process group, stderr passed through. On timeout
    kills the whole group (compilers included) and waits for it. Returns
    (exit code or None on timeout, captured stdout or None)."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"perfbench: timed out after {timeout} s: {' '.join(cmd)}")
        return None, None
    return proc.returncode, out


def run_checked(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    code, _ = run_process(cmd, timeout, sys.stderr)
    return code == 0


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        if not run_checked(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                            "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return None
    jobs = str(len(os.sched_getaffinity(0)))
    if not run_checked(["cmake", "--build", str(out), "--target", "perfbench",
                        "-j", jobs], BUILD_TIMEOUT_S):
        return None
    binary = out / "perfbench"
    return binary if binary.exists() else None


def run_binary(binary, workload, seed, seconds, trace):
    """Runs one workload in a fresh scratch directory; returns the parsed
    result object, or None when the binary failed or timed out."""
    scratch_root = build_dir().parent / "scratch"
    scratch = scratch_root / f"run-{os.getpid()}-{time.monotonic_ns()}"
    traces = build_dir().parent / "traces"
    scratch.mkdir(parents=True)
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", str(scratch), "--trace-dir", str(traces)]
    try:
        code, out = run_process(cmd, BINARY_TIMEOUT_S, subprocess.PIPE)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if code is None:
        return None
    lines = out.strip().splitlines()
    for line in lines[:-1]:
        log(line)
    if code != 0 or not lines:
        log(f"perfbench: {workload} exited with code {code}")
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log("perfbench: the binary's last line is not JSON")
        return None


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    expected = expected_metrics(args.trace)
    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 1
    result = run_binary(binary, args.workload, args.seed, args.seconds,
                        args.trace)
    if result is None:
        return 1

    correct = bool(result["correct"])
    metrics = {}
    for name, unit in expected:
        got = result["metrics"].get(name)
        if got is None or got["value"] is None or got["unit"] != unit or \
                not math.isfinite(got["value"]):
            log(f"perfbench: metric {name} missing or not a finite {unit}")
            correct = False
            continue
        metrics[name] = {"value": got["value"], "unit": unit}
    attempted = max(1, int(result["attempted"]))
    failed = int(result["failed"]) if correct else attempted

    host = result["host"]
    print(f"workload {result['workload']} seed {result['seed']} "
          f"trace {result['trace']} | {host['cpu_model']}, "
          f"{host['nproc']} CPUs, isa {host['isa']}, {host['build_type']}, "
          f"{host['busy_threads']} busy threads")
    print(f"episodes {result['episodes']}, rounds per episode "
          f"{result['rounds_per_episode']}, round samples "
          f"{result['round_samples']}, set-up samples "
          f"{result['setup_samples']}, theta {result['theta_hash']}"
          + (f", traced theta {result['traced_theta_hash']}"
             if "traced_theta_hash" in result else ""))
    for check in result["checks"]:
        print(f"check {check['name']}: {'ok' if check['ok'] else 'FAILED'}"
              f" ({check['detail']})")
    for name, value in metrics.items():
        print(f"{name} = {value['value']:.6g} {value['unit']}")
    print(f"operations attempted {attempted}, failed {failed}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
