#!/usr/bin/env python3
"""The benchmark's own determinism self-test.

Usage (from the root of a checkout):  python3 perfbench/selftest.py

For every workload, on short runs:
  * the same seed twice gives the same θ hash and the same deterministic
    counters;
  * two different seeds give different θ hashes;
  * a traced run's θ hash equals the untraced episode it runs beside (the
    binary checks this and reports it as `traced_theta_equals_untraced`);
  * every per-run check passes.
Exits non-zero on the first failure. Takes about two minutes.
"""

import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
import run  # noqa: E402

WORKLOADS = ("cnn1-sync", "fleet-buffered", "serve-ingest")
SEED_A = 101
SEED_B = 202
SECONDS = 1  # the shortest run each workload allows


def fail(msg):
    print(f"FAIL: {msg}")
    return 1


def all_checks_ok(result):
    bad = [c["name"] for c in result["checks"] if not c["ok"]]
    return not bad and result["correct"], bad


def main():
    binary = run.build()
    if binary is None:
        return fail("build failed")
    for workload in WORKLOADS:
        first = run.run_binary(binary, workload, SEED_A, SECONDS, 0)
        again = run.run_binary(binary, workload, SEED_A, SECONDS, 0)
        other = run.run_binary(binary, workload, SEED_B, SECONDS, 0)
        traced = run.run_binary(binary, workload, SEED_A, SECONDS, 1)
        if None in (first, again, other, traced):
            return fail(f"{workload}: a run did not finish")
        for label, result in (("first", first), ("again", again),
                              ("other seed", other), ("traced", traced)):
            ok, bad = all_checks_ok(result)
            if not ok:
                return fail(f"{workload} {label}: checks failed: {bad}")
        if first["theta_hash"] != again["theta_hash"]:
            return fail(f"{workload}: same seed, different θ hash")
        if first["counters"] != again["counters"]:
            return fail(f"{workload}: same seed, different counters")
        if first["theta_hash"] == other["theta_hash"]:
            return fail(f"{workload}: different seeds, same θ hash")
        if traced["theta_hash"] != traced["traced_theta_hash"]:
            return fail(f"{workload}: traced θ hash differs from untraced")
        print(f"ok {workload}: θ {first['theta_hash']} replays, seed "
              f"{SEED_B} gives {other['theta_hash']}, traced == untraced "
              f"({traced['traced_theta_hash']})")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
