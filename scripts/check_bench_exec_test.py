#!/usr/bin/env python3
"""Unit invocation of check_bench_exec.py (run by `make exec`, `make
cache` and CI).

Feeds crafted BENCH_exec.json and BENCH_cache.json records to the
checker in a subprocess and asserts the exit status and the message: a
record with a missing field must fail with a clear `missing ... field`
line naming the field -- never a KeyError traceback -- and each timed
floor must actually gate.
"""

import json
import os
import subprocess
import sys
import tempfile

CHECKER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "check_bench_exec.py")

EXEC = {
    "host_cores": 4,
    "functional_sim_jobs": 4,
    "functional_sim_par_speedup": 2.5,
    "functional_sim_shard1_overhead": 0.01,
    "functional_sim_matrix": [
        {"elements": 512, "strategy": "round-scheduled", "jobs": 1,
         "seconds": 0.1, "speedup_vs_seq": 1.0},
        {"elements": 512, "strategy": "sharded", "jobs": 4,
         "seconds": 0.04, "speedup_vs_seq": 2.5},
    ],
}

CACHE = {
    "cache": {
        "p": 11,
        "cold_compile_seconds": 0.25,
        "warm_compile_seconds": 0.02,
        "compile_speedup": 12.5,
    },
}


def run_checker(record):
    with tempfile.NamedTemporaryFile(
            mode="w", suffix=".json", delete=False) as f:
        json.dump(record, f)
        path = f.name
    try:
        proc = subprocess.run(
            [sys.executable, CHECKER, path],
            capture_output=True, text=True)
        return proc.returncode, proc.stdout + proc.stderr
    finally:
        os.unlink(path)


def drop(record, *path):
    record = json.loads(json.dumps(record))
    obj = record
    for key in path[:-1]:
        obj = obj[key]
    del obj[path[-1]]
    return record


def expect(name, record, code, *needles):
    got_code, out = run_checker(record)
    if "Traceback" in out:
        print(f"FAIL {name}: checker crashed with a traceback:\n{out}")
        sys.exit(1)
    if got_code != code:
        print(f"FAIL {name}: expected exit {code}, got {got_code}:\n{out}")
        sys.exit(1)
    for needle in needles:
        if needle not in out:
            print(f"FAIL {name}: expected {needle!r} in output:\n{out}")
            sys.exit(1)
    print(f"ok {name}")


def main():
    expect("exec record passes", EXEC, 0, "check_bench_exec: OK")
    expect("missing top-level field",
           drop(EXEC, "functional_sim_jobs"), 1,
           "missing field 'functional_sim_jobs'")
    expect("missing matrix leg field",
           drop(EXEC, "functional_sim_matrix", 1, "speedup_vs_seq"), 1,
           "missing functional_sim_matrix[1] field 'speedup_vs_seq'")
    expect("exec: sharded jobs:1 over 5% fails",
           {**EXEC, "functional_sim_shard1_overhead": 0.06}, 1,
           "exceeds 5% of the sequential baseline")
    expect("exec: parallel headline below 1x fails on a multi-core host",
           {**EXEC, "functional_sim_par_speedup": 0.97}, 1,
           "parallel headline 0.97x < 1.00x")
    expect("exec: parallel floor waived on a single-core host",
           {**EXEC, "host_cores": 1, "functional_sim_par_speedup": 0.5}, 0,
           "parallel floor waived", "check_bench_exec: OK")
    expect("exec: jobs:1 headline below 0.90x fails",
           {**EXEC, "functional_sim_jobs": 1,
            "functional_sim_par_speedup": 0.85}, 1,
           "gross-regression floor at jobs=1")
    expect("cache record passes", CACHE, 0, "check_bench_exec: OK")
    expect("missing cache field",
           drop(CACHE, "cache", "compile_speedup"), 1,
           "missing cache field 'compile_speedup'")
    expect("cache: slow warm compile fails",
           {"cache": {**CACHE["cache"], "compile_speedup": 3.0}}, 1,
           "warm compile speedup 3.0x < 5x floor")
    expect("empty record fails",
           {}, 1, "no known benchmark section")
    print("check_bench_exec_test: OK")


if __name__ == "__main__":
    main()
