#!/usr/bin/env python3
"""Unit invocation of check_bench_exec.py (run by `make lint` and CI).

Feeds crafted BENCH_exec.json records to the checker in a subprocess
and asserts the exit status and the message: a record with a missing
field must fail with a clear `missing ... field` line naming the field
-- never a KeyError traceback -- and the cost-section floors must
actually gate.
"""

import json
import os
import subprocess
import sys
import tempfile

CHECKER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "check_bench_exec.py")

GOOD = {
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
    "cost": {
        "prediction_error": 0,
        "drift_diagnostics": 0,
        "sweep_pruned": 3,
        "sweep_simulations_unfiltered": 5,
        "sweep_simulations_prefiltered": 2,
        "frontier_identical": True,
    },
    "cache": {
        "compile_speedup": 12.5,
        "hit_identical": True,
        "cold_sweep_compile_runs": 5,
        "warm_sweep_compile_runs": 0,
        "cold_sweep_verify_runs": 5,
        "warm_sweep_verify_runs": 0,
        "sweep_outcomes_identical": True,
        "hits": 11,
    },
    "timeline": {
        "p": 4,
        "elements": 2048,
        "plain_total_cycles": 2054016,
        "plain_compute_share": 0.825,
        "plain_transfer_share": 0.175,
        "overlap_total_cycles": 1697527,
        "overlap_efficiency": 0.992,
        "overlap_saved_cycles": 356489,
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
    expect("complete record passes", GOOD, 0, "check_bench_exec: OK")
    expect("missing top-level field",
           drop(GOOD, "functional_sim_jobs"), 1,
           "missing field 'functional_sim_jobs'")
    expect("missing matrix leg field",
           drop(GOOD, "functional_sim_matrix", 1, "speedup_vs_seq"), 1,
           "missing functional_sim_matrix[1] field 'speedup_vs_seq'")
    expect("missing cost field",
           drop(GOOD, "cost", "sweep_pruned"), 1,
           "missing cost field 'sweep_pruned'")
    expect("cost: nothing pruned fails",
           {**GOOD, "cost": {**GOOD["cost"], "sweep_pruned": 0}}, 1,
           "pruned no configuration")
    expect("cost: drift fails",
           {**GOOD, "cost": {**GOOD["cost"], "drift_diagnostics": 2}}, 1,
           "cost-drift diagnostics")
    expect("cost: changed frontier fails",
           {**GOOD, "cost": {**GOOD["cost"], "frontier_identical": False}}, 1,
           "changed the Pareto frontier")
    expect("cost section optional",
           drop(GOOD, "cost"), 0, "check_bench_exec: OK")
    expect("missing cache field",
           drop(GOOD, "cache", "hits"), 1,
           "missing cache field 'hits'")
    expect("cache: slow warm compile fails",
           {**GOOD, "cache": {**GOOD["cache"], "compile_speedup": 3.0}}, 1,
           "warm compile speedup 3.0x < 5x floor")
    expect("cache: non-identical hit fails",
           {**GOOD, "cache": {**GOOD["cache"], "hit_identical": False}}, 1,
           "not bit-identical")
    expect("cache: warm sweep recompiling fails",
           {**GOOD, "cache": {**GOOD["cache"], "warm_sweep_compile_runs": 5}},
           1, "not strictly fewer")
    expect("cache: warm sweep reverifying fails",
           {**GOOD, "cache": {**GOOD["cache"], "warm_sweep_verify_runs": 5}},
           1, "not strictly fewer")
    expect("cache: changed outcomes fail",
           {**GOOD,
            "cache": {**GOOD["cache"], "sweep_outcomes_identical": False}},
           1, "changed the outcome list")
    expect("cache: no hit served fails",
           {**GOOD, "cache": {**GOOD["cache"], "hits": 0}}, 1,
           "served no hit")
    expect("cache section optional",
           drop(GOOD, "cache"), 0, "check_bench_exec: OK")
    expect("cache-only record passes",
           {"cache": GOOD["cache"]}, 0, "check_bench_exec: OK")
    expect("timeline: share outside [0,1] fails",
           {**GOOD,
            "timeline": {**GOOD["timeline"], "overlap_efficiency": 1.5}},
           1, "outside [0, 1]")
    expect("timeline: plain shares must sum to 1",
           {**GOOD,
            "timeline": {**GOOD["timeline"], "plain_transfer_share": 0.3}},
           1, "not 1.0")
    expect("timeline: slower overlapped run fails",
           {**GOOD,
            "timeline": {**GOOD["timeline"],
                         "overlap_total_cycles": 9999999999}},
           1, "more than the plain")
    expect("timeline section optional",
           drop(GOOD, "timeline"), 0, "check_bench_exec: OK")
    expect("timeline-only record passes",
           {"timeline": GOOD["timeline"]}, 0, "check_bench_exec: OK")
    expect("empty record fails",
           {}, 1, "no known benchmark section")
    print("check_bench_exec_test: OK")


if __name__ == "__main__":
    main()
