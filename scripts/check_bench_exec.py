#!/usr/bin/env python3
"""Timed floors over BENCH_exec.json (`bench exec`) and BENCH_cache.json
(`bench cache`).

A record has two known sections: the exec fields and the "cache"
object. Each is checked when present, and at least one must be there
-- an empty record passes nothing. Within a section, every expected
field that is absent fails with a clear message naming the field
(never a KeyError traceback). The exact facts the benchmarks used to
gate beside these floors are asserted in `dune runtest` instead.

Exec floors (see EXPERIMENTS.md, EXEC record):

  * sharded jobs:1 must stay within 5% of the round-scheduled
    sequential baseline -- the sharding refactor is not allowed to tax
    the single-threaded path;
  * on a multi-core host running a parallel headline leg
    (functional_sim_jobs > 1), the sharded simulator must actually win:
    functional_sim_par_speedup >= 1.0;
  * on a single-core host the parallel floor is waived for jobs > 1
    legs: extra domains only measure the runtime's stop-the-world GC
    synchronizing oversubscribed cores, not the simulator. The jobs:1
    leg still answers for overhead, with a gross-regression floor of
    0.90x on the headline speedup.

Cache floor:

  * a warm compile+check must be at least 5x faster than cold.

Usage: check_bench_exec.py [path/to/BENCH_exec.json | path/to/BENCH_cache.json]
"""

import json
import sys

SHARD1_OVERHEAD_MAX = 0.05
SINGLE_CORE_FLOOR = 0.90
CACHE_COMPILE_SPEEDUP_MIN = 5.0

EXEC_KEYS = (
    "host_cores",
    "functional_sim_jobs",
    "functional_sim_par_speedup",
    "functional_sim_shard1_overhead",
    "functional_sim_matrix",
)


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_exec.json"
    with open(path) as f:
        bench = json.load(f)

    def field_of(obj, name, what):
        if not isinstance(obj, dict) or name not in obj:
            print(f"check_bench_exec: {path}: missing {what} {name!r}")
            sys.exit(1)
        return obj[name]

    failures = []
    sections = 0

    if any(k in bench for k in EXEC_KEYS):
        sections += 1

        def field(name):
            return field_of(bench, name, "field")

        cores = field("host_cores")
        jobs = field("functional_sim_jobs")
        speedup = field("functional_sim_par_speedup")
        overhead = field("functional_sim_shard1_overhead")

        print(
            f"check_bench_exec: {path}: host_cores={cores} jobs={jobs} "
            f"par_speedup={speedup:.2f}x shard1_overhead={overhead * 100:+.1f}%"
        )
        for i, leg in enumerate(bench.get("functional_sim_matrix", [])):
            def leg_field(name):
                return field_of(leg, name, f"functional_sim_matrix[{i}] field")

            elements = leg_field("elements")
            strategy = leg_field("strategy")
            leg_jobs = leg_field("jobs")
            leg_speedup = leg_field("speedup_vs_seq")
            print(
                f"  {elements:>6} elements | {strategy:<15} | "
                f"jobs {leg_jobs} | {leg_speedup:.2f}x"
            )

        if overhead > SHARD1_OVERHEAD_MAX:
            failures.append(
                f"sharded jobs:1 overhead {overhead * 100:+.1f}% exceeds "
                f"{SHARD1_OVERHEAD_MAX * 100:.0f}% of the sequential baseline"
            )
        if jobs > 1:
            if cores > 1:
                if speedup < 1.0:
                    failures.append(
                        f"parallel headline {speedup:.2f}x < 1.00x at "
                        f"jobs={jobs} on a {cores}-core host"
                    )
            else:
                print(
                    "check_bench_exec: single-core host, parallel floor "
                    f"waived for the jobs={jobs} leg (oversubscribed domains "
                    "measure GC synchronization, not the simulator)"
                )
        elif speedup < SINGLE_CORE_FLOOR:
            failures.append(
                f"headline speedup {speedup:.2f}x < {SINGLE_CORE_FLOOR:.2f}x "
                "gross-regression floor at jobs=1"
            )

    cache = bench.get("cache")
    if cache is not None:
        sections += 1

        def cache_field(name):
            return field_of(cache, name, "cache field")

        compile_speedup = cache_field("compile_speedup")
        print(
            f"check_bench_exec: cache: compile_speedup={compile_speedup:.1f}x"
        )
        if compile_speedup < CACHE_COMPILE_SPEEDUP_MIN:
            failures.append(
                f"warm compile speedup {compile_speedup:.1f}x < "
                f"{CACHE_COMPILE_SPEEDUP_MIN:.0f}x floor"
            )

    if sections == 0:
        print(
            f"check_bench_exec: {path}: no known benchmark section "
            "(expected exec fields or 'cache')"
        )
        sys.exit(1)

    if failures:
        for f_ in failures:
            print(f"check_bench_exec: FAIL: {f_}")
        sys.exit(1)
    print("check_bench_exec: OK")


if __name__ == "__main__":
    main()
