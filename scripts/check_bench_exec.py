#!/usr/bin/env python3
"""Regression gate over BENCH_exec.json's functional-simulation,
static-cost, artifact-cache, and device-timeline legs.

The record is sectioned: the exec fields (written by `bench exec`), the
"cost" object (`bench cost`), the "cache" object (`bench cache`), and
the "timeline" object (`bench timeline`) are each checked when present,
and at least one known section must be there -- an empty record passes
nothing. Within a section, every expected field that is absent fails
with a clear message naming the field (never a KeyError traceback).

Exec floors (see docs/EXPERIMENTS.md, EXEC record):

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

Cost floors:

  * the closed-form cycle estimate must equal the simulated total
    exactly (prediction_error == 0) and the differential run must be
    drift-free (drift_diagnostics == 0);
  * the static pre-filter must have pruned at least one configuration,
    simulated strictly fewer systems than the unfiltered sweep, and
    returned the identical Pareto frontier.

Cache floors:

  * a warm compile+check must be at least 5x faster than cold, and the
    hit must reproduce the miss bit-for-bit (hit_identical);
  * the warm sweep must replay cached outcomes: strictly fewer compile
    and verifier runs than the cold pass, identical outcome list, and
    at least one hit served.

Timeline floors:

  * shares and overlap efficiency all in [0, 1], with the plain leg's
    compute + transfer shares summing to exactly 1;
  * the overlapped total must not exceed the plain total (both legs run
    the same k/m shape, so the overlap law guarantees <=).

Usage: check_bench_exec.py [path/to/BENCH_exec.json]
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

    cost = bench.get("cost")
    if cost is not None:
        sections += 1

        def cost_field(name):
            return field_of(cost, name, "cost field")

        prediction_error = cost_field("prediction_error")
        drift = cost_field("drift_diagnostics")
        pruned = cost_field("sweep_pruned")
        sims_full = cost_field("sweep_simulations_unfiltered")
        sims_filtered = cost_field("sweep_simulations_prefiltered")
        frontier_identical = cost_field("frontier_identical")
        print(
            f"check_bench_exec: cost: prediction_error={prediction_error} "
            f"drift={drift} pruned={pruned} "
            f"simulations={sims_full}->{sims_filtered} "
            f"frontier_identical={frontier_identical}"
        )
        if prediction_error != 0:
            failures.append(
                f"static cycle prediction off by {prediction_error} "
                "(the closed-form model must match Sim.Perf exactly)"
            )
        if drift != 0:
            failures.append(
                f"{drift} cost-drift diagnostics in the differential run"
            )
        if pruned <= 0:
            failures.append("static pre-filter pruned no configuration")
        if sims_filtered >= sims_full:
            failures.append(
                f"prefiltered sweep simulated {sims_filtered} systems, "
                f"not strictly fewer than the unfiltered {sims_full}"
            )
        if not frontier_identical:
            failures.append("prefiltered sweep changed the Pareto frontier")

    cache = bench.get("cache")
    if cache is not None:
        sections += 1

        def cache_field(name):
            return field_of(cache, name, "cache field")

        compile_speedup = cache_field("compile_speedup")
        hit_identical = cache_field("hit_identical")
        cr_cold = cache_field("cold_sweep_compile_runs")
        cr_warm = cache_field("warm_sweep_compile_runs")
        vr_cold = cache_field("cold_sweep_verify_runs")
        vr_warm = cache_field("warm_sweep_verify_runs")
        outcomes_identical = cache_field("sweep_outcomes_identical")
        hits = cache_field("hits")
        print(
            f"check_bench_exec: cache: compile_speedup={compile_speedup:.1f}x "
            f"hit_identical={hit_identical} "
            f"sweep_compiles={cr_cold}->{cr_warm} "
            f"sweep_verifies={vr_cold}->{vr_warm} "
            f"outcomes_identical={outcomes_identical} hits={hits}"
        )
        if compile_speedup < CACHE_COMPILE_SPEEDUP_MIN:
            failures.append(
                f"warm compile speedup {compile_speedup:.1f}x < "
                f"{CACHE_COMPILE_SPEEDUP_MIN:.0f}x floor"
            )
        if not hit_identical:
            failures.append(
                "cache hit is not bit-identical to the cold compile"
            )
        if cr_warm >= cr_cold:
            failures.append(
                f"warm sweep ran {cr_warm} compiles, not strictly fewer "
                f"than the cold sweep's {cr_cold}"
            )
        if vr_warm >= vr_cold:
            failures.append(
                f"warm sweep ran {vr_warm} verifier passes, not strictly "
                f"fewer than the cold sweep's {vr_cold}"
            )
        if not outcomes_identical:
            failures.append("warm sweep changed the outcome list")
        if hits <= 0:
            failures.append("cache served no hit during the bench")

    timeline = bench.get("timeline")
    if timeline is not None:
        sections += 1

        def tl_field(name):
            return field_of(timeline, name, "timeline field")

        plain_total = tl_field("plain_total_cycles")
        compute_share = tl_field("plain_compute_share")
        transfer_share = tl_field("plain_transfer_share")
        overlap_total = tl_field("overlap_total_cycles")
        overlap_eff = tl_field("overlap_efficiency")
        print(
            f"check_bench_exec: timeline: "
            f"plain={plain_total} overlapped={overlap_total} "
            f"compute_share={compute_share:.3f} "
            f"transfer_share={transfer_share:.3f} "
            f"overlap_efficiency={overlap_eff:.3f}"
        )
        for name, share in (
            ("plain_compute_share", compute_share),
            ("plain_transfer_share", transfer_share),
            ("overlap_efficiency", overlap_eff),
        ):
            if not 0.0 <= share <= 1.0:
                failures.append(f"timeline {name} {share} outside [0, 1]")
        if abs(compute_share + transfer_share - 1.0) > 1e-9:
            failures.append(
                f"plain-leg shares sum to {compute_share + transfer_share}, "
                "not 1.0 (no overlap means compute + transfer == total)"
            )
        if overlap_total > plain_total:
            failures.append(
                f"overlapped run took {overlap_total} cycles, more than the "
                f"plain {plain_total} on the same shape (the overlap law "
                "guarantees <=)"
            )

    if sections == 0:
        print(
            f"check_bench_exec: {path}: no known benchmark section "
            "(expected exec fields, 'cost', 'cache', or 'timeline')"
        )
        sys.exit(1)

    if failures:
        for f_ in failures:
            print(f"check_bench_exec: FAIL: {f_}")
        sys.exit(1)
    print("check_bench_exec: OK")


if __name__ == "__main__":
    main()
