#!/usr/bin/env python3
"""Summarize one set of benchmark results, or compare two.

    python3 benchmark/compare.py SET_A [SET_B]

A set is a directory of result files, one per run, named
<workload>.<seed>.out (for example flow-cold.3.out); the last non-empty
line of each file is the run's result line. Other files are ignored. For every workload and
metric the script prints each set's median and quartiles and the spread
(interquartile distance over the median). For end-to-end metrics it
reads the bound from BENCHMARK.json and gives a verdict:

    regression   B's median is worse than A's by more than the bound
    unresolved   a set's spread is wider than the bound, and not every
                 run of B is better than every run of A
    ok           neither of the above

With one set, a spread wider than the bound is reported as "unsteady".
The exit status is 1 when any verdict is a regression, a spread is
unsteady, or a run is not correct.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def load_set(directory):
    """{workload: [result, ...]} from every file in [directory]."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not (name.endswith(".out") and os.path.isfile(path)):
            continue
        with open(path) as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
        if not lines:
            continue
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"{path}: last line is not a result line", file=sys.stderr)
            continue
        runs.setdefault(name.split(".", 1)[0], []).append(result)
    return runs


def stats(values):
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / abs(median) if median else 0.0
    return median, q1, q3, spread


def worse_by(a, b, better):
    """How much worse b is than a, as a share of a (negative: better)."""
    if a == 0:
        return 0.0
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def values(results, metric):
    return [r["metrics"][metric]["value"] for r in results if metric in r["metrics"]]


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    sets = [load_set(d) for d in argv[1:]]
    status = 0
    for workload in sorted(set().union(*[s.keys() for s in sets])):
        print(f"== {workload}")
        for label, s in zip("AB", sets):
            results = s.get(workload, [])
            bad = [r for r in results if not r.get("correct") or r.get("failed")]
            attempted = sum(r.get("attempted", 0) for r in results)
            failed = sum(r.get("failed", 0) for r in results)
            print(
                f"   set {label}: {len(results)} runs, {attempted} operations, "
                f"{failed} failed, {len(bad)} runs not correct"
            )
            if bad:
                status = 1
        metrics = []
        for s in sets:
            for r in s.get(workload, []):
                metrics += [m for m in r["metrics"] if m not in metrics]
        for metric in metrics:
            m = spec.get(metric, {})
            bound = m.get("bound")
            per_set = [values(s.get(workload, []), metric) for s in sets]
            if not all(per_set):
                continue
            summary = [stats(v) for v in per_set]
            cells = "  ".join(
                f"{label}: {med:.6g} [{q1:.6g}, {q3:.6g}] spread {spread:.1%}"
                for label, (med, q1, q3, spread) in zip("AB", summary)
            )
            verdict = ""
            if bound is not None:
                if len(sets) == 1:
                    if summary[0][3] > bound and metric != "setup_s":
                        verdict = f"unsteady (bound {bound:.0%})"
                        status = 1
                else:
                    (a, *_), (b, *_) = summary
                    change = worse_by(a, b, m["better"])
                    better = m["better"] == "lower"
                    a_vals, b_vals = per_set
                    all_better = (
                        max(b_vals) < min(a_vals) if better else min(b_vals) > max(a_vals)
                    )
                    if change > bound:
                        verdict = f"REGRESSION {change:+.1%} (bound {bound:.0%})"
                        status = 1
                    elif max(summary[0][3], summary[1][3]) > bound and not all_better:
                        verdict = f"unresolved {change:+.1%} (bound {bound:.0%})"
                    else:
                        verdict = f"ok {change:+.1%} (bound {bound:.0%})"
            unit = m.get("unit", "")
            print(f"   {metric:<42} {unit:<7} {cells}  {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
