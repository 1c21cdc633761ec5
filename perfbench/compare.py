"""Rule on two result sets of the benchmark, per workload and end-to-end metric.

    python3 perfbench/compare.py parent.jsonl change.jsonl
    python3 perfbench/compare.py results.jsonl        # medians and spread of one set

Each file holds the records `run.py --results FILE` appends, one per line;
untraced records are grouped by workload and paired in the order they were
run, so run the parent and the change alternately.  Each pair of workload and
metric gets its own ruling and there is no combined score:

- improved: over at least ten pairs, the change wins at least 9/10 of
  them (ties count for neither) and the medians differ, in the better direction, by more than
  the parent's interquartile range;
- regressed: the change's median is worse than the parent's by more than
  the metric's bound in BENCHMARK.json;
- unresolved: the spread (interquartile range over median) of either side
  is wider than the bound, unless every change run reads better than every
  parent run;
- unchanged: otherwise.

Failed tasks are counted per workload for each side.  A change that fails a
larger share of its tasks than the parent is never ruled improved: the ruling
reads "more failures" instead.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    """({workload: {metric: [values in run order]}}, {workload: [failed,
    attempted]}) of the untraced records."""
    sets = defaultdict(lambda: defaultdict(list))
    tasks = defaultdict(lambda: [0, 0])
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record["provenance"]["trace"]:
                continue
            workload = record["provenance"]["workload"]
            for name, m in record["metrics"].items():
                sets[workload][name].append(m["value"])
            tasks[workload][0] += record["failed"]
            tasks[workload][1] += record["attempted"]
    return sets, tasks


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def rule(parent, change, bound, lower_is_better):
    """Return (ruling, pairs the change won, pairs)."""
    sign = 1.0 if lower_is_better else -1.0  # sign * value: smaller reads better
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * c < sign * p)
    q1, p_med, q3 = quartiles(parent)
    gain = sign * (p_med - statistics.median(change))
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain > q3 - q1:
        return "improved", wins, len(pairs)
    if -gain > bound * p_med:
        return "regressed", wins, len(pairs)
    if max(spread(parent), spread(change)) > bound and not all(
            sign * c < sign * p for c in change for p in parent):
        return "unresolved", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def main(argv):
    if len(argv) not in (1, 2):
        sys.exit(__doc__)
    spec = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    sets, tasks = zip(*(load(p) for p in argv))
    for workload in sorted(sets[0]):
        failures = [tasks[i].get(workload, [0, 0]) for i in range(len(sets))]
        print(f"{workload:17s} failed tasks: "
              + ", ".join(f"{f}/{a}" for f, a in failures))
        more_failures = len(sets) == 2 and (failures[1][0] * failures[0][1]
                                            > failures[0][0] * failures[1][1])
        for name, m in spec.items():
            parent = sets[0][workload].get(name, [])
            if not parent:
                continue
            q1, med, q3 = quartiles(parent)
            line = (f"{workload:17s} {name:12s} n={len(parent):2d} median={med:.6g} "
                    f"[{q1:.6g}, {q3:.6g}] spread={spread(parent):.3f} bound={m['bound']}")
            if len(sets) == 2:
                change = sets[1].get(workload, {}).get(name, [])
                if not change:
                    print(f"{line}  change: no runs")
                    continue
                c1, c_med, c3 = quartiles(change)
                ruling, wins, n = rule(parent, change, m["bound"], m["better"] == "lower")
                if ruling == "improved" and more_failures:
                    ruling = "more failures"
                line += (f"  change: median={c_med:.6g} [{c1:.6g}, {c3:.6g}] "
                         f"spread={spread(change):.3f} wins={wins}/{n}  {ruling}")
            print(line)


if __name__ == "__main__":
    main(sys.argv[1:])
