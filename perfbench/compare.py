"""Compare two result sets of run records, per workload and metric.

A result set is a directory of the JSON run records that ``run.py``
writes to ``perfbench/out/runs/``; measure the parent commit and the
change with the same benchmark code and settings, alternating which side
runs first, and copy each side's records into its own directory.

Runs are paired by seed (in order of occurrence when a seed repeats);
runs left unmatched are paired in the order they were made.  For each
workload and metric the report gives each side's median and quartiles,
the share of pairs the change wins (ties count for neither side) and a
verdict:

* ``improved``   the change wins at least 9 of 10 pairs, over at least 10
                 pairs, and its median is better than the parent's by more
                 than the parent's interquartile range;
* ``worse``      the change's median is worse by more than the metric's
                 bound, or the change loses at least 9 of 10 pairs and its
                 median is worse by more than the parent's interquartile
                 range;
* ``unresolved`` neither of those, and either fewer than 10 pairs were run
                 or the parent's spread is wider than the bound while not
                 every change run beats every parent run;
* ``unchanged``  otherwise.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory) -> list[dict]:
    runs = [json.loads(path.read_text()) for path in sorted(Path(directory).glob("*.json"))]
    if not runs:
        raise SystemExit(f"no run records in {directory}")
    return sorted(runs, key=lambda run: run["started"])


def _series(runs):
    values = defaultdict(list)  # (workload, metric) -> [(seed, value)]
    info = {}
    for run in runs:
        for name, metric in run["metrics"].items():
            values[(run["workload"], name)].append((run["seed"], metric["value"]))
            info[name] = (metric["unit"], metric.get("better"))
    return values, info


def _pairs(parent, change):
    waiting = defaultdict(list)
    for seed, value in change:
        waiting[seed].append(value)
    pairs, unmatched = [], []
    for seed, value in parent:
        if waiting[seed]:
            pairs.append((value, waiting[seed].pop(0)))
        else:
            unmatched.append(value)
    pairs.extend(zip(unmatched, [v for vs in waiting.values() for v in vs]))
    return pairs


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, pairs, better, bound) -> tuple[str, float]:
    """Verdict and the change's win share; ``better`` is 'higher' or
    'lower' (see the module docstring)."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) < 0 for p, c in pairs)
    share = wins / len(pairs) if pairs else 0.0
    q1, med_p, q3 = _quartiles(parent)
    gain = sign * (statistics.median(change) - med_p)
    iqr = q3 - q1
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and gain > iqr:
        return "improved", share
    if bound is not None and -gain > bound * abs(med_p):
        return "worse", share
    if pairs and losses >= WIN_SHARE * len(pairs) and -gain > iqr:
        return "worse", share
    every_change_better = min(sign * c for c in change) > max(sign * p for p in parent)
    too_wide = bound is not None and iqr > bound * abs(med_p)
    if len(pairs) < MIN_PAIRS or (too_wide and not every_change_better):
        return "unresolved", share
    return "unchanged", share


def compare(parent_dir, change_dir, bounds: dict) -> int:
    parent_values, info = _series(load(parent_dir))
    change_values, change_info = _series(load(change_dir))
    info.update(change_info)
    header = f"{'workload':<12} {'metric':<36} {'parent q1/med/q3':>32} {'change q1/med/q3':>32} {'wins':>6}  verdict"
    print(header)
    for key in sorted(set(parent_values) & set(change_values)):
        workload, name = key
        unit, better = info[name]
        parent = [v for _, v in parent_values[key]]
        change = [v for _, v in change_values[key]]
        pairs = _pairs(parent_values[key], change_values[key])
        result, share = verdict(parent, change, pairs, better, bounds.get(name))
        fmt = "/".join(f"{v:.4g}" for v in _quartiles(parent))
        fmt_c = "/".join(f"{v:.4g}" for v in _quartiles(change))
        print(f"{workload:<12} {name:<36} {fmt + ' ' + unit:>32} {fmt_c + ' ' + unit:>32} {share:>6.0%}  "
              f"{result} ({len(pairs)} pairs)")
    return 0
