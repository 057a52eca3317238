"""Compare two sets of benchmark runs, per workload and end-to-end metric.

``python3 perfbench/run.py --compare BASE.jsonl CHANGE.jsonl`` reads the run
records two sets of runs appended (untraced runs only) and prints, for each
workload and metric, both sides' median and quartiles and a verdict:

* ``better`` — the change wins at least nine tenths of the runs paired by
  seed, and the medians differ by more than the base's quartile distance;
* ``worse`` — the change's median is worse than the base's by more than the
  metric's bound in ``BENCHMARK.json``;
* ``unresolved`` — either side's quartile distance exceeds the bound as a
  share of its median, and not every change run beats (or loses to) every
  base run;
* ``unchanged`` — otherwise.

The exit code is 1 when any verdict is ``worse``.  ``--spread FILE``
prints each (workload, metric)'s quartile distance as a share of its
median, next to the metric's bound.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

from summary import quartiles, spread

VERDICT_ORDER = ("better", "unchanged", "unresolved", "worse")


def load(path: str) -> Dict[str, List[dict]]:
    """Untraced run records of one file, grouped by workload."""
    runs: Dict[str, List[dict]] = defaultdict(list)
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            if not record.get("trace"):
                runs[record["workload"]].append(record)
    return runs


def _pairs(base: List[dict], change: List[dict], name: str) -> List[Tuple[float, float]]:
    by_seed: Dict[int, List[float]] = defaultdict(list)
    for record in base:
        by_seed[record["seed"]].append(record["metrics"][name]["value"])
    pairs = []
    for record in change:
        queue = by_seed.get(record["seed"])
        if queue:
            pairs.append((queue.pop(0), record["metrics"][name]["value"]))
    return pairs


def verdict(base: List[float], change: List[float], pairs, bound: float, lower: bool) -> str:
    """The verdict for one (workload, metric), as described in the module doc."""
    def improves(new: float, old: float) -> bool:
        return new < old if lower else new > old

    q1_base, median_base, q3_base = quartiles(base)
    median_change = quartiles(change)[1]
    wins = sum(1 for old, new in pairs if improves(new, old))
    if (
        pairs
        and wins >= 0.9 * len(pairs)
        and improves(median_change, median_base)
        and abs(median_change - median_base) > q3_base - q1_base
    ):
        return "better"
    if max(spread(base), spread(change)) > bound:
        if all(improves(new, old) for new in change for old in base):
            return "better"
        if all(improves(old, new) for new in change for old in base):
            return "worse"
        return "unresolved"
    worsening = (median_change - median_base) / median_base
    if not lower:
        worsening = -worsening
    return "worse" if worsening > bound else "unchanged"


def main(base_path: str, change_path: str, spec_path: Path) -> int:
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    base_runs, change_runs = load(base_path), load(change_path)
    worst = "better"
    header = f"{'workload':<16} {'metric':<14} {'base median [q1, q3] n':<34} {'change median [q1, q3] n':<34} verdict"
    print(header)
    for workload in sorted(set(base_runs) & set(change_runs)):
        for entry in spec["end_to_end"]:
            name = entry["name"]
            base = [record["metrics"][name]["value"] for record in base_runs[workload]]
            change = [record["metrics"][name]["value"] for record in change_runs[workload]]
            result = verdict(
                base,
                change,
                _pairs(base_runs[workload], change_runs[workload], name),
                entry["bound"],
                entry["better"] == "lower",
            )
            if VERDICT_ORDER.index(result) > VERDICT_ORDER.index(worst):
                worst = result
            cells = []
            for values in (base, change):
                q1, median, q3 = quartiles(values)
                cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}] {len(values)}")
            print(f"{workload:<16} {name:<14} {cells[0]:<34} {cells[1]:<34} {result}")
    only = sorted(set(base_runs) ^ set(change_runs))
    if only:
        print(f"workloads in only one set: {', '.join(only)}")
    return 1 if worst == "worse" else 0


def spread_main(path: str, spec_path: Path) -> int:
    """Print the run-to-run spread of every end-to-end metric in one file."""
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    runs = load(path)
    print(f"{'workload':<16} {'metric':<14} {'median':>10} {'spread':>8} {'bound':>6} n")
    for workload in sorted(runs):
        for entry in spec["end_to_end"]:
            values = [record["metrics"][entry["name"]]["value"] for record in runs[workload]]
            print(
                f"{workload:<16} {entry['name']:<14} {quartiles(values)[1]:>10.4g} "
                f"{spread(values):>8.3f} {entry['bound']:>6} {len(values)}"
            )
    return 0
