"""Compare two sets of benchmark results, parent against change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``--out`` files of ``run.py --trace 0`` runs, one
per (workload, seed).  For every workload and end-to-end metric of
BENCHMARK.json this prints each side's median and quartiles, the pair wins
of the change (runs paired by seed; ties count for neither side), and one
verdict:

    improved    the change wins at least 9 of 10 pairs and the medians
                differ by more than the parent's interquartile range
    unresolved  either side's spread (IQR / median) exceeds the metric's
                bound, unless every change run beats every parent run
    worse       the change's median is worse than the parent's by more
                than the bound times the parent's median
    no-worse    otherwise
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: Path) -> dict[str, dict[int, dict[str, float]]]:
    """workload -> seed -> metric -> value, from the untraced runs in directory."""
    runs: dict[str, dict[int, dict[str, float]]] = {}
    for path in sorted(directory.glob("*.json")):
        doc = json.loads(path.read_text())
        record, result = doc["record"], doc["result"]
        if record["trace"] != 0:
            continue
        values = {name: m["value"] for name, m in result["metrics"].items()}
        runs.setdefault(record["workload"], {})[record["seed"]] = values
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: dict[int, float], change: dict[int, float], bound: float, lower: bool):
    """(verdict, wins, pairs) for one metric on one workload."""

    def better(a: float, b: float) -> bool:
        return a < b if lower else a > b

    p1, pm, p3 = quartiles(list(parent.values()))
    c1, cm, c3 = quartiles(list(change.values()))
    seeds = sorted(parent.keys() & change.keys())
    wins = sum(better(change[s], parent[s]) for s in seeds)
    gain = pm - cm if lower else cm - pm  # > 0: the change is better
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    every_run_better = all(better(c, p) for c in change.values() for p in parent.values())
    if seeds and wins >= 0.9 * len(seeds) and gain > p3 - p1:
        return "improved", wins, len(seeds)
    if spread > bound and not every_run_better:
        return "unresolved", wins, len(seeds)
    if -gain > bound * abs(pm):
        return "worse", wins, len(seeds)
    return "no-worse", wins, len(seeds)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load(Path(argv[0])), load(Path(argv[1]))
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    print("workload       metric        parent median [q1, q3]          "
          "change median [q1, q3]          wins   verdict")
    for workload in sorted(parent.keys() & change.keys()):
        for metric in metrics:
            name = metric["name"]
            p = {s: v[name] for s, v in parent[workload].items() if name in v}
            c = {s: v[name] for s, v in change[workload].items() if name in v}
            if not p or not c:
                continue
            result, wins, pairs = verdict(p, c, metric["bound"], metric["better"] == "lower")
            pq, cq = quartiles(list(p.values())), quartiles(list(c.values()))
            print(
                f"{workload:14s} {name:12s}  "
                f"{pq[1]:10.4g} [{pq[0]:.4g}, {pq[2]:.4g}]".ljust(48)
                + f"{cq[1]:10.4g} [{cq[0]:.4g}, {cq[2]:.4g}]".ljust(34)
                + f"{wins:2d}/{pairs:<2d}  {result}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
