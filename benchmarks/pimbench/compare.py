"""Compare two directories of pimbench runs: parent against change.

Usage::

    python3 benchmarks/pimbench/compare.py PARENT_DIR CHANGE_DIR

Both directories hold ``result-*.json`` files written by ``run.py``.
Runs of one workload are paired in the order they started; make at least
ten pairs, alternating which side runs first, each pair with one seed.
One row is printed per (workload, metric): each side's median and
quartiles, the pairs the change won (ties count for neither side), and a
verdict:

* ``gain`` — the change won at least nine tenths of at least ten pairs
  and the medians differ by more than the parent's quartile spread;
* ``unresolved`` — the parent's quartile spread is wider than the
  metric's bound, and not every change run beats every parent run
  (``better`` when every one does);
* ``REGRESSION`` — the change's median is worse than the parent's by
  more than the bound;
* ``MISMATCH`` — ``comm_cost`` or a count differs within a pair.

Exits 1 on a regression, a mismatch, a pair with two seeds, or runs whose
benchmark config hash differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
GAIN_SHARE = 0.9


def load_runs(directory: Path) -> dict[str, list[dict]]:
    """Workload -> its result records, in the order they started."""
    runs = defaultdict(list)
    for path in directory.glob("result-*.json"):
        record = json.loads(path.read_text())
        runs[record["workload"]].append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["started_at"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def change_wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs the change won; ties count for neither side."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)


def verdict(parent: list[float], change: list[float], entry: dict) -> str:
    """The row's verdict under the rule in the module docstring."""
    if entry["name"] == "comm_cost" or entry["unit"] == "count":
        return "equal" if parent == change else "MISMATCH"
    sign = 1.0 if entry["better"] == "higher" else -1.0
    wins = change_wins(parent, change, entry["better"])
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    if (
        len(parent) >= MIN_PAIRS
        and wins >= GAIN_SHARE * len(parent)
        and abs(cm - pm) > p3 - p1
    ):
        return "gain"
    bound = entry.get("bound")
    if bound is None:
        return "-"
    if pm and (p3 - p1) / abs(pm) > bound:
        if min(sign * c for c in change) > max(sign * p for p in parent):
            return "better"
        return "unresolved"
    if pm and -sign * (cm - pm) / abs(pm) > bound:
        return "REGRESSION"
    return "within bound"


def summary(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def compare(parent_dir: Path, change_dir: Path, catalogue: dict) -> int:
    parent_runs, change_runs = load_runs(parent_dir), load_runs(change_dir)
    entries = catalogue["end_to_end"] + catalogue["per_layer"]
    failed = False
    print(
        f"{'workload':<22} {'metric':<28} {'unit':<8} "
        f"{'parent median [q1, q3]':<36} {'change median [q1, q3]':<36} "
        f"{'won':<7} verdict"
    )
    for workload in sorted(set(parent_runs) | set(change_runs)):
        pairs = list(zip(parent_runs[workload], change_runs[workload]))
        runs = parent_runs[workload] + change_runs[workload]
        if len({r["config_hash"] for r in runs}) != 1:
            print(f"{workload}: runs differ in config hash", file=sys.stderr)
            failed = True
            continue
        if any(p["seed"] != c["seed"] for p, c in pairs):
            print(f"{workload}: a pair mixes two seeds", file=sys.stderr)
            failed = True
            continue
        if len(pairs) < MIN_PAIRS:
            print(
                f"{workload}: {len(pairs)} pairs; claiming a gain needs "
                f"{MIN_PAIRS}",
                file=sys.stderr,
            )
        for entry in entries:
            name = entry["name"]
            if not pairs or not all(
                name in p["metrics"] and name in c["metrics"] for p, c in pairs
            ):
                continue
            parent = [p["metrics"][name]["value"] for p, _ in pairs]
            change = [c["metrics"][name]["value"] for _, c in pairs]
            row = verdict(parent, change, entry)
            failed |= row in ("REGRESSION", "MISMATCH")
            wins = change_wins(parent, change, entry["better"])
            print(
                f"{workload:<22} {name:<28} {entry['unit']:<8} "
                f"{summary(parent):<36} {summary(change):<36} "
                f"{f'{wins}/{len(pairs)}':<7} {row}"
            )
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="directory of parent runs")
    parser.add_argument("change", type=Path, help="directory of change runs")
    args = parser.parse_args(argv)
    catalogue = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(args.parent, args.change, catalogue)


if __name__ == "__main__":
    raise SystemExit(main())
