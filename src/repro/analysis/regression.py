"""Benchmark regression sentinel: fresh run vs tracked baseline.

``BENCH_schedulers.json`` (repo root) records scheduler costs and
timings of the paper benchmarks at a pinned config.  Because every run
is seeded, the *costs* are deterministic — any delta against the
baseline is a real behavioural change, not noise — while the *timings*
only have to stay within a configurable tolerance.  The sentinel

* re-measures the suite at the baseline's own config
  (:func:`run_bench_suite`, also the engine behind
  ``benchmarks/bench_profile.py``),
* diffs the two reports (:func:`compare_bench_reports`) into coded
  diagnostics — ``REG001`` cost regression (error), ``REG002`` timing
  regression (warning), ``REG003`` reports not comparable (error) —
* and exposes the verdict with lint-style exit codes (0 clean /
  1 warnings / 2 errors) via ``repro bench-compare`` and CI's
  perf-smoke job.

Timing medians: every ``*_s`` key keeps the historical best-of-repeats
reading (stable for trajectory diffs); the ``*_median_s`` twin carries
the median, which the no-op overhead gate uses because medians are
robust to one slow repeat on a noisy CI machine.

Instrumentation overhead: :func:`overhead_probe` is the one way the repo
times dark runs against runs under ``Instrumentation.started()`` —
alternating, with a bit-identity check on the schedules.  Both
enabled-path gates call it (``bench_profile.py
--max-telemetry-overhead-pct`` and ``repro explain --max-overhead-pct``);
the *disabled* probes keep their own ``noop_overhead`` measurement,
which no dark-vs-instrumented pair can isolate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from ..core import evaluate_schedule
from ..diagnostics import (
    REG001,
    REG002,
    REG003,
    Diagnostic,
    Severity,
    severity_exit_code,
)
from ..obs import NOOP, Instrumentation
from ..sim import replay_schedule
from ..workloads import BENCHMARK_NAMES, paper_instance

__all__ = [
    "BENCH_SCHEDULERS",
    "BenchComparison",
    "overhead_probe",
    "run_bench_suite",
    "load_bench_report",
    "compare_bench_reports",
]

#: Schedulers the bench suite times, in run order.
BENCH_SCHEDULERS = ("SCDS", "LOMCDS", "GOMCDS")

#: End-of-run counters the disabled replay probes touch (mirrors
#: ``replay_schedule``'s fault-free path).
_END_COUNTERS = (
    "sim.fetches",
    "sim.local_fetches",
    "sim.moves",
    "sim.movement_volume",
)

#: Timing keys compared by the sentinel (costs are compared separately).
_TIME_KEYS = ("scds_s", "lomcds_s", "gomcds_s", "replay_s")


def _time_repeats(fn, repeats: int) -> tuple[float, float]:
    """``(best, median)`` wall seconds of ``repeats`` calls to ``fn``."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return min(times), median(times)


def overhead_probe(run, repeats: int) -> tuple[dict, Instrumentation]:
    """What recording costs ``run``, and whether it changes the answer.

    ``run(instrument)`` returns the schedules it produced.  After one
    warm-up call per side, dark (``None``) and instrumented
    (``Instrumentation.started()``) calls alternate ``repeats`` times
    each, so machine drift lands on both sides alike.  Returns the report
    — both medians, ``overhead_pct`` (median over median) and
    ``bit_identical`` (every instrumented call gave as many schedules as
    the dark warm-up, with equal centers) — and the session of the last
    instrumented call.
    """
    baseline = run(None)

    def same(schedules) -> bool:
        return len(schedules) == len(baseline) and all(
            np.array_equal(a.centers, b.centers)
            for a, b in zip(baseline, schedules)
        )

    session = Instrumentation.started()
    identical = same(run(session))
    dark, traced = [], []
    for _ in range(repeats):
        t0 = perf_counter()
        run(None)
        dark.append(perf_counter() - t0)
        session = Instrumentation.started()
        t0 = perf_counter()
        schedules = run(session)
        traced.append(perf_counter() - t0)
        identical = identical and same(schedules)
    dark_med, traced_med = median(dark), median(traced)
    report = {
        "repeats": repeats,
        "dark_median_s": dark_med,
        "instrumented_median_s": traced_med,
        "overhead_pct": 100.0 * (traced_med - dark_med) / dark_med,
        "bit_identical": identical,
    }
    return report, session


def _noop_probe_seconds(n_windows: int, repeats: int) -> tuple[float, float]:
    """Wall time of the disabled probes a replay of ``n_windows`` runs."""

    def probes():
        obs = NOOP
        with obs.span("sim.replay", n_windows=n_windows, faults=False):
            for w in range(n_windows):
                with obs.span("sim.window", window=w) as span:
                    if obs.enabled:  # pragma: no cover - disabled by design
                        span.set(window=w)
            for name in _END_COUNTERS:
                obs.count(name, 0.0)

    return _time_repeats(probes, repeats)


def run_bench_suite(
    mesh: tuple[int, int] = (4, 4),
    size: int = 16,
    benchmarks: tuple[int, ...] = (1, 2, 3, 4, 5),
    repeats: int = 3,
    seed: int = 1998,
) -> dict:
    """Time scheduling + replay on the paper benchmarks; return the report.

    The report dict is the schema of ``BENCH_schedulers.json``: a
    ``config`` block (so a comparison can verify like-for-like), one
    ``results`` row per benchmark (costs, best-of and median timings,
    no-op probe overhead) and a suite-level ``noop_overhead`` block whose
    ``overhead_pct`` is computed from *medians*.  The comparator ignores
    unknown top-level keys, so older baselines stay valid.
    """
    results = []
    replay_medians = []
    probe_medians = []
    for bench in benchmarks:
        instance = paper_instance(bench, size, mesh, seed)
        tensor, model = instance.tensor, instance.model
        row = {
            "benchmark": bench,
            "name": BENCHMARK_NAMES[bench],
            "n_data": instance.workload.n_data,
            "n_windows": tensor.n_windows,
        }
        last = None
        for name in BENCH_SCHEDULERS:
            last = instance.solve(name)  # warm
            best, med = _time_repeats(
                lambda n=name: instance.solve(n), repeats
            )
            row[f"{name.lower()}_s"] = best
            row[f"{name.lower()}_median_s"] = med
            row[f"{name.lower()}_cost"] = evaluate_schedule(
                last, tensor, model
            ).total
        replay_s, replay_med = _time_repeats(
            lambda s=last: replay_schedule(
                instance.workload.trace, s, model, capacity=instance.capacity
            ),
            repeats,
        )
        probe_s, probe_med = _noop_probe_seconds(tensor.n_windows, repeats)
        row["replay_s"] = replay_s
        row["replay_median_s"] = replay_med
        row["noop_probe_s"] = probe_s
        row["noop_probe_median_s"] = probe_med
        row["noop_overhead_pct"] = 100.0 * probe_med / replay_med
        results.append(row)
        replay_medians.append(replay_med)
        probe_medians.append(probe_med)

    overhead_pct = 100.0 * sum(probe_medians) / sum(replay_medians)
    return {
        "config": {
            "mesh": list(mesh),
            "size": size,
            "benchmarks": list(benchmarks),
            "repeats": repeats,
            "seed": seed,
            "schedulers": list(BENCH_SCHEDULERS),
        },
        "results": results,
        "noop_overhead": {
            "replay_s": sum(replay_medians),
            "probe_s": sum(probe_medians),
            "overhead_pct": overhead_pct,
        },
    }


def load_bench_report(path: str | Path) -> dict:
    """Read a bench report JSON file (schema of ``BENCH_schedulers.json``)."""
    try:
        report = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read bench report {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not a bench report ({exc})") from exc
    for key in ("config", "results"):
        if key not in report:
            raise ValueError(
                f"{path}: not a bench report (missing {key!r} section)"
            )
    return report


@dataclass
class BenchComparison:
    """Verdict of one baseline-vs-fresh benchmark diff."""

    baseline_label: str
    fresh_label: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: rows compared (one per benchmark present in both reports)
    n_rows: int = 0
    #: per-scheduler cost deltas actually observed (empty when clean)
    cost_deltas: list[dict] = field(default_factory=list)
    #: timing rows: every compared key with base/fresh seconds and verdict
    time_rows: list[dict] = field(default_factory=list)
    time_tolerance_pct: float = 50.0
    min_time_delta_s: float = 0.05

    @property
    def exit_code(self) -> int:
        """Lint-style gate: 0 clean, 1 warnings only, 2 any error."""
        return severity_exit_code(self.diagnostics)

    @property
    def is_clean(self) -> bool:
        return not self.diagnostics

    def to_dict(self) -> dict:
        return {
            "kind": "bench_comparison",
            "baseline": self.baseline_label,
            "fresh": self.fresh_label,
            "n_rows": self.n_rows,
            "time_tolerance_pct": self.time_tolerance_pct,
            "min_time_delta_s": self.min_time_delta_s,
            "cost_deltas": list(self.cost_deltas),
            "time_rows": list(self.time_rows),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "exit_code": self.exit_code,
        }

    def summary(self) -> str:
        if self.is_clean:
            return (
                f"bench-compare: OK — {self.n_rows} rows match "
                f"{self.baseline_label} (costs exact, timings within "
                f"{self.time_tolerance_pct:g}%)"
            )
        n_err = sum(
            1 for d in self.diagnostics if d.severity >= Severity.ERROR
        )
        n_warn = len(self.diagnostics) - n_err
        return (
            f"bench-compare: {n_err} error(s), {n_warn} warning(s) against "
            f"{self.baseline_label}"
        )

    def render(self) -> str:
        """Human report: verdict line, timing table, then diagnostics."""
        lines = [self.summary()]
        if self.time_rows:
            lines.append(
                f"  {'benchmark':<12} {'key':<12} {'base s':>10} "
                f"{'fresh s':>10} {'delta':>8}"
            )
            for row in self.time_rows:
                delta = row["fresh_s"] - row["base_s"]
                flag = " <-- slow" if row["regressed"] else ""
                lines.append(
                    f"  {row['benchmark']:<12} {row['key']:<12} "
                    f"{row['base_s']:>10.4f} {row['fresh_s']:>10.4f} "
                    f"{delta:>+8.4f}{flag}"
                )
        for diag in self.diagnostics:
            lines.append(diag.render())
        return "\n".join(lines)


def _comparable(baseline: dict, fresh: dict) -> list[Diagnostic]:
    """REG003 diagnostics for any config drift between the two reports."""
    diags = []
    base_cfg, fresh_cfg = baseline.get("config", {}), fresh.get("config", {})
    # repeats only changes noise, not what was measured; everything else
    # in the config defines the experiment.
    for key in ("mesh", "size", "benchmarks", "seed", "schedulers"):
        if base_cfg.get(key) != fresh_cfg.get(key):
            diags.append(
                Diagnostic(
                    code=REG003,
                    severity=Severity.ERROR,
                    message=(
                        f"reports are not comparable: config {key!r} differs "
                        f"(baseline {base_cfg.get(key)!r}, "
                        f"fresh {fresh_cfg.get(key)!r})"
                    ),
                    hint=(
                        "re-run the fresh suite at the baseline config, or "
                        "refresh the baseline (see README)"
                    ),
                )
            )
    return diags


def compare_bench_reports(
    baseline: dict,
    fresh: dict,
    time_tolerance_pct: float = 50.0,
    min_time_delta_s: float = 0.05,
    baseline_label: str = "baseline",
    fresh_label: str = "fresh",
) -> BenchComparison:
    """Diff two bench reports into a :class:`BenchComparison`.

    Costs must match *exactly* (seeded determinism makes any delta a real
    regression — ``REG001`` error); a timing key regresses (``REG002``
    warning) when the fresh reading exceeds the baseline by more than
    ``max(base * time_tolerance_pct/100, min_time_delta_s)`` — the floor
    keeps microsecond-scale rows from tripping on scheduler jitter.
    Config drift or missing rows yield ``REG003`` errors.
    """
    comparison = BenchComparison(
        baseline_label=baseline_label,
        fresh_label=fresh_label,
        time_tolerance_pct=time_tolerance_pct,
        min_time_delta_s=min_time_delta_s,
    )
    comparison.diagnostics.extend(_comparable(baseline, fresh))
    if comparison.diagnostics:
        return comparison

    fresh_rows = {row["benchmark"]: row for row in fresh.get("results", [])}
    schedulers = baseline["config"].get("schedulers", list(BENCH_SCHEDULERS))
    for base_row in baseline.get("results", []):
        bench = base_row["benchmark"]
        fresh_row = fresh_rows.get(bench)
        if fresh_row is None:
            comparison.diagnostics.append(
                Diagnostic(
                    code=REG003,
                    severity=Severity.ERROR,
                    message=(
                        f"benchmark {bench} ({base_row.get('name', '?')}) is "
                        "in the baseline but missing from the fresh report"
                    ),
                )
            )
            continue
        comparison.n_rows += 1
        name = base_row.get("name", str(bench))
        for sched in schedulers:
            key = f"{sched.lower()}_cost"
            base_cost = base_row.get(key)
            fresh_cost = fresh_row.get(key)
            if base_cost is None or fresh_cost is None:
                continue
            if fresh_cost != base_cost:
                comparison.cost_deltas.append(
                    {
                        "benchmark": name,
                        "scheduler": sched,
                        "base_cost": base_cost,
                        "fresh_cost": fresh_cost,
                    }
                )
                comparison.diagnostics.append(
                    Diagnostic(
                        code=REG001,
                        severity=Severity.ERROR,
                        message=(
                            f"{sched} cost on {name} changed: baseline "
                            f"{base_cost:g}, fresh {fresh_cost:g} (seeded "
                            "runs must match exactly)"
                        ),
                        hint=(
                            "a scheduler behaviour change; refresh the "
                            "baseline only if the change is intended"
                        ),
                    )
                )
        for key in _TIME_KEYS:
            base_s = base_row.get(key)
            fresh_s = fresh_row.get(key)
            if base_s is None or fresh_s is None:
                continue
            budget = max(base_s * time_tolerance_pct / 100.0, min_time_delta_s)
            regressed = fresh_s - base_s > budget
            comparison.time_rows.append(
                {
                    "benchmark": name,
                    "key": key,
                    "base_s": float(base_s),
                    "fresh_s": float(fresh_s),
                    "regressed": regressed,
                }
            )
            if regressed:
                comparison.diagnostics.append(
                    Diagnostic(
                        code=REG002,
                        severity=Severity.WARNING,
                        message=(
                            f"{key} on {name} slowed beyond tolerance: "
                            f"baseline {base_s:.4f}s, fresh {fresh_s:.4f}s "
                            f"(budget +{budget:.4f}s)"
                        ),
                        hint=(
                            "timing noise is tolerated up to "
                            f"{time_tolerance_pct:g}%; persistent excess "
                            "means a real slowdown"
                        ),
                    )
                )
    return comparison
