"""The ``repro explain`` runner: decision provenance, end to end.

``explain_workload`` solves one paper benchmark under a provenance-
recording session (:mod:`repro.obs.provenance`), audits the resulting
:class:`~repro.obs.provenance.DecisionLog` against the certifier
(:func:`repro.verify.check_provenance_log` — ``VER012`` on divergence)
and packages everything the CLI renders: per-window decision tables,
per-datum timelines, counterfactual "second-best" deltas, JSON/JSONL
export, and a diff of two exported runs (``repro explain --diff A B``,
e.g. a fault-free solve against a faulted reschedule).

``measure_overhead`` is the perf face: it times dark solves against
solves under a recording-but-provenance-off session, so CI can gate
that the provenance instrumentation added to the scheduler hot paths
stays within the probe-overhead budget when nobody asked for it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from ..core import CostModel, evaluate_schedule, scheduler_spec
from ..core.reschedule import reschedule_around_faults
from ..faults import FaultPlan, NodeFault
from ..grid import Mesh2D
from ..mem import CapacityPlan
from ..obs import Instrumentation
from ..verify import check_provenance_log
from ..workloads import BENCHMARK_NAMES, benchmark as make_benchmark

__all__ = [
    "ExplainResult",
    "explain_solve",
    "explain_workload",
    "explain_records",
    "render_explain_human",
    "load_explain_records",
    "diff_explain_records",
    "render_explain_diff",
    "measure_overhead",
]


@dataclass
class ExplainResult:
    """One explained solve: the log plus its independent ground truth."""

    workload: str
    scheduler: str
    kernel: str
    log: object  #: the DecisionLog
    schedule: object
    breakdown: object  #: evaluate_schedule() ground truth
    instrument: Instrumentation
    diagnostics: list = field(default_factory=list)  #: VER012 findings

    @property
    def attribution_exact(self) -> bool:
        """The load-bearing invariant: attributed == evaluated, bit for bit."""
        claimed = self.log.attribution()
        return (
            claimed.reference_cost == self.breakdown.reference_cost
            and claimed.movement_cost == self.breakdown.movement_cost
            and claimed.total == self.breakdown.total
        )


def explain_solve(
    bench: int = 1,
    size: int = 16,
    mesh: tuple[int, int] = (4, 4),
    seed: int = 1998,
    scheduler: str = "GOMCDS",
    kernel: str = "numpy",
    capacity_multiplier: float = 2.0,
    fail_node: int | None = None,
    fail_window: int = 0,
):
    """The solve ``repro explain``'s flags name, ready to run.

    Returns ``(solve, tensor, model, label, method)`` where
    ``solve(instrument)`` runs the scheduler on the benchmark instance.
    ``fail_node`` switches to the fault-aware rescheduler
    (:func:`repro.core.reschedule.reschedule_around_faults`) with that
    processor down from window ``fail_window`` on.  Both
    :func:`explain_workload` and :func:`measure_overhead` run this call,
    so the overhead gate times exactly the solve being explained.
    """
    if bench not in BENCHMARK_NAMES:
        known = ", ".join(str(b) for b in sorted(BENCHMARK_NAMES))
        raise ValueError(f"unknown benchmark {bench!r}; known: {known}")
    topology = Mesh2D(*mesh)
    workload = make_benchmark(bench, size, topology, seed=seed)
    tensor = workload.reference_tensor()
    model = CostModel(workload.topology)
    capacity = CapacityPlan.paper_rule(
        workload.n_data, workload.topology.n_procs, capacity_multiplier
    )
    name = f"bench{bench}:{BENCHMARK_NAMES[bench]}"

    if fail_node is not None:
        plan = FaultPlan(
            node_faults=(NodeFault(pid=fail_node, start=fail_window),)
        )

        def solve(instrument):
            return reschedule_around_faults(
                tensor, model, plan, capacity, kernel=kernel,
                instrument=instrument,
            )

        label = f"{name} (node {fail_node} down from w{fail_window})"
        return solve, tensor, model, label, "GOMCDS+faults"

    spec = scheduler_spec(scheduler)
    options = {"kernel": kernel} if "kernel" in spec.supported_kwargs else {}

    def solve(instrument):
        return spec(tensor, model, capacity, instrument=instrument, **options)

    return solve, tensor, model, name, spec.name


def explain_workload(
    bench: int = 1,
    size: int = 16,
    mesh: tuple[int, int] = (4, 4),
    seed: int = 1998,
    scheduler: str = "GOMCDS",
    kernel: str = "numpy",
    capacity_multiplier: float = 2.0,
    fail_node: int | None = None,
    fail_window: int = 0,
    check: bool = True,
) -> ExplainResult:
    """Solve one benchmark with provenance on and audit the log.

    The instance and solve come from :func:`explain_solve` (same
    arguments); a faulted reschedule and its fault-free solve are the
    natural "A" and "B" inputs for ``repro explain --diff``.
    """
    solve, tensor, model, label, method = explain_solve(
        bench=bench, size=size, mesh=mesh, seed=seed, scheduler=scheduler,
        kernel=kernel, capacity_multiplier=capacity_multiplier,
        fail_node=fail_node, fail_window=fail_window,
    )
    instr = Instrumentation.started(provenance=True)
    solved = solve(instr)

    if not instr.provenance.logs:  # pragma: no cover - recording contract
        raise RuntimeError(f"{method} recorded no decision log under provenance")
    log = instr.provenance.logs[-1]
    log.label = label
    log.meta.setdefault("benchmark", bench)
    log.meta.setdefault("size", size)
    log.meta.setdefault("seed", seed)

    breakdown = evaluate_schedule(solved, tensor, model)
    diagnostics = (
        list(check_provenance_log(log, solved, tensor, model)) if check else []
    )
    return ExplainResult(
        workload=label,
        scheduler=method,
        kernel=log.kernel,
        log=log,
        schedule=solved,
        breakdown=breakdown,
        instrument=instr,
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# Export + rendering
# ---------------------------------------------------------------------------


def explain_records(result: ExplainResult, data=None, windows=None):
    """JSONL record stream: header, decisions, audit verdict."""
    yield from result.log.to_records(data=data, windows=windows)
    yield {
        "type": "audit",
        "attribution_exact": result.attribution_exact,
        "evaluated_total": result.breakdown.total,
        "attributed_total": result.log.attribution().total,
        "diagnostics": [d.to_dict() for d in result.diagnostics],
    }


def _fmt_delta(value: float) -> str:
    return "—" if not np.isfinite(value) else f"+{value:g}"


def _window_table(log, w: int, top: int | None) -> list[str]:
    """One window's decisions as fixed-width rows, costliest moves first."""
    order = sorted(
        range(log.n_data),
        key=lambda d: (-float(log.move_hops[d, w] * log.volumes[d]), d),
    )
    if top is not None:
        order = order[:top]
    lines = [
        f"  window {w}:",
        "    datum  center  action  ref_cost  move_cost  2nd-best  delta",
    ]
    for d in order:
        cell = log.decision(d, w)
        runner = "—" if cell["runner_up"] < 0 else str(cell["runner_up"])
        flags = "".join(
            flag for flag, on in (("*", cell["tie"]), ("!", cell["forced"])) if on
        )
        lines.append(
            f"    {d:>5}  {cell['center']:>6}  {cell['action']:<6}  "
            f"{cell['ref_cost']:>8g}  {cell['move_cost']:>9g}  "
            f"{runner:>8}  {_fmt_delta(cell['runner_up_delta'])}{flags}"
        )
    return lines


def _datum_timeline(log, d: int) -> list[str]:
    lines = [f"  datum {d} (volume {log.volumes[d]:g}):"]
    for seg in log.timeline(d):
        span = (
            f"w{seg['first_window']}"
            if seg["first_window"] == seg["last_window"]
            else f"w{seg['first_window']}-w{seg['last_window']}"
        )
        note = ""
        if seg["runner_up"] >= 0:
            note = (
                f"  (2nd-best p{seg['runner_up']} "
                f"{_fmt_delta(seg['runner_up_delta'])})"
            )
        if seg["tie"]:
            note += " [tie→lowest pid]"
        if seg["forced"]:
            note += " [forced]"
        lines.append(
            f"    {span:<9} {seg['action']:<6} @ p{seg['center']:<3} "
            f"ref {seg['ref_cost']:g}, move {seg['move_cost']:g}{note}"
        )
    return lines


def render_explain_human(
    result: ExplainResult,
    datum: int | None = None,
    window: int | None = None,
    top: int | None = 10,
) -> str:
    """Human rendering: summary, audit verdict, tables, timelines.

    ``datum`` narrows to one datum's timeline, ``window`` to one
    window's decision table; with neither, every window is tabulated
    (``top`` costliest movers per window) followed by every timeline.
    """
    log = result.log
    lines = [f"explain: {result.workload}", f"  {log.summary()}"]
    claimed = log.attribution()
    lines.append(f"  attributed {claimed.summary()}")
    lines.append(f"  evaluated  {result.breakdown.summary()}")
    verdict = "exact (bit-identical)" if result.attribution_exact else "DIVERGED"
    lines.append(f"  attribution: {verdict}")
    for diag in result.diagnostics:
        lines.append(f"  {diag.render()}")
    if window is not None:
        lines.extend(_window_table(log, window, top=None))
    if datum is not None:
        lines.extend(_datum_timeline(log, datum))
    if window is None and datum is None:
        lines.append("decisions (per window, costliest moves first):")
        for w in range(log.n_windows):
            lines.extend(_window_table(log, w, top))
        lines.append("timelines (per datum):")
        for d in range(log.n_data):
            lines.extend(_datum_timeline(log, d))
    lines.append("legend: * tie (lowest pid wins), ! forced (argmin inadmissible)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Diff of two exported runs
# ---------------------------------------------------------------------------


def load_explain_records(path) -> dict:
    """Parse a ``repro explain`` JSONL export into header/cells/audit."""
    header = None
    audit = None
    cells: dict[tuple[int, int], dict] = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        kind = rec.get("type")
        if kind == "provenance":
            header = rec
        elif kind == "decision":
            cells[(int(rec["datum"]), int(rec["window"]))] = rec
        elif kind == "audit":
            audit = rec
    if header is None:
        raise ValueError(f"{path}: no provenance header record")
    return {"header": header, "cells": cells, "audit": audit}


def diff_explain_records(a: dict, b: dict) -> dict:
    """Structural diff of two parsed exports: where did decisions change?

    Compares the decision cells the two runs share (plus totals from
    the headers) and returns changed placements/actions — the answer to
    "what did the fault make the scheduler do differently?".
    """
    ha, hb = a["header"], b["header"]
    changed = []
    for key in sorted(set(a["cells"]) & set(b["cells"])):
        ca, cb = a["cells"][key], b["cells"][key]
        if ca["center"] == cb["center"] and ca["action"] == cb["action"]:
            continue
        changed.append(
            {
                "datum": key[0],
                "window": key[1],
                "a": {"center": ca["center"], "action": ca["action"]},
                "b": {"center": cb["center"], "action": cb["action"]},
                "move_cost_delta": cb["move_cost"] - ca["move_cost"],
                "ref_cost_delta": cb["ref_cost"] - ca["ref_cost"],
            }
        )
    only_a = sorted(set(a["cells"]) - set(b["cells"]))
    only_b = sorted(set(b["cells"]) - set(a["cells"]))
    return {
        "a": {"label": ha.get("label"), "total": ha["attributed_total"]},
        "b": {"label": hb.get("label"), "total": hb["attributed_total"]},
        "total_delta": hb["attributed_total"] - ha["attributed_total"],
        "n_shared": len(set(a["cells"]) & set(b["cells"])),
        "n_changed": len(changed),
        "changed": changed,
        "only_a": [list(k) for k in only_a],
        "only_b": [list(k) for k in only_b],
    }


def render_explain_diff(diff: dict, top: int | None = 20) -> str:
    lines = [
        f"explain diff: A = {diff['a']['label']!r} (total {diff['a']['total']:g})",
        f"              B = {diff['b']['label']!r} (total {diff['b']['total']:g})",
        f"  total delta (B - A): {diff['total_delta']:+g}",
        f"  {diff['n_changed']} of {diff['n_shared']} shared decisions changed",
    ]
    shown = diff["changed"] if top is None else diff["changed"][:top]
    for rec in shown:
        lines.append(
            f"    d{rec['datum']} w{rec['window']}: "
            f"p{rec['a']['center']} {rec['a']['action']} -> "
            f"p{rec['b']['center']} {rec['b']['action']} "
            f"(ref {rec['ref_cost_delta']:+g}, move {rec['move_cost_delta']:+g})"
        )
    if top is not None and len(diff["changed"]) > top:
        lines.append(f"    ... {len(diff['changed']) - top} more")
    if diff["only_a"] or diff["only_b"]:
        lines.append(
            f"  cells only in A: {len(diff['only_a'])}, "
            f"only in B: {len(diff['only_b'])} (different shapes)"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Overhead gate
# ---------------------------------------------------------------------------


def measure_overhead(solve, repeats: int = 5, inner: int = 3) -> dict:
    """Median time of ``solve(instrument)``, dark vs recording-with-
    provenance-off (``solve`` as returned by :func:`explain_solve`).

    The contract under test: a session that records spans but did *not*
    opt into provenance pays only one attribute read per solve for the
    provenance plumbing.  Each repeat times ``inner`` back-to-back
    solves; medians over ``repeats`` keep one noisy measurement from
    failing a CI gate.
    """

    def timed(instrument) -> float:
        start = perf_counter()
        for _ in range(inner):
            solve(instrument)
        return (perf_counter() - start) / inner

    solve(None)  # warm caches before timing
    dark, recorded = [], []
    for _ in range(repeats):
        dark.append(timed(None))
        recorded.append(timed(Instrumentation.started(provenance=False)))
    dark_us = median(dark) * 1e6
    recorded_us = median(recorded) * 1e6
    overhead = (recorded_us - dark_us) / dark_us * 100.0 if dark_us else 0.0
    return {
        "repeats": repeats,
        "dark_median_us": dark_us,
        "recorded_median_us": recorded_us,
        "overhead_pct": overhead,
    }
