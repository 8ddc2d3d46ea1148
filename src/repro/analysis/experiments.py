"""The paper's experiments, regenerated end to end.

Every public function here reproduces one table or figure of the paper
(or one of the DESIGN.md ablations) and returns structured results that
the CLI renders and the benchmark harness times.  Parameters default to
the paper's setup: a 4x4 processor array, data sizes 8x8 / 16x16 / 32x32,
per-processor memory twice the balanced minimum, and the row-wise
straight-forward distribution as the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..api import schedule
from ..core import (
    CostModel,
    Schedule,
    evaluate_schedule,
    grouped_schedule,
    priced_gomcds,
)
from ..distrib import baseline_schedule
from ..engine import ScheduleRequest, SolveCache, schedule_many
from ..grid import Mesh2D
from ..mem import CapacityPlan
from ..trace import ReferenceTensor, build_reference_tensor
from ..workloads import (
    BENCHMARK_NAMES,
    PaperInstance,
    benchmark,
    paper_instance,
    trace_from_counts,
)
from ..workloads.paper import instance_of
from .tables import SchedulerResult, Table, TableRow, percent_improvement

__all__ = [
    "DEFAULT_SIZES",
    "DEFAULT_BENCHMARKS",
    "figure1_instance",
    "run_figure1",
    "run_table1",
    "run_table2",
    "run_extended_table",
    "ablation_window_size",
    "ablation_array_size",
    "ablation_memory_pressure",
    "ablation_grouping_strategy",
    "ablation_partition_schemes",
    "ablation_online_lookahead",
    "ablation_replication",
    "ablation_refinement",
    "ablation_window_segmentation",
    "ablation_static_optimality",
    "seed_sensitivity",
    "ablation_movement_budget",
]

DEFAULT_SIZES = (8, 16, 32)
DEFAULT_BENCHMARKS = (1, 2, 3, 4, 5)
SCHEDULER_NAMES = ("SCDS", "LOMCDS", "GOMCDS")


def _result(
    name: str, schedule: Schedule, tensor: ReferenceTensor, model: CostModel, sf: float
) -> SchedulerResult:
    breakdown = evaluate_schedule(schedule, tensor, model)
    return SchedulerResult(
        name=name,
        cost=breakdown.total,
        improvement=percent_improvement(sf, breakdown.total),
        reference_cost=breakdown.reference_cost,
        movement_cost=breakdown.movement_cost,
        n_movements=schedule.n_movements(),
    )


# ---------------------------------------------------------------------------
# Figure 1 / §3.3 worked example
# ---------------------------------------------------------------------------


def figure1_instance() -> tuple[ReferenceTensor, CostModel, Mesh2D]:
    """The reconstructed Figure 1 instance: one datum, 4x4 array, 4 windows.

    The OCR of the paper lost the original reference counts, so this
    instance is a faithful reconstruction of the *setup*: four execution
    windows whose reference loci jump across the array (left edge, right
    edge, left edge again, then center-south), which is exactly the
    pattern the paper's example uses to separate the three schedulers.
    """
    topo = Mesh2D(4, 4)
    counts = np.zeros((1, 4, topo.n_procs), dtype=np.int64)

    def put(w: int, r: int, c: int, k: int) -> None:
        counts[0, w, topo.pid(r, c)] = k

    # window 0: hot around (1, 0)
    put(0, 1, 0, 3)
    put(0, 0, 0, 1)
    put(0, 2, 1, 1)
    # window 1: a single reference at the far east edge — a weak pull
    # that LOMCDS chases (two 3-hop moves) but GOMCDS rightly ignores
    put(1, 1, 3, 1)
    # window 2: back to the west edge
    put(2, 1, 0, 2)
    put(2, 2, 0, 2)
    # window 3: center-south
    put(3, 2, 2, 2)
    put(3, 1, 2, 1)
    put(3, 3, 2, 1)

    trace, windows = trace_from_counts(counts, topo)
    tensor = build_reference_tensor(trace, windows)
    return tensor, CostModel(topo), topo


@dataclass(frozen=True)
class Figure1Result:
    """Centers and costs of the three schedulers on the example datum."""

    scds_center: tuple[int, int]
    scds_cost: float
    lomcds_centers: list[tuple[int, int]]
    lomcds_cost: float
    gomcds_centers: list[tuple[int, int]]
    gomcds_cost: float


def run_figure1() -> Figure1Result:
    """Reproduce the §3.3 walk-through on the reconstructed instance."""
    tensor, model, topo = figure1_instance()
    s = schedule(tensor, model, algorithm="scds")
    lo = schedule(tensor, model, algorithm="lomcds")
    go = schedule(tensor, model, algorithm="gomcds")
    return Figure1Result(
        scds_center=topo.coords(int(s.centers[0, 0])),
        scds_cost=evaluate_schedule(s, tensor, model).total,
        lomcds_centers=[topo.coords(int(p)) for p in lo.centers[0]],
        lomcds_cost=evaluate_schedule(lo, tensor, model).total,
        gomcds_centers=[topo.coords(int(p)) for p in go.centers[0]],
        gomcds_cost=evaluate_schedule(go, tensor, model).total,
    )


# ---------------------------------------------------------------------------
# Tables 1 and 2
# ---------------------------------------------------------------------------


def _sf_cost(instance: PaperInstance, scheme: str = "row_wise") -> float:
    """The straight-forward (S.F.) distribution's cost on ``instance``."""
    return evaluate_schedule(
        baseline_schedule(instance.workload, scheme),
        instance.tensor,
        instance.model,
    ).total


def _improvements(
    row: dict, instance: PaperInstance, scheme: str = "row_wise"
) -> dict:
    """``row`` plus the S.F. cost and each scheduler's cost and gain."""
    sf = row["sf"] = _sf_cost(instance, scheme)
    for name in SCHEDULER_NAMES:
        cost = evaluate_schedule(
            instance.solve(name), instance.tensor, instance.model
        ).total
        row[name] = cost
        row[f"{name}_pct"] = percent_improvement(sf, cost)
    return row


def _table_instances(sizes, benchmarks, mesh, capacity_multiplier, seed):
    """``(bench, n, instance, S.F. cost)`` per table row, benchmark-major."""
    rows = []
    for bench in benchmarks:
        for n in sizes:
            inst = paper_instance(bench, n, mesh, seed, capacity_multiplier)
            rows.append((bench, n, inst, _sf_cost(inst)))
    return rows


def run_table1(
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    benchmarks: tuple[int, ...] = DEFAULT_BENCHMARKS,
    mesh: tuple[int, int] = (4, 4),
    capacity_multiplier: float = 2.0,
    seed: int = 1998,
    *,
    cache: SolveCache | None = None,
) -> Table:
    """Table 1: total communication cost *before* grouping.

    All ``len(benchmarks) x len(sizes) x 3`` solves go through one
    :func:`repro.schedule_many` batch, so a shared ``cache`` answers
    repeats without changing a single cell.
    """
    table = Table(
        title=f"Table 1: total communication cost before grouping "
        f"(processor array {mesh[0]}x{mesh[1]})",
        scheduler_names=SCHEDULER_NAMES,
    )
    instances = _table_instances(
        sizes, benchmarks, mesh, capacity_multiplier, seed
    )
    requests = [
        ScheduleRequest(
            tensor=inst.tensor,
            model=inst.model,
            capacity=inst.capacity,
            algorithm=name,
            label=f"table1:bench{bench}:{n}x{n}:{name}",
        )
        for bench, n, inst, _sf in instances
        for name in SCHEDULER_NAMES
    ]
    schedules = iter(schedule_many(requests, cache=cache))
    for bench, n, inst, sf in instances:
        results = tuple(
            _result(name, next(schedules), inst.tensor, inst.model, sf)
            for name in SCHEDULER_NAMES
        )
        table.add(
            TableRow(bench, BENCHMARK_NAMES[bench], f"{n}x{n}", sf, results)
        )
    return table


def run_table2(
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    benchmarks: tuple[int, ...] = DEFAULT_BENCHMARKS,
    mesh: tuple[int, int] = (4, 4),
    capacity_multiplier: float = 2.0,
    seed: int = 1998,
    *,
    cache: SolveCache | None = None,
) -> Table:
    """Table 2: total communication cost *after* window grouping.

    Per the paper, Algorithm 3's COST comparisons use LOMCDS-style
    (local) centers; the three columns then schedule on the grouped
    windows: SCDS is grouping-invariant (a single center regardless of
    windows), LOMCDS places per-group local optima, GOMCDS routes the
    cost-graph over the grouped windows.

    The SCDS column (the only registry algorithm here — the grouped
    columns go through :func:`~repro.core.grouped_schedule`) is solved as
    one :func:`repro.schedule_many` batch; with a shared ``cache`` it is answered
    from Table 1's identical solves without re-running anything.
    """
    table = Table(
        title=f"Table 2: total communication cost after grouping "
        f"(processor array {mesh[0]}x{mesh[1]})",
        scheduler_names=SCHEDULER_NAMES,
    )
    instances = _table_instances(
        sizes, benchmarks, mesh, capacity_multiplier, seed
    )
    scds_schedules = iter(
        schedule_many(
            [
                ScheduleRequest(
                    tensor=inst.tensor,
                    model=inst.model,
                    capacity=inst.capacity,
                    algorithm="SCDS",
                    label=f"table2:bench{bench}:{n}x{n}:SCDS",
                )
                for bench, n, inst, _sf in instances
            ],
            cache=cache,
        )
    )
    for bench, n, inst, sf in instances:
        tensor, model, capacity = inst.tensor, inst.model, inst.capacity
        results = (
            _result("SCDS", next(scds_schedules), tensor, model, sf),
            _result(
                "LOMCDS",
                grouped_schedule(
                    tensor, model, capacity, center_method="local"
                ),
                tensor,
                model,
                sf,
            ),
            _result(
                "GOMCDS",
                grouped_schedule(
                    tensor,
                    model,
                    capacity,
                    center_method="local",
                    assign_method="global",
                ),
                tensor,
                model,
                sf,
            ),
        )
        table.add(
            TableRow(bench, BENCHMARK_NAMES[bench], f"{n}x{n}", sf, results)
        )
    return table


def run_extended_table(
    kernels: tuple[str, ...] = ("fft", "sor", "floyd", "bitonic"),
    mesh: tuple[int, int] = (4, 4),
    capacity_multiplier: float = 2.0,
) -> Table:
    """Extended benchmark suite (beyond the paper's five kernels).

    Runs the Table 1 comparison on the extra kernels registered in
    :data:`repro.workloads.EXTENDED_KERNELS` — FFT butterflies, red-black
    SOR, Floyd-Warshall and a bitonic sorting network — each with its
    natural window structure and the paper's memory rule.
    """
    from ..workloads import EXTENDED_KERNELS

    topo = Mesh2D(*mesh)
    table = Table(
        title=f"Extended suite: communication cost on additional kernels "
        f"(processor array {mesh[0]}x{mesh[1]})",
        scheduler_names=SCHEDULER_NAMES,
    )
    for idx, name in enumerate(kernels):
        factory, n = EXTENDED_KERNELS[name]
        inst = instance_of(factory(n, topo), name, n, capacity_multiplier)
        sf = _sf_cost(inst)
        results = tuple(
            _result(name, inst.solve(name), inst.tensor, inst.model, sf)
            for name in SCHEDULER_NAMES
        )
        size = "x".join(str(e) for e in inst.workload.data_shape)
        table.add(TableRow(idx + 6, name, size, sf, results))
    return table


# ---------------------------------------------------------------------------
# Ablations (DESIGN.md experiments A-D)
# ---------------------------------------------------------------------------


def ablation_window_size(
    bench: int = 1,
    n: int = 16,
    mesh: tuple[int, int] = (4, 4),
    steps_per_window: tuple[int, ...] = (1, 2, 4, 8, 16),
    seed: int = 1998,
) -> list[dict]:
    """Ablation A: scheduling quality vs execution-window granularity."""
    from ..trace import windows_by_step_count

    inst = paper_instance(bench, n, mesh, seed)
    workload, model = inst.workload, inst.model
    out = []
    for spw in steps_per_window:
        windows = windows_by_step_count(workload.trace, spw)
        tensor = build_reference_tensor(workload.trace, windows)
        row = {"steps_per_window": spw, "n_windows": windows.n_windows}
        for name in SCHEDULER_NAMES:
            sched = schedule(tensor, model, algorithm=name)
            row[name] = evaluate_schedule(sched, tensor, model).total
        out.append(row)
    return out


def ablation_array_size(
    bench: int = 1,
    n: int = 16,
    meshes: tuple[tuple[int, int], ...] = ((2, 2), (2, 4), (4, 4), (4, 8), (8, 8)),
    capacity_multiplier: float = 2.0,
    seed: int = 1998,
) -> list[dict]:
    """Ablation B: improvement over S.F. as the array scales."""
    out = []
    for mesh in meshes:
        inst = paper_instance(bench, n, mesh, seed, capacity_multiplier)
        out.append(_improvements({"mesh": f"{mesh[0]}x{mesh[1]}"}, inst))
    return out


def ablation_memory_pressure(
    bench: int = 1,
    n: int = 16,
    mesh: tuple[int, int] = (4, 4),
    multipliers: tuple[float, ...] = (1.0, 1.25, 1.5, 2.0, 4.0),
    seed: int = 1998,
) -> list[dict]:
    """Ablation C: how tight memories erode each scheduler's advantage."""
    out = []
    for mult in multipliers:
        inst = paper_instance(bench, n, mesh, seed, mult)
        capacity = int(inst.capacity.capacities[0])
        out.append(
            _improvements({"multiplier": mult, "capacity": capacity}, inst)
        )
    return out


def ablation_partition_schemes(
    bench: int = 1,
    n: int = 16,
    mesh: tuple[int, int] = (4, 4),
    capacity_multiplier: float = 2.0,
    seed: int = 1998,
) -> list[dict]:
    """Ablation E: iteration-partition scheme vs scheduling benefit.

    The paper holds the iteration partition fixed; this sweep varies it.
    Each row uses the named scheme both as the owner-computes map and as
    the matching S.F. data layout, isolating what data *scheduling* adds
    on top of a better-partitioned program.
    """
    topo = Mesh2D(*mesh)
    out = []
    for scheme in ("row_wise", "column_wise", "block", "block_cyclic"):
        workload = benchmark(bench, n, topo, scheme=scheme, seed=seed)
        inst = instance_of(workload, bench, n, capacity_multiplier, seed)
        out.append(_improvements({"scheme": scheme}, inst, scheme))
    return out


def ablation_online_lookahead(
    bench: int = 5,
    n: int = 16,
    mesh: tuple[int, int] = (4, 4),
    hysteresis: tuple[float, ...] = (1.0, 2.0, 4.0, np.inf),
    seed: int = 1998,
) -> list[dict]:
    """Ablation F: the price of scheduling online (no lookahead).

    Sweeps the OMCDS hysteresis and brackets it between the paper's
    offline schedulers: GOMCDS (full lookahead) below, SCDS/static above.
    """
    inst = paper_instance(bench, n, mesh, seed)
    tensor, model = inst.tensor, inst.model
    offline = {
        name: evaluate_schedule(
            schedule(tensor, model, algorithm=name), tensor, model
        ).total
        for name in ("SCDS", "GOMCDS")
    }
    out = []
    for h in hysteresis:
        sched = schedule(tensor, model, algorithm="omcds", hysteresis=h)
        cost = evaluate_schedule(sched, tensor, model).total
        out.append(
            {
                "hysteresis": h,
                "OMCDS": cost,
                "vs GOMCDS": cost / offline["GOMCDS"],
                "moves": sched.n_movements(),
            }
        )
    out.append(
        {"hysteresis": "offline", "OMCDS": offline["GOMCDS"], "vs GOMCDS": 1.0,
         "moves": -1}
    )
    return out


def ablation_replication(
    bench: int = 5,
    n: int = 16,
    mesh: tuple[int, int] = (4, 4),
    copies: tuple[int, ...] = (1, 2, 3, 4),
    capacity_multiplier: float = 2.0,
    seed: int = 1998,
) -> list[dict]:
    """Ablation G: relaxing the paper's one-copy rule (read replication).

    Static k-replica placement (nearest-replica reads) vs SCDS (=k=1) and
    the movement-based GOMCDS, under the paper's memory rule.
    """
    from ..core.replication import evaluate_replicated, replicated_scds

    inst = paper_instance(bench, n, mesh, seed, capacity_multiplier)
    tensor, model, capacity = inst.tensor, inst.model, inst.capacity
    gomcds_cost = evaluate_schedule(
        inst.solve("GOMCDS"), tensor, model
    ).total
    out = []
    for k in copies:
        placement = replicated_scds(tensor, model, k, capacity)
        out.append(
            {
                "k": k,
                "replicated cost": evaluate_replicated(placement, tensor, model),
                "total copies": placement.total_copies(),
                "GOMCDS (1 copy, moving)": gomcds_cost,
            }
        )
    return out


def ablation_refinement(
    bench: int = 5,
    n: int = 16,
    mesh: tuple[int, int] = (4, 4),
    multipliers: tuple[float, ...] = (1.0, 1.25, 2.0),
    seed: int = 1998,
) -> list[dict]:
    """Ablation H: Lagrangian pricing of capacity-constrained GOMCDS.

    Quantifies how much the paper's greedy processor-list rule leaves on
    the table: the priced walk (:func:`~repro.core.priced_gomcds`) reruns
    the capacity walk with every memory slot priced, and its Lagrangian
    bound certifies how far any schedule under the same capacity is from
    optimal.  The unconstrained GOMCDS cost is the absolute floor.
    """
    inst = paper_instance(bench, n, mesh, seed)
    tensor, model = inst.tensor, inst.model
    floor = evaluate_schedule(
        schedule(tensor, model), tensor, model
    ).total
    out = []
    for mult in multipliers:
        capacity = CapacityPlan.paper_rule(
            inst.workload.n_data, model.topology.n_procs, mult
        )
        greedy = evaluate_schedule(
            schedule(tensor, model, capacity=capacity), tensor, model
        ).total
        priced, bound = priced_gomcds(tensor, model, capacity)
        cost = evaluate_schedule(priced, tensor, model).total
        out.append(
            {
                "multiplier": mult,
                "greedy GOMCDS": greedy,
                "priced": cost,
                "bound": bound,
                "recovered %": (
                    100.0 * (greedy - cost) / (greedy - floor)
                    if greedy > floor
                    else 0.0
                ),
                "unconstrained floor": floor,
            }
        )
    return out


def ablation_window_segmentation(
    bench: int = 5,
    n: int = 16,
    mesh: tuple[int, int] = (4, 4),
    seed: int = 1998,
) -> list[dict]:
    """Ablation I: where should window boundaries come from?

    Compares the kernel's natural (outer-loop) windows, fixed-size
    windows, similarity change-point windows and DP-optimal segmentation
    — each evaluated by the GOMCDS cost it enables and the number of
    windows it costs the runtime (every boundary is a potential movement
    phase).
    """
    from ..trace import segment_by_similarity, segment_dp, windows_by_step_count

    inst = paper_instance(bench, n, mesh, seed)
    workload, model = inst.workload, inst.model
    natural = workload.windows
    candidates = {
        "natural (loop)": natural,
        "fixed (4 steps)": windows_by_step_count(workload.trace, 4),
        "similarity": segment_by_similarity(workload.trace, threshold=0.6),
        "dp-optimal": segment_dp(workload.trace, natural.n_windows),
    }
    out = []
    for name, windows in candidates.items():
        tensor = build_reference_tensor(workload.trace, windows)
        cost = evaluate_schedule(
            schedule(tensor, model), tensor, model
        ).total
        out.append(
            {"strategy": name, "n_windows": windows.n_windows, "GOMCDS": cost}
        )
    return out


def ablation_static_optimality(
    bench: int = 1,
    n: int = 16,
    mesh: tuple[int, int] = (4, 4),
    multipliers: tuple[float, ...] = (1.0, 1.25, 2.0),
    seed: int = 1998,
) -> list[dict]:
    """Ablation J: greedy SCDS vs the certified optimal static placement.

    The slot-expanded assignment problem gives the exact optimum among
    static placements under capacity; the gap to the paper's greedy
    processor-list rule widens as memory tightens.
    """
    from ..core.optimal import optimal_static_placement

    inst = paper_instance(bench, n, mesh, seed)
    tensor, model = inst.tensor, inst.model
    out = []
    for mult in multipliers:
        capacity = CapacityPlan.paper_rule(
            inst.workload.n_data, model.topology.n_procs, mult
        )
        greedy = evaluate_schedule(
            schedule(tensor, model, algorithm="scds", capacity=capacity),
            tensor,
            model,
        ).total
        optimal = evaluate_schedule(
            optimal_static_placement(tensor, model, capacity), tensor, model
        ).total
        out.append(
            {
                "multiplier": mult,
                "greedy SCDS": greedy,
                "optimal static": optimal,
                "gap %": 100.0 * (greedy - optimal) / optimal if optimal else 0.0,
            }
        )
    return out


def ablation_movement_budget(
    bench: int = 5,
    n: int = 16,
    mesh: tuple[int, int] = (4, 4),
    budgets: tuple[int, ...] = (0, 1, 2, 4, 8),
    seed: int = 1998,
) -> list[dict]:
    """Ablation K: the cost-vs-movement Pareto frontier.

    Budgeted GOMCDS with B relocations per datum: B=0 is SCDS, large B is
    GOMCDS; the sweep shows how few moves capture most of the benefit.
    """
    from ..core import movement_frontier

    inst = paper_instance(bench, n, mesh, seed)
    return movement_frontier(inst.tensor, inst.model, budgets=budgets)


def seed_sensitivity(
    bench: int = 5,
    n: int = 16,
    mesh: tuple[int, int] = (4, 4),
    seeds: tuple[int, ...] = (1998, 7, 42, 1234, 90210),
    capacity_multiplier: float = 2.0,
) -> list[dict]:
    """Robustness of the table claims to the CODE kernel's noise seed.

    The substituted CODE kernel carries seeded random references; this
    sweep re-runs one table row across seeds and reports the spread of
    each scheduler's improvement.  The paper's qualitative ranking must
    hold for *every* seed, not just 1998 (asserted by the tests).
    """
    per_scheduler: dict[str, list[float]] = {s: [] for s in SCHEDULER_NAMES}
    for seed in seeds:
        inst = paper_instance(bench, n, mesh, seed, capacity_multiplier)
        row = _improvements({}, inst)
        for name in SCHEDULER_NAMES:
            per_scheduler[name].append(row[f"{name}_pct"])
    out = []
    for name, values in per_scheduler.items():
        arr = np.asarray(values)
        out.append(
            {
                "scheduler": name,
                "mean %": float(arr.mean()),
                "std %": float(arr.std()),
                "min %": float(arr.min()),
                "max %": float(arr.max()),
                "seeds": len(seeds),
            }
        )
    return out


def ablation_grouping_strategy(
    bench: int = 5,
    n: int = 16,
    mesh: tuple[int, int] = (4, 4),
    seed: int = 1998,
) -> dict:
    """Ablation D: greedy Algorithm 3 vs DP-optimal grouping vs GOMCDS.

    GOMCDS on the ungrouped windows lower-bounds every local-center
    grouping, so the three costs should be ordered
    ``GOMCDS <= optimal grouping <= greedy grouping`` (unconstrained).
    """
    inst = paper_instance(bench, n, mesh, seed)
    tensor, model = inst.tensor, inst.model
    lomcds_cost = evaluate_schedule(
        schedule(tensor, model, algorithm="lomcds"), tensor, model
    ).total
    greedy = grouped_schedule(tensor, model, center_method="local")
    optimal = grouped_schedule(tensor, model, center_method="local", strategy="optimal")
    bound = schedule(tensor, model)
    return {
        "benchmark": BENCHMARK_NAMES[bench],
        "size": f"{n}x{n}",
        "LOMCDS (no grouping)": lomcds_cost,
        "greedy grouping": evaluate_schedule(greedy, tensor, model).total,
        "optimal grouping": evaluate_schedule(optimal, tensor, model).total,
        "GOMCDS bound": evaluate_schedule(bound, tensor, model).total,
    }
