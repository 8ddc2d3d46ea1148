"""Extension benches: ablations E-G and the execution-time estimator.

These go beyond the paper's tables (see DESIGN.md): the iteration-
partition sweep, the online-vs-offline lookahead gap, read replication
against the one-copy rule, and the makespan estimate that exposes what
the paper's hop x volume metric hides.
"""


import pytest

from repro.analysis import (
    ablation_online_lookahead,
    ablation_partition_schemes,
    ablation_refinement,
    ablation_replication,
    ablation_static_optimality,
    ablation_window_segmentation,
    render_table,
    run_extended_table,
)
from repro import schedule
from repro.core import evaluate_schedule, priced_gomcds, replicated_scds
from repro.sim import estimate_execution_time
from repro.workloads import paper_instance


def bench_ablation_partition(benchmark):
    """Ablation E: iteration-partition scheme sweep (benchmark 1, 16x16)."""
    rows = benchmark.pedantic(
        ablation_partition_schemes, kwargs={"bench": 1, "n": 16}, rounds=1, iterations=1
    )
    print()
    print("Ablation E: iteration partitions (benchmark 1, 16x16)")
    for row in rows:
        print(
            f"  {row['scheme']:<14} S.F. {row['sf']:>7.0f}  "
            f"GOMCDS {row['GOMCDS']:>7.0f} ({row['GOMCDS_pct']:.1f}%)"
        )
    assert all(row["GOMCDS"] <= row["sf"] for row in rows)


def bench_ablation_online(benchmark):
    """Ablation F: the price of no lookahead (benchmark 5, 16x16)."""
    rows = benchmark.pedantic(
        ablation_online_lookahead, kwargs={"bench": 5, "n": 16}, rounds=1, iterations=1
    )
    print()
    print("Ablation F: online OMCDS vs offline (benchmark 5, 16x16)")
    for row in rows:
        print(
            f"  hysteresis {row['hysteresis']!s:<8} cost {row['OMCDS']:>7.0f}"
            f"  x{row['vs GOMCDS']:.2f} of GOMCDS, {row['moves']} moves"
        )
    offline = [r for r in rows if r["hysteresis"] == "offline"][0]["OMCDS"]
    tuned = min(r["OMCDS"] for r in rows if isinstance(r["hysteresis"], float))
    assert offline <= tuned <= 3 * offline  # constant-competitive in practice


def bench_ablation_replication(benchmark):
    """Ablation G: k replicas vs the one-copy rule (benchmark 5, 16x16)."""
    rows = benchmark.pedantic(
        ablation_replication, kwargs={"bench": 5, "n": 16}, rounds=1, iterations=1
    )
    print()
    print("Ablation G: read replication (benchmark 5, 16x16, capacity 2x)")
    for row in rows:
        print(
            f"  k={row['k']}  cost {row['replicated cost']:>7.0f}  "
            f"copies {row['total copies']}  "
            f"(GOMCDS 1-copy moving: {row['GOMCDS (1 copy, moving)']:.0f})"
        )
    assert rows[1]["replicated cost"] < rows[0]["replicated cost"]


def bench_ablation_refinement(benchmark):
    """Ablation H: Lagrangian-priced capacity walk on constrained GOMCDS."""
    rows = benchmark.pedantic(
        ablation_refinement, kwargs={"bench": 5, "n": 16}, rounds=1, iterations=1
    )
    print()
    print("Ablation H: priced walk on capacity-constrained GOMCDS (b5, 16x16)")
    for row in rows:
        print(
            f"  cap x{row['multiplier']}: {row['greedy GOMCDS']:.0f} -> "
            f"{row['priced']:.0f} (bound {row['bound']:.0f}, "
            f"floor {row['unconstrained floor']:.0f})"
        )
    assert all(r["priced"] <= r["greedy GOMCDS"] for r in rows)


def bench_ablation_segmentation(benchmark):
    """Ablation I: window-boundary strategies (benchmark 5, 16x16)."""
    rows = benchmark.pedantic(
        ablation_window_segmentation, kwargs={"bench": 5, "n": 16}, rounds=1, iterations=1
    )
    print()
    print("Ablation I: window segmentation strategies (benchmark 5, 16x16)")
    for row in rows:
        print(
            f"  {row['strategy']:<16} {row['n_windows']:>3} windows  "
            f"GOMCDS {row['GOMCDS']:.0f}"
        )
    assert all(row["GOMCDS"] > 0 for row in rows)


def bench_ablation_static_optimality(benchmark):
    """Ablation J: greedy SCDS vs assignment-optimal static placement."""
    rows = benchmark.pedantic(
        ablation_static_optimality, kwargs={"bench": 1, "n": 16}, rounds=1, iterations=1
    )
    print()
    print("Ablation J: static optimality gap (benchmark 1, 16x16)")
    for row in rows:
        print(
            f"  cap x{row['multiplier']}: greedy {row['greedy SCDS']:.0f} vs "
            f"optimal {row['optimal static']:.0f} (gap {row['gap %']:.1f}%)"
        )
    assert all(r["greedy SCDS"] >= r["optimal static"] - 1e-9 for r in rows)


def bench_extended_suite(benchmark):
    """Extended kernels (FFT / SOR / Floyd / bitonic): full table."""
    table = benchmark.pedantic(run_extended_table, rounds=1, iterations=1)
    print()
    print(render_table(table))
    for row in table.rows:
        assert row.result_for("GOMCDS").cost <= row.sf_cost


def bench_priced_walk_runtime(benchmark):
    """Priced-walk throughput on a tight-memory 16x16 instance."""
    inst = paper_instance(5, 16, capacity_multiplier=1.0)
    greedy = evaluate_schedule(inst.solve("GOMCDS"), inst.tensor, inst.model)

    def run():
        return priced_gomcds(inst.tensor, inst.model, inst.capacity)

    priced, bound = benchmark.pedantic(run, rounds=1, iterations=1)
    cost = evaluate_schedule(priced, inst.tensor, inst.model).total
    assert bound <= cost <= greedy.total


@pytest.mark.parametrize("name", ["SCDS", "GOMCDS"])
def bench_makespan_estimate(benchmark, instances, name):
    """Time the makespan estimator on 16x16 benchmark 5 schedules."""
    inst = instances(5, 16)
    sched = schedule(inst.tensor, inst.model, algorithm=name, capacity=inst.capacity)

    def run():
        return estimate_execution_time(inst.workload.trace, sched, inst.model)

    report = benchmark(run)
    print(
        f"\n  {name}: estimated makespan {report.total:.0f} "
        f"(comm fraction {report.comm_fraction:.2f})"
    )
    assert report.total > 0


def bench_omcds_runtime(benchmark, instances):
    """Online scheduler throughput on the heaviest instance (32x32 mix)."""
    inst = instances(3, 32)

    def run():
        return schedule(inst.tensor, inst.model, algorithm="omcds", capacity=inst.capacity)

    sched = benchmark(run)
    assert sched.n_data == 1024


def bench_replication_runtime(benchmark, instances):
    """k-median placement throughput at k=3 on 32x32 benchmark 5."""
    inst = instances(5, 32)

    def run():
        return replicated_scds(inst.tensor, inst.model, k=3, capacity=inst.capacity)

    placement = benchmark(run)
    assert placement.n_data == 1024


def bench_network_simulation(benchmark, instances):
    """Cycle-stepped drain of benchmark 5's GOMCDS traffic (16x16)."""
    from repro.sim import estimate_execution_time, simulate_schedule_network

    inst = instances(5, 16)
    sched = schedule(inst.tensor, inst.model, algorithm="gomcds", capacity=inst.capacity)

    def run():
        return simulate_schedule_network(inst.workload.trace, sched, inst.model)

    report = benchmark(run)
    bound = estimate_execution_time(inst.workload.trace, sched, inst.model)
    print(
        f"\n  measured drain {report.total_cycles:.0f} cycles vs analytic "
        f"link bound {bound.fetch_comm_time.sum() + bound.move_comm_time.sum():.0f}"
    )
    assert report.total_cycles >= bound.fetch_comm_time.sum()


def bench_seed_sensitivity(benchmark):
    """Robustness: one table row across five CODE seeds."""
    from repro.analysis import seed_sensitivity

    rows = benchmark.pedantic(seed_sensitivity, rounds=1, iterations=1)
    print()
    print("Seed sensitivity (benchmark 5, 16x16, 5 seeds)")
    for row in rows:
        print(
            f"  {row['scheduler']:<8} {row['mean %']:.1f}% +- {row['std %']:.2f} "
            f"(range {row['min %']:.1f}-{row['max %']:.1f})"
        )
    by = {r["scheduler"]: r for r in rows}
    assert by["GOMCDS"]["min %"] > by["SCDS"]["max %"]


def bench_ablation_movement_budget(benchmark):
    """Ablation K: cost vs per-datum relocation budget (benchmark 5)."""
    from repro.analysis import ablation_movement_budget

    rows = benchmark.pedantic(
        ablation_movement_budget, kwargs={"bench": 5, "n": 16}, rounds=1, iterations=1
    )
    print()
    print("Ablation K: movement-budget frontier (benchmark 5, 16x16)")
    for row in rows:
        print(
            f"  B={row['budget']}: total {row['total']:.0f} "
            f"(refs {row['reference']:.0f} + moves {row['movement']:.0f}, "
            f"{row['moves']} relocations)"
        )
    totals = [r["total"] for r in rows]
    assert all(b <= a + 1e-9 for a, b in zip(totals, totals[1:]))
