"""Regenerate & time Table 2: communication cost after window grouping."""

import pytest

from repro.analysis import render_table, run_table1, run_table2
from repro.core import evaluate_schedule, grouped_schedule

from conftest import PAPER_BENCHMARKS, PAPER_SIZES, sf_cost


def bench_table2_full(benchmark):
    """Time one full regeneration of Table 2 and print it."""
    table = benchmark.pedantic(
        run_table2,
        kwargs={"sizes": PAPER_SIZES, "benchmarks": PAPER_BENCHMARKS},
        rounds=1,
        iterations=1,
    )
    print()
    print(render_table(table))
    assert table.average_improvement("GOMCDS") > 20.0
    # "the performance is further improved by applying the grouping
    # algorithm": grouped LOMCDS beats ungrouped LOMCDS on average
    before = run_table1(sizes=PAPER_SIZES, benchmarks=PAPER_BENCHMARKS)
    assert table.average_improvement("LOMCDS") >= before.average_improvement(
        "LOMCDS"
    )


@pytest.mark.parametrize("bench_id", PAPER_BENCHMARKS)
def bench_grouping_on_row(benchmark, instances, bench_id):
    """Time Algorithm 3 + placement on one 16x16 row."""
    inst = instances(bench_id, 16)

    def run():
        return grouped_schedule(
            inst.tensor, inst.model, inst.capacity, center_method="local"
        )

    schedule = benchmark(run)
    cost = evaluate_schedule(schedule, inst.tensor, inst.model).total
    assert cost < sf_cost(inst) * 1.2


@pytest.mark.parametrize("strategy", ["greedy", "optimal"])
def bench_grouping_strategy(benchmark, instances, strategy):
    """Greedy Algorithm 3 vs the DP-optimal grouping (extension)."""
    inst = instances(5, 16)

    def run():
        return grouped_schedule(inst.tensor, inst.model, strategy=strategy)

    schedule = benchmark(run)
    assert schedule.n_windows == inst.tensor.n_windows
