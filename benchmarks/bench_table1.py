"""Regenerate & time Table 1: communication cost before grouping.

``bench_table1_full`` reproduces the entire table (all five benchmarks at
8x8/16x16/32x32 on the 4x4 array, memory = 2x minimum) and prints it in
the paper's layout; the per-scheduler benches time each algorithm on each
row's instance.
"""

import pytest

from repro import schedule
from repro.analysis import render_table, run_table1
from repro.core import evaluate_schedule

from conftest import PAPER_BENCHMARKS, PAPER_SIZES, sf_cost

SCHEDULER_NAMES = ("SCDS", "LOMCDS", "GOMCDS")


def bench_table1_full(benchmark):
    """Time one full regeneration of Table 1 and print it."""
    table = benchmark.pedantic(
        run_table1,
        kwargs={"sizes": PAPER_SIZES, "benchmarks": PAPER_BENCHMARKS},
        rounds=1,
        iterations=1,
    )
    print()
    print(render_table(table))
    # the paper's qualitative shape must hold at full size
    assert table.best_scheduler() == "GOMCDS"
    assert table.average_improvement("LOMCDS") > table.average_improvement("SCDS")
    assert table.average_improvement("GOMCDS") > 20.0


@pytest.mark.parametrize("bench_id", PAPER_BENCHMARKS)
@pytest.mark.parametrize("name", SCHEDULER_NAMES)
def bench_scheduler_on_row(benchmark, instances, name, bench_id):
    """Time one scheduler on one 16x16 table row (capacity-constrained)."""
    inst = instances(bench_id, 16)

    def run():
        return schedule(
            inst.tensor, inst.model, algorithm=name, capacity=inst.capacity
        )

    solved = benchmark(run)
    cost = evaluate_schedule(solved, inst.tensor, inst.model).total
    assert cost <= sf_cost(inst) * 1.2  # sanity: never catastrophically bad


@pytest.mark.parametrize("n", PAPER_SIZES)
def bench_gomcds_scaling(benchmark, instances, n):
    """GOMCDS runtime vs data size on benchmark 3 (the heaviest mix)."""
    inst = instances(3, n)

    def run():
        return schedule(
            inst.tensor, inst.model, algorithm="gomcds", capacity=inst.capacity
        )

    solved = benchmark(run)
    assert solved.n_data == n * n
