"""Shared benchmark fixtures.

Each bench module regenerates one table/figure of the paper (or one
DESIGN.md ablation).  Instances are built once per session; the rendered
tables are printed so that ``pytest benchmarks/ --benchmark-only -s``
reproduces the paper's output alongside the timing numbers.
"""

from __future__ import annotations

import pytest

from repro.core import evaluate_schedule
from repro.distrib import baseline_schedule
from repro.workloads import PaperInstance, paper_instance

PAPER_SIZES = (8, 16, 32)
PAPER_BENCHMARKS = (1, 2, 3, 4, 5)


def sf_cost(inst: PaperInstance) -> float:
    """The row-wise straight-forward (S.F.) distribution's cost."""
    return evaluate_schedule(
        baseline_schedule(inst.workload, "row_wise"), inst.tensor, inst.model
    ).total


@pytest.fixture(scope="session")
def instances():
    cache: dict[tuple[int, int], PaperInstance] = {}

    def get(bench: int, n: int) -> PaperInstance:
        key = (bench, n)
        if key not in cache:
            cache[key] = paper_instance(bench, n)
        return cache[key]

    return get
