"""Placement-cost helpers: one-window cost rows for the §4 theory
tests, and a counter of cost-tensor builds behind the memo."""

import numpy as np

import repro.core.cost as cost
from repro.trace import ReferenceTensor, WindowSet


def one_window_tensor(counts) -> ReferenceTensor:
    """A one-window tensor over ``(n_data, n_procs)`` reference counts
    (a 1-D row is one datum)."""
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim == 1:
        counts = counts[None]
    return ReferenceTensor(
        counts=counts[:, None, :], windows=WindowSet(starts=[0], n_steps=1)
    )


def cost_row(model, counts) -> np.ndarray:
    """``(n_procs,)`` cost of each center for one datum referenced
    ``counts[p]`` times by processor ``p`` in one window."""
    return model.all_placement_costs(one_window_tensor(counts))[0, 0]


def count_cost_builds(monkeypatch) -> list:
    """Record the tensor of every cost-tensor build (memo misses only)."""
    builds = []
    build = cost._build_placement_costs

    def counted(model, tensor):
        builds.append(tensor)
        return build(model, tensor)

    monkeypatch.setattr(cost, "_build_placement_costs", counted)
    return builds
