"""Run each vectorized solver layer beside its scalar test reference.

The schedulers run one path.  Where that path departs from the paper's
pseudocode it has a scalar reference: :mod:`repro.core.kernels` for the
cost tensor, the SCDS merge, the LOMCDS argmin, hold and walk, the OMCDS
window walk and the GOMCDS path DP, and
:func:`repro.obs.provenance.derive_decisions_python` for the decision
logs.  These helpers give a layer and its reference the
same inputs (each walk its own fresh tracker) and assert the outputs are
bit-identical, errors included.
"""

from contextlib import contextmanager
from functools import partial
from unittest.mock import patch

import numpy as np

from repro.core.gomcds import _batched_walk, _walk_paths
from repro.core.kernels import (
    lomcds_walk_python,
    omcds_walk_python,
    shortest_center_path_python,
)
from repro.core.lomcds import _capacity_walk
from repro.core.online import _online_walk
from repro.mem import CapacityError, OccupancyTracker
from repro.obs import provenance

LOG_FIELDS = (
    "centers", "actions", "ref_costs", "move_hops", "volumes",
    "n_candidates", "runner_up", "runner_up_delta", "tie", "forced",
)


def _outcome(walk, *args, **kwargs):
    """``walk``'s return value, or ``(CapacityError, code, message)``."""
    try:
        return walk(*args, **kwargs)
    except CapacityError as err:
        return CapacityError, err.code, str(err)


def _assert_same(fast, slow):
    assert len(fast) == len(slow)
    for i, (a, b) in enumerate(zip(fast, slow)):
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            assert np.array_equal(a, b), f"output {i} differs"
        else:
            assert a == b, f"output {i}: {a!r} != {b!r}"


def assert_path_walks_match(
    costs, dist, vols, order, *, base=None, capacity=None, certify=True,
    record_masks=True, grid=None,
):
    """``_batched_walk`` against ``_walk_paths(shortest_center_path_python)``.

    Both walk ``costs`` in ``order`` under ``base`` and, when
    ``capacity`` is given, a fresh tracker each; centers, certificate
    potentials and recorded masks (or the ``CapacityError``'s code and
    message) must be equal.  Returns the batched walk's outcome.
    """

    def walk(solver, **extra):
        tracker = (
            None
            if capacity is None
            else OccupancyTracker(capacity, n_windows=costs.shape[1])
        )
        return _outcome(
            solver, costs, dist, vols, order, base=base, tracker=tracker,
            certify=certify, record_masks=record_masks, **extra,
        )

    fast = walk(_batched_walk, grid=grid)
    _assert_same(fast, walk(partial(_walk_paths, shortest_center_path_python)))
    return fast


def assert_lomcds_walks_match(costs, referenced, order, capacity):
    """``_capacity_walk`` against ``lomcds_walk_python``: centers, idle
    holds, idle evictions, per-datum masks and eviction coordinates.
    Returns the batched walk's outcome."""

    def walk(solver):
        tracker = OccupancyTracker(capacity, n_windows=costs.shape[1])
        masks = np.zeros(costs.shape, dtype=bool)
        evictions = []
        result = _outcome(
            solver, costs, referenced, order, tracker, masks, evictions
        )
        if result[0] is CapacityError:
            return result
        return (*result, masks, evictions)

    fast = walk(_capacity_walk)
    _assert_same(fast, walk(lomcds_walk_python))
    return fast


def assert_online_walks_match(costs, dist, vols, order, capacity, hysteresis):
    """``_online_walk`` against ``omcds_walk_python``: the centers.
    Returns the batched walk's centers."""
    args = (costs, dist, vols, order, capacity, hysteresis)
    fast = _online_walk(*args)
    assert np.array_equal(fast, omcds_walk_python(*args))
    return fast


@contextmanager
def recorded_derivations():
    """Collect ``(args, kwargs, log)`` for every decision log derived
    while the block runs, the inputs exactly as the solver recorded them."""
    calls = []
    derive = provenance.derive_decisions

    def spy(*args, **kwargs):
        log = derive(*args, **kwargs)
        calls.append((args, kwargs, log))
        return log

    with patch.object(provenance, "derive_decisions", spy):
        yield calls


def assert_derivations_match(calls):
    """Each recorded log equals ``derive_decisions_python`` on the same
    inputs, field by field; returns the reference logs."""
    assert calls, "no decision log was derived"
    logs = []
    for args, kwargs, log in calls:
        reference = provenance.derive_decisions_python(*args, **kwargs)
        assert reference.method == log.method
        for name in LOG_FIELDS:
            assert np.array_equal(
                getattr(log, name), getattr(reference, name)
            ), f"{log.method}: {name} differs from the scalar derivation"
        logs.append(reference)
    return logs
