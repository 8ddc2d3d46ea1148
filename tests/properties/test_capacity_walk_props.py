"""Capacity-walk parity on *tight* constrained instances.

The numpy kernel solves GOMCDS-family paths speculatively in batches and
walks LOMCDS one datum (not one cell) at a time; the python kernel keeps
the per-datum scalar walks.  Under capacities of 1.0-1.5x the balanced
minimum, with hot processors every datum competes for, the two must
agree bit for bit: centers, certificates, provenance decision logs,
walk counters, and the error raised when a datum cannot be placed.
"""

import sys
from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import schedule
from repro.core import (
    CostModel,
    gomcds,
    reschedule_around_faults,
    reschedule_from_window,
    shortest_center_path,
)
from repro.core.kernels import KERNELS, shortest_center_path_python
from repro.faults import FaultPlan, NodeFault
from repro.grid import Mesh2D
from repro.mem import CapacityError, CapacityPlan
from repro.obs import Instrumentation
from repro.trace import build_reference_tensor
from repro.workloads import trace_from_counts

TOPO = Mesh2D(2, 3)
LOG_FIELDS = (
    "centers", "actions", "ref_costs", "move_hops", "volumes",
    "n_candidates", "runner_up", "runner_up_delta", "tie", "forced",
)


@st.composite
def tight_instances(draw, max_data=12, max_windows=5):
    """A reference tensor whose data crowd onto one or two hot processors,
    some idle windows, and a paper-rule capacity of 1.0-1.5x the minimum."""
    n_data = draw(st.integers(2, max_data))
    n_windows = draw(st.integers(1, max_windows))
    shape = (n_data, n_windows, TOPO.n_procs)
    counts = draw(arrays(np.int64, shape, elements=st.integers(0, 2)))
    hot = draw(
        st.lists(st.integers(0, TOPO.n_procs - 1), min_size=1, max_size=2)
    )
    counts[:, :, hot] *= 4
    idle = draw(arrays(np.bool_, (n_data, n_windows)))
    counts[idle] = 0
    trace, windows = trace_from_counts(counts, TOPO)
    multiplier = draw(st.sampled_from((1.0, 1.25, 1.5)))
    capacity = CapacityPlan.paper_rule(n_data, TOPO.n_procs, multiplier)
    return build_reference_tensor(trace, windows), capacity


@st.composite
def fault_plans(draw, n_windows):
    """No fault, or one processor down for a window range."""
    if not draw(st.booleans()):
        return FaultPlan()
    start = draw(st.integers(0, n_windows - 1))
    end = draw(st.integers(start + 1, n_windows))
    pid = draw(st.integers(0, TOPO.n_procs - 1))
    return FaultPlan(node_faults=(NodeFault(pid=pid, start=start, end=end),))


def _run(solve, **kwargs):
    """Solve on each kernel: ``kernel -> (schedule | error, instrument)``."""
    out = {}
    for kernel in KERNELS:
        instr = Instrumentation.started(provenance=True)
        try:
            result = solve(kernel=kernel, instrument=instr, **kwargs)
        except CapacityError as err:
            result = (err.code, str(err))
        out[kernel] = (result, instr)
    return out


def _assert_parity(out, counters=()):
    (fast, fast_instr), (slow, slow_instr) = out["numpy"], out["python"]
    if isinstance(slow, tuple):  # the oracle raised: same code and message
        assert fast == slow
        return
    assert np.array_equal(fast.centers, slow.centers)
    fast_cert = fast.meta.get("certificate")
    slow_cert = slow.meta.get("certificate")
    assert (fast_cert is None) == (slow_cert is None)
    if fast_cert is not None:
        for key in ("potentials", "totals", "masks"):
            assert np.array_equal(fast_cert[key], slow_cert[key]), key
    (fast_log,) = fast_instr.provenance.logs
    (slow_log,) = slow_instr.provenance.logs
    for name in LOG_FIELDS:
        assert np.array_equal(
            getattr(fast_log, name), getattr(slow_log, name)
        ), name
    for name in counters:
        assert (
            fast_instr.metrics.counters[name].value
            == slow_instr.metrics.counters[name].value
        ), name


@given(tight_instances())
@settings(max_examples=60, deadline=None)
def test_gomcds_kernels_agree_under_tight_capacity(instance):
    tensor, capacity = instance
    out = _run(
        lambda **kw: schedule(
            tensor, CostModel(TOPO), algorithm="GOMCDS", capacity=capacity,
            certify=True, **kw,
        )
    )
    _assert_parity(out)


@given(tight_instances())
@settings(max_examples=60, deadline=None)
def test_lomcds_kernels_agree_under_tight_capacity(instance):
    tensor, capacity = instance
    out = _run(
        lambda **kw: schedule(
            tensor, CostModel(TOPO), algorithm="LOMCDS", capacity=capacity,
            **kw,
        )
    )
    _assert_parity(out, ("lomcds.idle_holds", "lomcds.idle_evictions"))


@given(st.data(), tight_instances())
@settings(max_examples=60, deadline=None)
def test_fault_rescheduler_kernels_agree(data, instance):
    tensor, capacity = instance
    plan = data.draw(fault_plans(tensor.n_windows))
    out = _run(
        lambda **kw: reschedule_around_faults(
            tensor, CostModel(TOPO), plan, capacity, certify=True, **kw
        )
    )
    _assert_parity(out)


@given(st.data(), tight_instances())
@settings(max_examples=60, deadline=None)
def test_recovery_rescheduler_kernels_agree(data, instance):
    tensor, capacity = instance
    model = CostModel(TOPO)
    plan = data.draw(fault_plans(tensor.n_windows))
    from_window = data.draw(st.integers(0, tensor.n_windows - 1))
    base = gomcds(tensor, model, capacity)
    out = _run(
        lambda **kw: reschedule_from_window(
            base, tensor, model, plan, from_window, capacity=capacity,
            certify=True, **kw,
        )
    )
    _assert_parity(out)


@st.composite
def masked_batches(draw, n_procs=6):
    """Integer costs for a few data and a per-datum admissible mask."""
    n_data = draw(st.integers(1, 4))
    n_windows = draw(st.integers(1, 4))
    costs = draw(
        arrays(np.float64, (n_data, n_windows, n_procs),
               elements=st.integers(0, 50).map(float))
    )
    masks = draw(arrays(np.bool_, (n_data, n_windows, n_procs)))
    vols = draw(
        arrays(np.float64, (n_data,), elements=st.sampled_from((1.0, 2.0, 0.5)))
    )
    return costs, masks, vols


@given(masked_batches())
@settings(max_examples=80, deadline=None)
def test_batched_dp_rows_match_per_datum_solves(batch):
    """Each row of the batched DP — per-datum masks, a ``data`` subset, a
    shared mask, rows split over several blocks — equals a per-datum
    scalar :func:`shortest_center_path_python` solve bit for bit: path,
    total (``inf`` when infeasible) and potentials."""
    gomcds_module = sys.modules["repro.core.gomcds"]
    costs, masks, vols = batch
    dist = CostModel(TOPO).distances.astype(np.float64)
    reverse = np.arange(len(costs))[::-1]
    for block, data, mask_arg in (
        (2, reverse, masks[reverse]),
        (1, reverse, masks[0]),
        (2, None, masks),
        (gomcds_module._BLOCK, reverse, masks[reverse]),
    ):
        with patch.object(gomcds_module, "_BLOCK", block):
            paths, totals, potentials = gomcds_module._all_paths_vectorized(
                costs, dist, vols, masks=mask_arg, data=data,
                return_potentials=True,
            )
        rows = np.arange(len(costs)) if data is None else data
        for i, d in enumerate(rows):
            allowed = mask_arg[i] if mask_arg.ndim == 3 else mask_arg
            try:
                path, total, pots = shortest_center_path_python(
                    costs[d], vols[d] * dist, allowed, return_potentials=True
                )
            except CapacityError:
                assert not np.isfinite(totals[i])
                continue
            assert np.array_equal(paths[i], path)
            assert totals[i] == total
            assert np.array_equal(potentials[i], pots)


@given(masked_batches(), st.data())
@settings(max_examples=80, deadline=None)
def test_path_feasible_in_a_sub_mask_stays_optimal(batch, data):
    """The speculative walk's lemma: a path optimal over a superset of
    cells that is feasible in the subset is the subset's optimal path,
    lowest-index tie-break included."""
    costs, masks, vols = batch
    move = vols[0] * CostModel(TOPO).distances.astype(np.float64)
    superset = masks[0] | data.draw(arrays(np.bool_, masks[0].shape))
    try:
        path, total = shortest_center_path(costs[0], move, superset)
    except CapacityError:
        return
    subset = superset & masks[0]
    subset[np.arange(len(path)), path] = True  # keep the path feasible
    sub_path, sub_total = shortest_center_path(costs[0], move, subset)
    assert np.array_equal(sub_path, path)
    assert sub_total == total
