"""OMCDS (online scheduler extension) tests."""

import math

import numpy as np
import pytest

from repro.core import CostModel, evaluate_schedule, gomcds, omcds
from repro.grid import Mesh1D
from repro.mem import CapacityPlan
from repro.trace import build_reference_tensor
from repro.workloads import trace_from_counts


def tensor_1d(counts):
    topo = Mesh1D(np.asarray(counts).shape[2])
    trace, windows = trace_from_counts(np.asarray(counts, dtype=np.int64), topo)
    return build_reference_tensor(trace, windows), CostModel(topo)


def test_stationary_workload_never_moves():
    tensor, model = tensor_1d([[[3, 0, 0, 0, 0]] * 5])
    sched = omcds(tensor, model)
    assert sched.n_movements() == 0
    assert sched.centers[0, 0] == 0


def test_infinite_hysteresis_is_static():
    tensor, model = tensor_1d([[[5, 0, 0, 0, 0], [0, 0, 0, 0, 9], [0, 0, 0, 0, 9]]])
    sched = omcds(tensor, model, hysteresis=math.inf)
    assert sched.is_static()
    # anchored at the first window's optimum (no future knowledge)
    assert sched.centers[0, 0] == 0


def test_follows_persistent_drift_eventually():
    # demand moves to proc 4 and stays: regret accumulates, then we move
    counts = [[[5, 0, 0, 0, 0]] + [[0, 0, 0, 0, 5]] * 4]
    tensor, model = tensor_1d(counts)
    sched = omcds(tensor, model, hysteresis=1.0)
    assert sched.centers[0, -1] == 4
    assert sched.n_movements() == 1


def test_hysteresis_delays_the_move():
    counts = [[[5, 0, 0, 0, 0]] + [[0, 0, 0, 0, 2]] * 5]
    tensor, model = tensor_1d(counts)
    eager = omcds(tensor, model, hysteresis=1.0)
    lazy = omcds(tensor, model, hysteresis=4.0)
    first_move = lambda s: int(np.argmax(s.centers[0] == 4))
    assert first_move(eager) < first_move(lazy)


def test_ignores_transient_blip():
    # one odd window is not worth moving for at high hysteresis
    counts = [[[5, 0, 0, 0, 0], [0, 0, 0, 0, 1], [5, 0, 0, 0, 0]]]
    tensor, model = tensor_1d(counts)
    sched = omcds(tensor, model, hysteresis=2.0)
    assert sched.n_movements() == 0


def test_online_never_beats_offline_optimum(drift, mesh44):
    tensor = drift.reference_tensor()
    model = CostModel(mesh44)
    offline = evaluate_schedule(gomcds(tensor, model), tensor, model).total
    for h in (1.0, 2.0, 4.0):
        online = evaluate_schedule(
            omcds(tensor, model, hysteresis=h), tensor, model
        ).total
        assert offline <= online


def test_online_beats_static_anchor_on_drift(drift, mesh44):
    tensor = drift.reference_tensor()
    model = CostModel(mesh44)
    moving = evaluate_schedule(omcds(tensor, model, hysteresis=1.0), tensor, model)
    frozen = evaluate_schedule(
        omcds(tensor, model, hysteresis=math.inf), tensor, model
    )
    assert moving.total < frozen.total


def test_capacity_respected(mesh44):
    rng = np.random.default_rng(8)
    from repro.grid import Mesh2D

    topo = Mesh2D(4, 4)
    counts = rng.integers(0, 3, size=(40, 4, 16))
    trace, windows = trace_from_counts(counts, topo)
    tensor = build_reference_tensor(trace, windows)
    plan = CapacityPlan.uniform(16, 3)
    sched = omcds(tensor, CostModel(topo), capacity=plan)
    assert (sched.occupancy(16) <= 3).all()


def test_bad_hysteresis_rejected(drift, mesh44):
    tensor = drift.reference_tensor()
    with pytest.raises(ValueError):
        omcds(tensor, CostModel(mesh44), hysteresis=0.0)
    with pytest.raises(ValueError):
        omcds(tensor, CostModel(mesh44), hysteresis=-1.0)


def test_registered_in_scheduler_registry():
    from repro.core import SCHEDULER_SPECS, scheduler_spec

    # scheduler_spec returns the uniformly-shaped spec wrapping the function
    assert scheduler_spec("omcds").func is omcds
    assert SCHEDULER_SPECS["OMCDS"].func is omcds


def test_method_label(drift, mesh44):
    tensor = drift.reference_tensor()
    sched = omcds(tensor, CostModel(mesh44), hysteresis=3.0)
    assert sched.method == "OMCDS"
    assert sched.meta["hysteresis"] == 3.0
