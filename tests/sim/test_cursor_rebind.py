"""A cursor rebound mid-run keeps every fetch in exactly one outcome bucket."""

import pytest

from repro.core import CostModel, gomcds
from repro.faults import FaultPlan, NodeFault
from repro.grid import Mesh2D
from repro.sim import ReplayCursor
from repro.workloads import benchmark as make_benchmark


@pytest.mark.parametrize("evacuate", (True, False))
def test_healthy_steps_after_faulted_ones_keep_failed_fetches(evacuate):
    topo = Mesh2D(4, 4)
    wl = make_benchmark(1, 8, topo, seed=1998)
    model = CostModel(topo)
    schedule = gomcds(wl.reference_tensor(), model)
    plan = FaultPlan(node_faults=(NodeFault(pid=5, start=0),))
    cursor = ReplayCursor(
        wl.trace, schedule, model, faults=plan, evacuate=evacuate
    )
    for _ in range(3):
        cursor.step()
    cursor.rebind(faults=FaultPlan())
    report = cursor.run()
    assert report.n_unreachable > 0
    assert (
        report.n_delivered + report.n_dropped + report.n_unreachable
        == report.n_fetches
    )
