"""The paper-instance builder and its one solve."""

import numpy as np
import pytest

from repro.analysis import fault_sweep
from repro.cli import EXIT_OK, main
from repro.core import CostModel, scds
from repro.faults import FaultPlan, NodeFault
from repro.grid import Mesh2D
from repro.mem import CapacityPlan
from repro.verify import certificate_of
from repro.workloads import benchmark, combos, paper_instance


def test_builds_the_explicit_stanza():
    inst = paper_instance(3, 8, mesh=(2, 4), seed=7, capacity_multiplier=1.5)
    topology = Mesh2D(2, 4)
    workload = benchmark(3, 8, topology, seed=7)
    assert inst.model == CostModel(topology)
    np.testing.assert_array_equal(
        inst.capacity.capacities,
        CapacityPlan.paper_rule(workload.n_data, 8, 1.5).capacities,
    )
    np.testing.assert_array_equal(
        inst.tensor.counts, workload.reference_tensor().counts
    )


def test_solve_forwards_options_only_where_supported():
    inst = paper_instance(1, 8)
    assert certificate_of(inst.solve("GOMCDS", certify=True)) is not None
    assert certificate_of(inst.solve("GOMCDS")) is None
    static = inst.solve("scds", certify=True)
    expected = scds(inst.tensor, inst.model, inst.capacity)
    np.testing.assert_array_equal(static.centers, expected.centers)
    assert certificate_of(static) is None


def test_solve_reschedules_around_a_fault_plan():
    inst = paper_instance(1, 8)
    plan = FaultPlan(node_faults=(NodeFault(pid=5, start=2),))
    sched = inst.solve("SCDS", faults=plan, certify=True)
    assert sched.method == "GOMCDS+faults"
    assert certificate_of(sched) is not None
    assert (sched.centers[:, 2:] != 5).all()


@pytest.mark.parametrize(
    "run",
    [
        lambda: fault_sweep(paper_instance(1, 8), node_rates=(0.0, 0.1)),
        lambda: main(["faults", "--bench", "1", "--size", "8"]) == EXIT_OK,
    ],
    ids=["fault_sweep", "faults-cli"],
)
def test_fault_paths_build_the_instance_once(run, monkeypatch, capsys):
    calls = []
    real = combos.lu_workload

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(combos, "lu_workload", counting)
    assert run()
    assert len(calls) == 1
