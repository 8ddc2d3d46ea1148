"""Certificate checking: clean proofs verify; every tamper direction is
caught by its own code."""

import copy
import dataclasses

import numpy as np
import pytest

from repro.core import (
    CostModel,
    gomcds,
    reschedule_around_faults,
    reschedule_from_window,
)
from repro.diagnostics import VER005, VER006, VER007, VER011, Severity
from repro.faults import FaultPlan, NodeFault
from repro.mem import CapacityPlan
from repro.verify import certificate_of, check_certificate
from repro.workloads import benchmark


@pytest.fixture
def certified(mesh44):
    wl = benchmark(1, 8, mesh44)
    tensor = wl.reference_tensor()
    model = CostModel(mesh44)
    capacity = CapacityPlan.paper_rule(wl.n_data, mesh44.n_procs, 2.0)
    schedule = gomcds(tensor, model, capacity, certify=True)
    return tensor, model, capacity, schedule


def _codes(diags):
    return {d.code for d in diags}


def test_clean_certificate_verifies(certified):
    tensor, model, _, schedule = certified
    cert = certificate_of(schedule)
    assert cert is not None and cert["kind"] == "gomcds-potentials"
    diags = check_certificate(schedule, tensor, model)
    assert not [d for d in diags if d.severity == Severity.ERROR]


def test_uncertified_schedule_is_silent_unless_required(certified):
    tensor, model, capacity, _ = certified
    plain = gomcds(tensor, model, capacity)
    assert certificate_of(plain) is None
    assert check_certificate(plain, tensor, model) == []
    required = check_certificate(plain, tensor, model, require=True)
    assert _codes(required) == {VER005}


def test_inflated_potential_is_dual_infeasible(certified):
    tensor, model, _, schedule = certified
    bad = dataclasses.replace(schedule, meta=copy.deepcopy(schedule.meta))
    bad.meta["certificate"]["potentials"][0, 2, :] += 3.0
    assert VER006 in _codes(check_certificate(bad, tensor, model))


def test_deflated_bound_is_not_tight(certified):
    tensor, model, _, schedule = certified
    bad = dataclasses.replace(schedule, meta=copy.deepcopy(schedule.meta))
    cert = bad.meta["certificate"]
    cert["potentials"][0, -1, :] -= 5.0
    cert["totals"] = cert["potentials"][:, -1, :].min(axis=1)
    assert VER007 in _codes(check_certificate(bad, tensor, model))


def test_perturbed_center_breaks_tightness(certified):
    tensor, model, _, schedule = certified
    centers = schedule.centers.copy()
    centers[0, 1] = (centers[0, 1] + 7) % model.topology.n_procs
    bad = dataclasses.replace(schedule, centers=centers)
    assert VER007 in _codes(check_certificate(bad, tensor, model))


def test_malformed_certificate_is_ver005(certified):
    tensor, model, _, schedule = certified
    bad = dataclasses.replace(schedule, meta=copy.deepcopy(schedule.meta))
    bad.meta["certificate"]["potentials"] = np.zeros((2, 2))
    diags = check_certificate(bad, tensor, model)
    assert _codes(diags) == {VER005}
    garbage = dataclasses.replace(schedule, meta={"certificate": "yes"})
    assert _codes(check_certificate(garbage, tensor, model)) == {VER005}


def test_faulted_certificates_verify(certified, mesh44):
    tensor, model, capacity, _ = certified
    plan = FaultPlan(node_faults=(NodeFault(pid=5, start=2),))
    schedule = reschedule_around_faults(
        tensor, model, plan, capacity, certify=True
    )
    diags = check_certificate(schedule, tensor, model, faults=plan)
    assert not [d for d in diags if d.severity == Severity.ERROR]


def test_mask_admitting_dead_node_is_ver005(certified, mesh44):
    tensor, model, capacity, _ = certified
    plan = FaultPlan(node_faults=(NodeFault(pid=5, start=0),))
    schedule = reschedule_around_faults(
        tensor, model, plan, capacity, certify=True
    )
    bad = dataclasses.replace(schedule, meta=copy.deepcopy(schedule.meta))
    bad.meta["certificate"]["masks"][:, :, 5] = True  # pid 5 is down
    assert VER005 in _codes(
        check_certificate(bad, tensor, model, faults=plan)
    )


def test_suffix_certificate_verifies(certified):
    tensor, model, capacity, schedule = certified
    plan = FaultPlan(node_faults=(NodeFault(pid=5, start=2),))
    suffix = reschedule_from_window(
        schedule, tensor, model, plan, from_window=2, capacity=capacity,
        certify=True,
    )
    cert = certificate_of(suffix)
    assert cert is not None and cert["from_window"] == 2
    diags = check_certificate(suffix, tensor, model, faults=plan)
    assert not [d for d in diags if d.severity == Severity.ERROR]


def test_restricted_to_keeps_certificate_consistent(certified):
    tensor, model, _, schedule = certified
    from repro.trace import ReferenceTensor

    ids = [0, 3, 5]
    sub = schedule.restricted_to(ids)
    subtensor = ReferenceTensor(tensor.counts[ids], tensor.windows)
    diags = check_certificate(sub, subtensor, model)
    assert not [d for d in diags if d.severity == Severity.ERROR]


def test_check_certificate_rejects_another_instances_tensor(certified, mesh44):
    _, model, _, schedule = certified
    other = benchmark(5, 8, mesh44).reference_tensor()
    with pytest.raises(ValueError, match="disagree on windows"):
        check_certificate(schedule, other, model)


def test_certify_schedule_rejects_another_instances_tensor(certified, mesh44):
    from repro.verify import certify_schedule

    _, model, capacity, schedule = certified
    trace = benchmark(1, 8, mesh44).trace
    other = benchmark(5, 8, mesh44).reference_tensor()
    with pytest.raises(ValueError, match="disagree on windows"):
        certify_schedule(
            schedule, trace, model, tensor=other, capacity=capacity
        )


@pytest.mark.parametrize("from_window", [0, 2])
def test_theory_sample_flags_rows_in_datum_major_order(mesh44, from_window):
    """VER011 checks the first 32 referenced rows of the suffix at once and
    reports the non-separable ones in datum-major order, capped."""
    import sys

    from repro.diagnostics import Diagnostic
    from repro.theory import is_separable_convex
    from repro.verify.abstract import MAX_DIAGNOSTICS_PER_CHECK

    certificate = sys.modules["repro.verify.certificate"]
    model = CostModel(mesh44)
    rng = np.random.default_rng(11)
    costs = rng.integers(0, 9, (12, 6, 16)).astype(float)
    costs[rng.random((12, 6)) < 0.3] = 0.0  # unreferenced rows are skipped
    for d, w in [(0, 3), (1, 4), (2, 5)]:  # three separable convex rows
        costs[d, w] = model.distances[5] * 2.0
    expected = []
    checked = 0
    for d, w in zip(*np.nonzero(costs.sum(axis=2) > 0)):
        if w < from_window or checked == certificate._THEORY_SAMPLE:
            continue
        checked += 1
        if not is_separable_convex(costs[d, w], mesh44):
            expected.append((int(d), int(w)))
    diags = []
    certificate._check_theory(costs, mesh44, from_window, diags)
    assert all(isinstance(x, Diagnostic) and x.code == VER011 for x in diags)
    assert [(x.datum, x.window) for x in diags] == (
        expected[:MAX_DIAGNOSTICS_PER_CHECK]
    )
    assert len(diags) == MAX_DIAGNOSTICS_PER_CHECK


def test_certificates_on_other_topologies_verify():
    """Lemma 1 does not apply off the 1-D/2-D meshes: the theory sample is
    skipped there, and the certificate itself still verifies."""
    from repro.grid import Mesh3D, Torus2D, WeightedMesh2D

    for topology in (Torus2D(4, 4), Mesh3D(2, 2, 4),
                     WeightedMesh2D(4, 4, row_weight=2, col_weight=1)):
        wl = benchmark(1, 8, topology)
        tensor = wl.reference_tensor()
        model = CostModel(topology)
        schedule = gomcds(tensor, model, certify=True)
        assert check_certificate(schedule, tensor, model) == []
