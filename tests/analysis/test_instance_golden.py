"""Golden digests: every paper-instance entry point, pinned bit for bit.

The fault replay and sweep, the certify and lint workload paths, the
explain decision log and the Table 1 cells all build the paper's
instance (benchmark B at size n on a 4x4 mesh, memory at twice the
balanced minimum) and solve it.  Each case hashes the whole observable
result, so routing those entry points through a shared builder must
leave every digest unchanged.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.analysis import (
    explain_records,
    explain_workload,
    fault_sweep,
    run_fault_replay,
    run_table1,
)
from repro.faults import FaultPlan, NodeFault
from repro.lint import workload_context
from repro.verify import certify_workload
from repro.workloads import paper_instance

BENCHES = (1, 2, 3, 4, 5)
NODE5_FROM_W2 = FaultPlan(node_faults=(NodeFault(pid=5, start=2),))

GOLDEN_FAULT_REPLAY = {
    False: "d710cb215381dfb2",
    True: "29a4d40d9c852033",
}
GOLDEN_FAULT_SWEEP = "5ae1d3b006f34c12"
#: bench -> certify_workload(bench, 8).to_dict() digest; "faulted" is
#: bench 1 with node 5 down from window 2.
GOLDEN_CERTIFY = {
    1: "9705f01e562581dd",
    2: "a3f45418cd302e9c",
    3: "c278f9479e9cd6aa",
    4: "b9e969cbc214a77a",
    5: "e6288e5454737862",
    "faulted": "84d5fecb81b3b27b",
}
GOLDEN_LINT_CENTERS = {
    1: "64ff234f1796d7a5",
    2: "5b0d0c708a630d6e",
    3: "5e1230ffeb3d8d68",
    4: "cc41bc2fcf187298",
    5: "43cb3dd9236a2043",
}
GOLDEN_EXPLAIN = "ee1204dc7f4b5450"
GOLDEN_TABLE1 = "2c9774b9a1a67c80"


def _plain(value):
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"unhashable payload value {value!r}")


def _hash(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=_plain)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _array_hash(array) -> str:
    array = np.ascontiguousarray(array)
    header = f"{array.dtype.str}{array.shape}".encode()
    return hashlib.sha256(header + array.tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("reschedule", [False, True])
def test_fault_replay_golden(reschedule):
    row = run_fault_replay(
        NODE5_FROM_W2, paper_instance(1, 8), reschedule=reschedule
    )
    assert _hash(row) == GOLDEN_FAULT_REPLAY[reschedule]


def test_fault_sweep_golden():
    assert _hash(fault_sweep(paper_instance(1, 8))) == GOLDEN_FAULT_SWEEP


@pytest.mark.parametrize("bench", BENCHES)
def test_certify_workload_golden(bench):
    report = certify_workload(paper_instance(bench, 8, (4, 4)))
    assert _hash(report.to_dict()) == GOLDEN_CERTIFY[bench]


def test_faulted_certify_workload_golden():
    report = certify_workload(
        paper_instance(1, 8, (4, 4)), faults=NODE5_FROM_W2
    )
    assert _hash(report.to_dict()) == GOLDEN_CERTIFY["faulted"]


@pytest.mark.parametrize("bench", BENCHES)
def test_workload_context_golden(bench):
    context = workload_context(paper_instance(bench, 8, (4, 4)))
    assert _array_hash(context.schedule.centers) == GOLDEN_LINT_CENTERS[bench]


def test_explain_workload_golden():
    records = list(explain_records(explain_workload(paper_instance(1, 8))))
    assert _hash(records) == GOLDEN_EXPLAIN


def test_table1_golden():
    table = run_table1(sizes=(8,))
    assert _hash([dataclasses.asdict(row) for row in table.rows]) == GOLDEN_TABLE1
