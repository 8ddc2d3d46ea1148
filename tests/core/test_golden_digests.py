"""Golden digests: the four capacity-walk path solvers, pinned bit for bit.

GOMCDS, both fault reschedulers and the movement-budgeted variant all
route data through their cost-graphs in priority order under the paper's
capacity rule.  Each case here hashes the schedule's centers and, where
the solver certifies, the certificate's potentials / masks / totals, on
benchmarks 1-5 at size 8 on a 4x4 mesh.  Refactoring the walk must leave
every digest unchanged; recording provenance must not perturb any of
them, and the decision log it produces is pinned as well.
"""

import hashlib

import numpy as np
import pytest

from repro.core import (
    CostModel,
    gomcds,
    gomcds_budgeted,
    reschedule_around_faults,
    reschedule_from_window,
)
from repro.faults import FaultPlan, NodeFault
from repro.grid import Mesh2D
from repro.mem import CapacityPlan
from repro.obs import Instrumentation
from repro.trace import build_reference_tensor
from repro.workloads import benchmark as make_benchmark

BENCHES = (1, 2, 3, 4, 5)
CERTIFYING = ("gomcds", "faults", "recovery")

#: (solver, bench) -> (centers, certificate, decision log) digests.
GOLDEN = {
    ("gomcds", 1): ("64ff234f1796d7a5", "81c7c4e3d59f8243", "a866774ce57f40c4"),
    ("gomcds", 2): ("5b0d0c708a630d6e", "439e1b9d5b606c6f", "e830899a945b83e9"),
    ("gomcds", 3): ("5e1230ffeb3d8d68", "e11b5e571e17097d", "a6ea321b89197894"),
    ("gomcds", 4): ("cc41bc2fcf187298", "a3867fc716930d10", "ac22edb3b4ccfa0f"),
    ("gomcds", 5): ("43cb3dd9236a2043", "305741a4a29f025b", "d6c4299471a45b13"),
    ("faults", 1): ("ebd71dd171c7acbd", "0ae7a8bcafe8a3d5", "e224360ac9e66ada"),
    ("faults", 2): ("5b0d0c708a630d6e", "3799eaa993ef33c0", "f2e78135cc7ab8a9"),
    ("faults", 3): ("c172122af61fcda0", "4ac3b227ca95b08d", "102062814a43251b"),
    ("faults", 4): ("98d7023101d13277", "a81aad40cb41afa8", "9d337db1204f9fe9"),
    ("faults", 5): ("9eb49a6346543506", "90fb8d4d7d569209", "caa0a3a57c60b48c"),
    ("recovery", 1): ("1a03fcf35df57b93", "cec26b4cfc10a3e5", "78fc84b297e650bf"),
    ("recovery", 2): ("5b0d0c708a630d6e", "a3148e853ebbc928", "d9b04a2ffb80202c"),
    ("recovery", 3): ("8e51cd6aef0655ed", "3fcea3e5509dea49", "6d05b6c49b6ffcc6"),
    ("recovery", 4): ("98d7023101d13277", "b52c2019b1807b75", "5c937dcb123ff0f8"),
    ("recovery", 5): ("5b700776e01fa5c9", "3ff5930da75c968e", "b13819e44b9dbb41"),
    ("budgeted", 1): ("28995ec26edd2c0e", None, None),
    ("budgeted", 2): ("f6d78923038a30bd", None, None),
    ("budgeted", 3): ("3873f46e081ceb8e", None, None),
    ("budgeted", 4): ("4ffbefcd10327c30", None, None),
    ("budgeted", 5): ("44b6e63830b9f8c6", None, None),
}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def _certificate_digest(schedule):
    cert = schedule.meta.get("certificate")
    if cert is None:
        return None
    parts = [cert["potentials"], cert["totals"]]
    if cert["masks"] is not None:
        parts.append(cert["masks"])
    return _digest(*parts)


def _log_digest(log):
    return _digest(
        log.centers, log.actions, log.ref_costs, log.move_hops, log.volumes,
        log.n_candidates, log.runner_up, log.runner_up_delta, log.tie,
        log.forced,
    )


def _solve(solver, bench, instrument=None):
    topo = Mesh2D(4, 4)
    wl = make_benchmark(bench, 8, topo, seed=1998)
    tensor = build_reference_tensor(wl.trace, wl.windows)
    model = CostModel(topo)
    cap = CapacityPlan.paper_rule(wl.n_data, topo.n_procs)
    if solver == "gomcds":
        return gomcds(tensor, model, cap, certify=True, instrument=instrument)
    if solver == "budgeted":
        return gomcds_budgeted(tensor, model, 2, cap)
    rng = np.random.default_rng(1998 + bench)
    fault = NodeFault(
        pid=int(rng.integers(topo.n_procs)),
        start=int(rng.integers(tensor.n_windows)),
    )
    plan = FaultPlan(node_faults=(fault,))
    if solver == "faults":
        return reschedule_around_faults(
            tensor, model, plan, cap, certify=True, instrument=instrument
        )
    base = gomcds(tensor, model, cap)
    return reschedule_from_window(
        base, tensor, model, plan, tensor.n_windows // 2,
        capacity=cap, certify=True, instrument=instrument,
    )


CASES = [
    (solver, bench, provenance)
    for solver in (*CERTIFYING, "budgeted")
    for bench in BENCHES
    for provenance in ((False, True) if solver in CERTIFYING else (False,))
]


@pytest.mark.parametrize(("solver", "bench", "provenance"), CASES)
def test_golden_digest(solver, bench, provenance):
    instrument = Instrumentation.started(provenance=True) if provenance else None
    sched = _solve(solver, bench, instrument)
    centers, certificate, log = GOLDEN[(solver, bench)]
    assert _digest(sched.centers) == centers
    assert _certificate_digest(sched) == certificate
    if provenance:
        assert _log_digest(instrument.provenance.logs[-1]) == log
