"""A dark end-to-end pipeline leaves the disabled ``NOOP`` session empty.

``NOOP`` is an ordinary :class:`~repro.obs.Instrumentation` with
``enabled=False``, so its tracer, registry and stores are real, writable
objects.  Nothing the pipeline does while dark may write into them: the
probe helpers return early, and every other store write sits behind
``enabled`` or a store's ``recording`` flag.
"""

from repro import schedule
from repro.engine import ScheduleRequest, schedule_many
from repro.faults import FaultPlan, NodeFault
from repro.lint import LintContext, run_lint
from repro.obs import NOOP, active
from repro.sim import replay_schedule
from repro.verify import certify_schedule
from repro.workloads import paper_instance


def test_dark_pipeline_leaves_noop_empty():
    assert active() is NOOP
    inst = paper_instance(1, 8)
    trace = inst.workload.trace

    for algorithm in ("SCDS", "LOMCDS", "GOMCDS", "OMCDS"):
        schedule(
            inst.tensor, inst.model, algorithm=algorithm,
            capacity=inst.capacity,
        )
    certified = inst.solve("GOMCDS", certify=True)
    assert certified.meta["certificate"] is not None

    replay_schedule(
        trace, certified, inst.model, capacity=inst.capacity,
        track_links=True,
    )
    healthy = certify_schedule(
        certified, trace, inst.model, tensor=inst.tensor,
        capacity=inst.capacity,
    )
    assert healthy.n_errors == 0
    plan = FaultPlan(node_faults=(NodeFault(pid=5, start=2),))
    certify_schedule(
        inst.solve("GOMCDS", faults=plan), trace, inst.model,
        tensor=inst.tensor, capacity=inst.capacity, faults=plan,
    )

    requests = [
        ScheduleRequest(
            other.tensor, other.model, capacity=other.capacity,
            algorithm="gomcds",
        )
        for other in (inst, paper_instance(2, 8))
    ]
    schedule_many(requests, workers=2)
    run_lint(
        LintContext(
            schedule=certified, trace=trace, model=inst.model,
            capacity=inst.capacity,
        )
    )

    assert len(NOOP.tracer) == 0
    assert len(NOOP.metrics) == 0
    assert len(NOOP.spatial) == 0
    assert len(NOOP.provenance) == 0
    assert NOOP.spatial.recording is False
    assert NOOP.provenance.recording is False
