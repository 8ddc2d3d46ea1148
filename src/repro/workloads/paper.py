"""The paper's evaluation instance, built once and solved by name.

Tables 1-2 of the paper run one instance definition throughout:
benchmark 1-5 at matrix size ``n`` on a 4x4 array, with each
processor's memory twice the balanced minimum.  :func:`paper_instance`
builds that instance (workload, reference tensor, cost model, capacity
plan) and :meth:`PaperInstance.solve` schedules it — around a fault plan
when one is given, else with the named registry scheduler.  The CLI
builds one instance from its ``--bench/--size/--mesh/--seed`` flags and
hands it to the lint, certify, explain, fault and chaos entry points.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import CostModel, Schedule, reschedule_around_faults, scheduler_spec
from ..faults import FaultPlan
from ..grid import Mesh2D
from ..mem import CapacityPlan
from ..obs import Instrumentation
from ..trace import ReferenceTensor
from .base import WorkloadInstance
from .combos import benchmark

__all__ = ["PaperInstance", "paper_instance", "instance_of"]


@dataclass(frozen=True)
class PaperInstance:
    """One benchmark instance under the paper's memory rule.

    ``seed`` is the workload seed it was built with (``None`` for a
    workload the caller built).
    """

    bench: int | str
    size: int
    seed: int | None
    workload: WorkloadInstance
    tensor: ReferenceTensor
    model: CostModel
    capacity: CapacityPlan

    def solve(
        self,
        scheduler: str,
        *,
        faults: FaultPlan | None = None,
        certify: bool = False,
        instrument: Instrumentation | None = None,
    ) -> Schedule:
        """Schedule the instance under its capacity plan.

        With a ``faults`` plan the fault-aware rescheduler
        (:func:`~repro.core.reschedule_around_faults`) runs and
        ``scheduler`` is not consulted; otherwise the registry spec named
        ``scheduler`` does.  ``certify`` reaches a spec only when its
        ``supported_kwargs`` lists it, so asking for a certificate from
        SCDS solves without one.
        """
        if faults is not None:
            return reschedule_around_faults(
                self.tensor, self.model, faults, self.capacity,
                certify=certify, instrument=instrument,
            )
        spec = scheduler_spec(scheduler)
        options = (
            {"certify": True}
            if certify and "certify" in spec.supported_kwargs
            else {}
        )
        return spec(
            self.tensor, self.model, self.capacity, instrument=instrument,
            **options,
        )


def instance_of(
    workload: WorkloadInstance,
    bench: int | str,
    size: int,
    capacity_multiplier: float = 2.0,
    seed: int | None = None,
) -> PaperInstance:
    """Wrap an already-built workload (another partition scheme, an
    extended kernel) with its tensor, cost model and paper-rule capacity."""
    topology = workload.topology
    return PaperInstance(
        bench=bench,
        size=size,
        seed=seed,
        workload=workload,
        tensor=workload.reference_tensor(),
        model=CostModel(topology),
        capacity=CapacityPlan.paper_rule(
            workload.n_data, topology.n_procs, capacity_multiplier
        ),
    )


def paper_instance(
    bench: int,
    size: int,
    mesh: tuple[int, int] = (4, 4),
    seed: int = 1998,
    capacity_multiplier: float = 2.0,
) -> PaperInstance:
    """Benchmark ``bench`` (1-5) at size ``size`` on a ``mesh`` array.

    Memory is ``capacity_multiplier`` times the balanced minimum
    (:meth:`~repro.mem.CapacityPlan.paper_rule`); ``seed`` drives the
    CODE kernel in benchmarks 3-5.
    """
    workload = benchmark(bench, size, Mesh2D(*mesh), seed=seed)
    return instance_of(workload, bench, size, capacity_multiplier, seed)
