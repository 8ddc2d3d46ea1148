"""The artifact bundle a lint run analyzes.

A :class:`LintContext` carries whichever of the core artifacts the caller
has — schedule, trace, window set, fault plan, topology, capacity — and
derives the rest lazily (the reference tensor from trace + windows, the
cost model from the topology).
Rules declare which artifacts they need; the engine skips rules whose
inputs are absent, so the same registry lints a bare fault plan, a
schedule file, or a fully instantiated named workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.cost import CostModel
from ..core.schedule import Schedule
from ..faults import FaultPlan
from ..grid import Topology
from ..mem import CapacityPlan
from ..trace import ReferenceTensor, Trace, WindowSet, build_reference_tensor

__all__ = ["LintContext"]


@dataclass
class LintContext:
    """Everything a lint run may inspect; any field may be ``None``."""

    schedule: Schedule | None = None
    trace: Trace | None = None
    windows: WindowSet | None = None
    topology: Topology | None = None
    capacity: CapacityPlan | None = None
    faults: FaultPlan | None = None
    model: CostModel | None = None
    #: online-recovery policy (``repro.faults.RecoveryPolicy``) under lint
    recovery: object | None = None
    #: replica placement (``repro.core.ReplicatedPlacement``) if the run
    #: carries one; ``None`` means "no replicas" for FLT008
    replicas: object | None = None
    _tensor: ReferenceTensor | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.windows is None and self.schedule is not None:
            self.windows = self.schedule.windows
        if self.model is None and self.topology is not None:
            self.model = CostModel(self.topology)
        if self.topology is None and self.model is not None:
            self.topology = self.model.topology

    @property
    def n_windows(self) -> int | None:
        """Window horizon, from whichever artifact defines it."""
        if self.windows is not None:
            return self.windows.n_windows
        if self.schedule is not None:
            return self.schedule.n_windows
        return None

    @property
    def n_data(self) -> int | None:
        """Datum-universe size, from whichever artifact defines it."""
        if self.schedule is not None:
            return self.schedule.n_data
        if self.trace is not None:
            return self.trace.n_data
        return None

    @property
    def tensor(self) -> ReferenceTensor | None:
        """The ``R[d, w, p]`` tensor, built on demand from trace+windows.

        Building requires the trace and a window set spanning it; rules
        that need the tensor are skipped otherwise.
        """
        if self._tensor is None and self.trace is not None:
            windows = self.windows
            if windows is not None and windows.n_steps == self.trace.n_steps:
                self._tensor = build_reference_tensor(self.trace, windows)
        return self._tensor
