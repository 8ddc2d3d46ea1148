"""The paper's communication-cost model (§2), vectorized.

One reference by processor ``p`` to datum ``d`` stored at center ``c``
costs ``dist(p, c) * volume(d)`` — the x-y-routing hop count weighted by
the transferred volume.  Moving datum ``d`` from center ``j`` to center
``k`` between windows costs ``dist(j, k) * volume(d)``.

Given the reference tensor ``R[d, w, p]`` the cost of storing datum ``d``
at *every* candidate center over *every* window is a single matrix
product, ``C_d = volume(d) * (R_d @ Dist)``, which is what all three
schedulers consume.  The product runs in float64, where BLAS applies;
its integer sums are exact in any order while they stay below 2**53.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from ..grid import Topology, cached_distance_matrix
from ..trace import ReferenceTensor

__all__ = ["CostModel"]

#: data per block of the cost-tensor build
_BUILD_BLOCK = 64

#: ``(model ref, tensor ref, costs)`` of the last cost tensor built; kept
#: at module level so pickling a model never carries it.
_memo: tuple[weakref.ref, weakref.ref, np.ndarray] | None = None


def _forget(ref: weakref.ref) -> None:
    """Drop the memo once its model or tensor is collected."""
    global _memo
    if _memo is not None and (ref is _memo[0] or ref is _memo[1]):
        _memo = None


def _build_placement_costs(model: "CostModel", tensor: ReferenceTensor) -> np.ndarray:
    """``C_d = volume(d) * (R_d @ Dist)`` for every datum, freshly built.

    The matmul runs over blocks of :data:`_BUILD_BLOCK` data, so its
    float64 copy of the counts stays a block, not a second tensor.
    """
    if tensor.n_procs != model.n_procs:
        raise ValueError("reference tensor does not match the processor array")
    vols = model.volume_vector(tensor.n_data)
    dist = model.distances.astype(np.float64)
    costs = np.empty(tensor.counts.shape)
    for start in range(0, tensor.n_data, _BUILD_BLOCK):
        block = slice(start, start + _BUILD_BLOCK)
        np.matmul(tensor.counts[block].astype(np.float64), dist, out=costs[block])
    costs *= vols[:, None, None]
    return costs


@dataclass(frozen=True)
class CostModel:
    """Distance metric + per-datum volumes for a scheduling instance.

    Parameters
    ----------
    topology:
        Processor array defining the hop metric.
    volumes:
        Optional ``(n_data,)`` positive, finite transfer volumes, stored
        read-only as float64; the paper's model ("each data transfer
        takes one time unit") is the default all-ones vector, represented
        as ``None``.
    """

    topology: Topology
    volumes: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.volumes is not None:
            vols = np.asarray(self.volumes, dtype=np.float64)
            if vols.ndim != 1 or len(vols) == 0:
                raise ValueError("volumes must be a 1-D positive vector")
            # NaN fails every comparison, so test for finite and positive
            bad = ~(np.isfinite(vols) & (vols > 0))
            if bad.any():
                d = int(bad.argmax())
                raise ValueError(
                    f"volumes must be positive and finite; datum {d} has "
                    f"{float(vols[d])}"
                )
            vols.flags.writeable = False
            object.__setattr__(self, "volumes", vols)

    @property
    def n_procs(self) -> int:
        return self.topology.n_procs

    @property
    def distances(self) -> np.ndarray:
        """Read-only ``(n, n)`` hop-distance matrix."""
        return cached_distance_matrix(self.topology)

    def volume(self, d: int) -> float:
        """Transfer volume of datum ``d`` (1 under the paper's model)."""
        if self.volumes is None:
            return 1.0
        return float(self.volumes[d])

    def volume_vector(self, n_data: int) -> np.ndarray:
        """``(n_data,)`` float64 transfer volumes (all ones by default).

        Raises ``ValueError`` when the model's volumes do not cover
        exactly ``n_data`` data.
        """
        if self.volumes is None:
            return np.ones(n_data)
        if len(self.volumes) != n_data:
            raise ValueError(
                f"cost model has {len(self.volumes)} volumes, tensor has "
                f"{n_data} data"
            )
        return self.volumes

    def all_placement_costs(self, tensor: ReferenceTensor) -> np.ndarray:
        """Read-only ``(n_data, n_windows, n_procs)`` cost tensor ``C``.

        Memoized for the last ``(model, tensor)`` pair by identity, so the
        solver, evaluator, certifier and linter of one instance share one
        build.  Both inputs are immutable (read-only counts and volumes,
        frozen dataclasses), so a matching pair always means the same
        values.
        """
        global _memo
        memo = _memo  # one read: a collected input's callback may clear it
        if memo is not None:
            model_ref, tensor_ref, costs = memo
            if model_ref() is self and tensor_ref() is tensor:
                return costs
        _memo = None  # never hold two tensors at once
        costs = _build_placement_costs(self, tensor)
        costs.flags.writeable = False
        _memo = (weakref.ref(self, _forget), weakref.ref(tensor, _forget), costs)
        return costs

    def movement_cost(self, d: int, src: int, dst: int) -> float:
        """Cost of relocating datum ``d`` from ``src`` to ``dst``."""
        return float(self.distances[src, dst]) * self.volume(d)

    def movement_cost_matrix(self, d: int | None = None) -> np.ndarray:
        """``(n, n)`` relocation cost between any two centers for datum ``d``."""
        vol = 1.0 if (self.volumes is None or d is None) else self.volume(d)
        return self.distances * vol
