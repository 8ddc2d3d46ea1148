"""The paper's communication-cost model (§2), vectorized.

One reference by processor ``p`` to datum ``d`` stored at center ``c``
costs ``dist(p, c) * volume(d)`` — the x-y-routing hop count weighted by
the transferred volume.  Moving datum ``d`` from center ``j`` to center
``k`` between windows costs ``dist(j, k) * volume(d)``.

Given the reference tensor ``R[d, w, p]`` the cost of storing datum ``d``
at *every* candidate center over *every* window is a single matrix
product, ``C_d = volume(d) * (R_d @ Dist)``, which is what all three
schedulers consume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..grid import Topology, cached_distance_matrix
from ..trace import ReferenceTensor

__all__ = ["CostModel"]


@dataclass(frozen=True)
class CostModel:
    """Distance metric + per-datum volumes for a scheduling instance.

    Parameters
    ----------
    topology:
        Processor array defining the hop metric.
    volumes:
        Optional ``(n_data,)`` positive transfer volumes; the paper's
        model ("each data transfer takes one time unit") is the default
        all-ones vector, represented as ``None``.
    """

    topology: Topology
    volumes: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.volumes is not None:
            vols = np.asarray(self.volumes, dtype=np.float64)
            if vols.ndim != 1 or len(vols) == 0 or vols.min() <= 0:
                raise ValueError("volumes must be a 1-D positive vector")
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

    def placement_costs(self, ref_counts: np.ndarray, d: int | None = None) -> np.ndarray:
        """Cost of every candidate center for one datum.

        Parameters
        ----------
        ref_counts:
            ``(n_windows, n_procs)`` reference-count matrix of the datum.
        d:
            Datum id, used only to look up its volume (ignored when the
            model is unit-volume).

        Returns
        -------
        ``(n_windows, n_procs)`` float array: entry ``(w, c)`` is the total
        reference cost of window ``w`` if the datum sits at processor ``c``.
        """
        counts = np.asarray(ref_counts)
        if counts.ndim == 1:
            counts = counts[None, :]
        if counts.shape[-1] != self.n_procs:
            raise ValueError("reference counts do not match the processor array")
        costs = counts @ self.distances
        vol = 1.0 if (self.volumes is None or d is None) else self.volume(d)
        return costs * vol

    def all_placement_costs(self, tensor: ReferenceTensor) -> np.ndarray:
        """``(n_data, n_windows, n_procs)`` cost tensor ``C`` for all data."""
        if tensor.n_procs != self.n_procs:
            raise ValueError("reference tensor does not match the processor array")
        costs = tensor.counts @ self.distances
        vols = self.volume_vector(tensor.n_data)
        return costs * vols[:, None, None]

    def movement_cost(self, d: int, src: int, dst: int) -> float:
        """Cost of relocating datum ``d`` from ``src`` to ``dst``."""
        return float(self.distances[src, dst]) * self.volume(d)

    def movement_cost_matrix(self, d: int | None = None) -> np.ndarray:
        """``(n, n)`` relocation cost between any two centers for datum ``d``."""
        vol = 1.0 if (self.volumes is None or d is None) else self.volume(d)
        return self.distances * vol
