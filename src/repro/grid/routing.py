"""Dimension-ordered (x-y) routing on mesh topologies.

The paper's machine model routes every message with x-y routing: a message
first travels along the x axis (columns) to the destination column, then
along the y axis (rows).  The analytic cost model only needs the hop
*count* (Manhattan distance), but the replay simulator (``repro.sim``)
routes hop-by-hop to account per-link traffic, so we materialize the
actual paths here.  The route of a pair is fixed by the topology, so
routers on equal topologies share one process-wide memo of link lists
(bounded to :data:`_ROUTE_TABLES` topologies, least recently used first
out); callers treat those lists as read-only.

Links are directed and identified as ``(from_pid, to_pid)`` tuples between
adjacent processors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .extended_topologies import Mesh3D, WeightedMesh2D
from .topology import Mesh1D, Mesh2D, Topology, Torus2D

__all__ = ["Link", "XYRouter", "link_key", "parse_link_key"]

Link = tuple[int, int]
"""A directed mesh link ``(from_pid, to_pid)`` between adjacent processors."""

#: topologies whose x-y link memos stay live process-wide.  A constant,
#: not a knob: a certify, replay, fault sweep or chaos campaign routes on
#: one topology, and a fully routed 16x16 table (65,536 routes) holds
#: about 54 MiB.
_ROUTE_TABLES = 2


@lru_cache(maxsize=_ROUTE_TABLES)
def _route_table(topology: Topology) -> dict[tuple[int, int], list[Link]]:
    """The shared ``(src, dst) -> links`` memo of one topology.

    Topologies are frozen dataclasses, so equality already tells
    ``Mesh2D(4, 4)``, ``Torus2D(4, 4)`` and ``WeightedMesh2D(4, 4)`` apart.
    """
    return {}


def _unravel(pid: int, shape: tuple[int, ...]) -> tuple[int, ...]:
    coords = []
    for extent in reversed(shape):
        coords.append(pid % extent)
        pid //= extent
    return tuple(reversed(coords))


def _ravel(coords: tuple[int, ...], shape: tuple[int, ...]) -> int:
    pid = 0
    for c, extent in zip(coords, shape):
        if not 0 <= c < extent:
            raise ValueError(f"coordinate {coords} outside grid {shape}")
        pid = pid * extent + c
    return pid


def link_key(link: Link, shape: tuple[int, ...] | None = None) -> str:
    """Stable string form of a directed link, used for JSON serialization.

    With a grid ``shape`` the endpoints render as row-major coordinates
    (``"0,1->0,2"`` on a 2-D mesh, matching the paper's ``(r, c)``
    notation); without one they fall back to flat pids (``"1->2"``).
    """
    src, dst = int(link[0]), int(link[1])
    if shape is None:
        return f"{src}->{dst}"
    a = ",".join(str(c) for c in _unravel(src, shape))
    b = ",".join(str(c) for c in _unravel(dst, shape))
    return f"{a}->{b}"


def parse_link_key(key: str, shape: tuple[int, ...] | None = None) -> Link:
    """Inverse of :func:`link_key`: ``"0,1->0,2"`` back to ``(pid, pid)``."""
    try:
        a, b = key.split("->")
        ends = []
        for part in (a, b):
            coords = tuple(int(c) for c in part.split(","))
            if len(coords) == 1 and shape is None:
                ends.append(coords[0])
            else:
                if shape is None:
                    raise ValueError
                ends.append(_ravel(coords, shape))
    except ValueError:
        raise ValueError(f"malformed link key {key!r}") from None
    return (ends[0], ends[1])


def _step_toward(coord: int, target: int, extent: int, wrap: bool) -> int:
    """Next coordinate moving one hop from ``coord`` toward ``target``."""
    if coord == target:
        return coord
    if not wrap:
        return coord + 1 if target > coord else coord - 1
    forward = (target - coord) % extent
    backward = (coord - target) % extent
    if forward <= backward:
        return (coord + 1) % extent
    return (coord - 1) % extent


@dataclass(frozen=True)
class XYRouter:
    """Deterministic dimension-ordered router for 1-D/2-D meshes and tori.

    For a 2-D mesh the route from ``(r1, c1)`` to ``(r2, c2)`` first fixes
    the column (x axis) and then the row (y axis), matching the paper's
    x-y routing; ties on a torus break toward the forward direction.
    """

    topology: Topology
    _links: dict[tuple[int, int], list[Link]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not isinstance(
            self.topology, (Mesh1D, Mesh2D, Torus2D, Mesh3D, WeightedMesh2D)
        ):
            raise TypeError(
                f"XYRouter supports mesh/torus topologies, got {self.topology!r}"
            )
        object.__setattr__(self, "_links", _route_table(self.topology))

    @property
    def _wraps(self) -> bool:
        return isinstance(self.topology, Torus2D)

    def route(self, src: int, dst: int) -> list[int]:
        """Processor pids visited from ``src`` to ``dst``, inclusive.

        The length of the returned path is ``distance(src, dst) + 1``.
        """
        topo = self.topology
        topo._check_pid(src)
        topo._check_pid(dst)
        shape = topo.shape
        wraps = self._wraps
        path = [src]
        coords = list(_unravel(src, shape))
        target = _unravel(dst, shape)
        # x axis (the last coordinate: column) first, then y (row).
        for axis in reversed(range(len(coords))):
            extent = shape[axis]
            while coords[axis] != target[axis]:
                coords[axis] = _step_toward(
                    coords[axis], target[axis], extent, wraps
                )
                path.append(_ravel(coords, shape))
        return path

    def links(self, src: int, dst: int) -> list[Link]:
        """Directed links traversed from ``src`` to ``dst`` (may be empty).

        Memoized per pair and shared by every router on an equal
        topology: the returned list is shared, so do not mutate it.
        """
        links = self._links.get((src, dst))
        if links is None:
            path = self.route(int(src), int(dst))
            links = self._links[src, dst] = list(zip(path[:-1], path[1:]))
        return links

    def hop_count(self, src: int, dst: int) -> int:
        """Number of physical hops of the x-y route.

        Equals the metric distance on unit-weight topologies; on a
        :class:`~repro.grid.WeightedMesh2D` the metric additionally
        weights each hop by its axis cost.
        """
        return len(self.links(src, dst))
