"""Fault-aware routing: detoured x-y on a partially failed mesh.

The plain :class:`~repro.grid.routing.XYRouter` assumes every node and
wire is alive.  :class:`FaultAwareRouter` wraps the same topologies with a
set of dead nodes and dead *directed* links:

* when the dimension-ordered x-y route is untouched by any fault, it is
  returned verbatim (so the hop count equals the metric distance — the
  invariant the property tests pin down);
* otherwise the router falls back to a breadth-first search over the
  surviving mesh, yielding a shortest detour in surviving-hop count;
* when no surviving route exists the router *reports* the pair as
  unreachable (``None``) instead of raising deep inside a replay loop.

Routes and their link lists are memoized per ``(src, dst)`` — a router
instance is bound to one fault epoch (one window's structural-fault
state), so its fault set is read-only and the memo never goes stale.
"""

from __future__ import annotations

from collections import deque

from .extended_topologies import Mesh3D, WeightedMesh2D
from .routing import Link, XYRouter, _ravel, _unravel
from .topology import Mesh1D, Mesh2D, Topology, Torus2D

__all__ = ["FaultAwareRouter", "mesh_links", "structural_neighbors"]

_SUPPORTED = (Mesh1D, Mesh2D, Torus2D, Mesh3D, WeightedMesh2D)

_Route = tuple[list[int], list[Link]]


def structural_neighbors(topology: Topology, pid: int) -> list[int]:
    """Physically adjacent pids of ``pid``: one step along each axis.

    Unlike :meth:`Topology.neighbors` this is derived from the grid
    *structure* (coordinates), not the metric, so it stays correct on
    weighted meshes where an adjacent hop may cost more than 1.
    """
    topology._check_pid(pid)
    shape = topology.shape
    coords = _unravel(pid, shape)
    wraps = isinstance(topology, Torus2D)
    out = []
    for axis, extent in enumerate(shape):
        if extent < 2:
            continue
        for delta in (-1, 1):
            c = coords[axis] + delta
            if wraps:
                c %= extent
            elif not 0 <= c < extent:
                continue
            neighbor = list(coords)
            neighbor[axis] = c
            q = _ravel(neighbor, shape)
            if q != pid:
                out.append(q)
    # wrap-around on extent-2 tori makes +1 and -1 coincide
    return sorted(set(out))


def mesh_links(topology: Topology) -> list[Link]:
    """All directed physical links of the mesh, sorted."""
    links = []
    for pid in topology.iter_pids():
        for q in structural_neighbors(topology, pid):
            links.append((pid, q))
    return sorted(links)


class FaultAwareRouter:
    """Routes messages around dead nodes and severed directed links.

    Parameters
    ----------
    topology:
        Any mesh/torus supported by :class:`XYRouter`.
    dead_nodes:
        Pids that neither forward nor originate/sink traffic.
    dead_links:
        Directed ``(from_pid, to_pid)`` wires that cannot be traversed
        (the opposite direction may still be alive).
    """

    def __init__(
        self,
        topology: Topology,
        dead_nodes=(),
        dead_links=(),
    ) -> None:
        if not isinstance(topology, _SUPPORTED):
            raise TypeError(
                f"FaultAwareRouter supports mesh/torus topologies, got {topology!r}"
            )
        self._topology = topology
        self._dead_nodes = frozenset(int(p) for p in dead_nodes)
        self._dead_links = frozenset((int(a), int(b)) for a, b in dead_links)
        for pid in self._dead_nodes:
            topology._check_pid(pid)
        for a, b in self._dead_links:
            topology._check_pid(a)
            topology._check_pid(b)
        self._xy = XYRouter(topology)
        # (src, dst) -> (route, links), or None when unreachable
        self._memo: dict[tuple[int, int], _Route | None] = {}

    # the memo is only valid for one fault set, so the set is read-only

    @property
    def topology(self) -> Topology:
        return self._topology

    @property
    def dead_nodes(self) -> frozenset[int]:
        return self._dead_nodes

    @property
    def dead_links(self) -> frozenset[Link]:
        return self._dead_links

    @property
    def has_faults(self) -> bool:
        return bool(self._dead_nodes or self._dead_links)

    # -- routing ---------------------------------------------------------------

    def _lookup(self, src: int, dst: int) -> _Route | None:
        try:
            return self._memo[src, dst]
        except KeyError:
            path = self._compute_route(src, dst)
            hit = None if path is None else (path, list(zip(path[:-1], path[1:])))
            self._memo[src, dst] = hit
            return hit

    def route(self, src: int, dst: int) -> list[int] | None:
        """Pids visited from ``src`` to ``dst`` on the surviving mesh.

        Returns ``None`` when the pair is unreachable (either endpoint is
        dead, or faults partition the mesh between them).
        """
        hit = self._lookup(src, dst)
        return None if hit is None else hit[0]

    def links(self, src: int, dst: int) -> list[Link] | None:
        """Directed links traversed, or ``None`` when unreachable.

        Memoized per pair: the returned list is shared, so do not mutate it.
        """
        hit = self._lookup(src, dst)
        return None if hit is None else hit[1]

    def hop_count(self, src: int, dst: int) -> int | None:
        """Surviving-route hop count, or ``None`` when unreachable."""
        hit = self._lookup(src, dst)
        return None if hit is None else len(hit[1])

    def reachable(self, src: int, dst: int) -> bool:
        return self._lookup(src, dst) is not None

    def unreachable_pairs(self, pairs) -> list[tuple[int, int]]:
        """The subset of ``(src, dst)`` pairs with no surviving route."""
        return [(s, d) for s, d in pairs if not self.reachable(s, d)]

    def _compute_route(self, src: int, dst: int) -> list[int] | None:
        topo = self._topology
        topo._check_pid(src)
        topo._check_pid(dst)
        if src in self._dead_nodes or dst in self._dead_nodes:
            return None
        if src == dst:
            return [src]
        xy = self._xy.route(src, dst)
        if not self.has_faults or self._path_survives(xy):
            return xy
        return self._bfs(src, dst)

    def _path_survives(self, path: list[int]) -> bool:
        for node in path[1:-1]:
            if node in self.dead_nodes:
                return False
        for link in zip(path[:-1], path[1:]):
            if link in self.dead_links:
                return False
        return True

    def _bfs(self, src: int, dst: int) -> list[int] | None:
        """Shortest surviving path by hop count (deterministic order)."""
        parent: dict[int, int] = {src: src}
        frontier = deque([src])
        while frontier:
            node = frontier.popleft()
            if node == dst:
                break
            for q in structural_neighbors(self.topology, node):
                if q in parent or q in self.dead_nodes:
                    continue
                if (node, q) in self.dead_links:
                    continue
                parent[q] = node
                frontier.append(q)
        if dst not in parent:
            return None
        path = [dst]
        while path[-1] != src:
            path.append(parent[path[-1]])
        path.reverse()
        return path
