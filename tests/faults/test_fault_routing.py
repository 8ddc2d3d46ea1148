"""FaultAwareRouter: verbatim x-y, detours, unreachability reporting."""

import pytest

from repro.grid import (
    FaultAwareRouter,
    Mesh1D,
    Mesh2D,
    Mesh3D,
    Torus2D,
    WeightedMesh2D,
    XYRouter,
    mesh_links,
    structural_neighbors,
)


def _assert_valid_path(topology, router, path):
    for a, b in zip(path[:-1], path[1:]):
        assert b in structural_neighbors(topology, a)
        assert (a, b) not in router.dead_links
    for node in path:
        assert node not in router.dead_nodes


class TestStructure:
    def test_neighbors_match_mesh_adjacency(self, mesh44):
        assert structural_neighbors(mesh44, 0) == [1, 4]
        assert structural_neighbors(mesh44, 5) == [1, 4, 6, 9]

    def test_neighbors_wrap_on_torus(self, torus44):
        assert 3 in structural_neighbors(torus44, 0)
        assert 12 in structural_neighbors(torus44, 0)

    def test_mesh_links_count(self):
        # interior 2x2 mesh: 4 undirected edges -> 8 directed links
        assert len(mesh_links(Mesh2D(2, 2))) == 8

    def test_links_are_symmetric_on_mesh(self, mesh44):
        links = set(mesh_links(mesh44))
        assert all((b, a) in links for a, b in links)


class TestRouting:
    def test_no_faults_is_verbatim_xy(self, mesh44):
        router = FaultAwareRouter(mesh44)
        xy = XYRouter(mesh44)
        for src in mesh44.iter_pids():
            for dst in mesh44.iter_pids():
                assert router.route(src, dst) == xy.route(src, dst)

    def test_untouched_xy_path_survives_faults_verbatim(self, mesh44):
        # node 15 is nowhere near the 0 -> 3 top-row route
        router = FaultAwareRouter(mesh44, dead_nodes={15})
        assert router.route(0, 3) == XYRouter(mesh44).route(0, 3)
        assert router.hop_count(0, 3) == mesh44.distance(0, 3)

    def test_detour_around_dead_node(self, mesh44):
        # x-y route 0 -> 3 passes 1, 2; kill 1 and the detour must leave
        # the top row but still arrive
        router = FaultAwareRouter(mesh44, dead_nodes={1})
        path = router.route(0, 3)
        assert path is not None
        assert path[0] == 0 and path[-1] == 3
        _assert_valid_path(mesh44, router, path)
        assert router.hop_count(0, 3) > mesh44.distance(0, 3)

    def test_directed_link_fault_forces_detour_one_way(self, mesh44):
        router = FaultAwareRouter(mesh44, dead_links={(0, 1)})
        out = router.route(0, 1)
        back = router.route(1, 0)
        _assert_valid_path(mesh44, router, out)
        assert router.hop_count(0, 1) > 1  # detoured
        assert back == [1, 0]  # reverse direction still direct

    def test_dead_endpoint_is_unreachable(self, mesh44):
        router = FaultAwareRouter(mesh44, dead_nodes={5})
        assert router.route(5, 0) is None
        assert router.route(0, 5) is None
        assert not router.reachable(0, 5)

    def test_partition_reported_not_raised(self):
        # cutting node 2 splits a 1-D line in two
        line = Mesh1D(5)
        router = FaultAwareRouter(line, dead_nodes={2})
        assert router.route(0, 4) is None
        pairs = [(0, 4), (4, 0), (0, 1), (3, 4)]
        assert router.unreachable_pairs(pairs) == [(0, 4), (4, 0)]

    def test_detour_is_shortest_surviving(self, mesh44):
        # 0 -> 2 with node 1 dead: best detour drops a row, 4 hops
        router = FaultAwareRouter(mesh44, dead_nodes={1})
        assert router.hop_count(0, 2) == 4

    def test_self_route(self, mesh44):
        router = FaultAwareRouter(mesh44, dead_nodes={9})
        assert router.route(3, 3) == [3]
        assert router.hop_count(3, 3) == 0

    def test_torus_wrap_detour(self, torus44):
        router = FaultAwareRouter(torus44, dead_nodes={1})
        path = router.route(0, 2)
        _assert_valid_path(torus44, router, path)
        assert router.hop_count(0, 2) == torus44.distance(0, 2)  # wrap: 0->3->2

    def test_route_caching_is_stable(self, mesh44):
        router = FaultAwareRouter(mesh44, dead_nodes={1})
        assert router.route(0, 3) is router.route(0, 3)

    def test_links_helper(self, mesh44):
        router = FaultAwareRouter(mesh44)
        assert router.links(0, 2) == [(0, 1), (1, 2)]
        assert FaultAwareRouter(mesh44, dead_nodes={2}).links(0, 2) is None

    def test_rejects_unknown_topology(self):
        with pytest.raises(TypeError, match="mesh/torus"):
            FaultAwareRouter(object())

    def test_rejects_out_of_range_dead_node(self, mesh44):
        with pytest.raises(ValueError):
            FaultAwareRouter(mesh44, dead_nodes={99})


#: (topology, dead nodes, dead links): every supported topology, with a
#: fault set that forces detours and cuts some pairs off
FAULTED = {
    "mesh1d": (Mesh1D(5), {2}, ()),
    "mesh2d": (Mesh2D(4, 4), {5}, {(0, 1), (10, 11)}),
    "torus2d": (Torus2D(4, 4), {1, 6}, {(12, 0)}),
    "mesh3d": (Mesh3D(2, 2, 3), {4}, {(0, 1)}),
    "weighted2d": (
        WeightedMesh2D(3, 3, row_weight=2, col_weight=1), {4}, {(0, 3)}
    ),
}


class TestMemo:
    @pytest.mark.parametrize("name", sorted(FAULTED))
    def test_memo_equals_a_fresh_router(self, name):
        topo, dead_nodes, dead_links = FAULTED[name]
        memo = FaultAwareRouter(topo, dead_nodes, dead_links)
        pairs = [(s, d) for s in topo.iter_pids() for d in topo.iter_pids()]
        for _ in range(2):  # first call fills the memo, the second reads it
            for src, dst in pairs:
                fresh = FaultAwareRouter(topo, dead_nodes, dead_links)
                assert memo.links(src, dst) == fresh.links(src, dst)
                fresh = FaultAwareRouter(topo, dead_nodes, dead_links)
                assert memo.route(src, dst) == fresh.route(src, dst)
                fresh = FaultAwareRouter(topo, dead_nodes, dead_links)
                assert memo.hop_count(src, dst) == fresh.hop_count(src, dst)
                fresh = FaultAwareRouter(topo, dead_nodes, dead_links)
                assert memo.reachable(src, dst) == fresh.reachable(src, dst)
        # the fault set really detours some pairs and cuts others off
        assert any(memo.route(s, d) is None for s, d in pairs)

    def test_route_and_links_share_one_memo_entry(self, mesh44):
        router = FaultAwareRouter(mesh44, dead_nodes={1})
        path = router.route(0, 3)
        assert router.links(0, 3) is router.links(0, 3)
        assert router.links(0, 3) == list(zip(path[:-1], path[1:]))
        assert router.hop_count(0, 3) == len(path) - 1

    @pytest.mark.parametrize("attr", ["topology", "dead_nodes", "dead_links"])
    def test_fault_set_is_read_only(self, mesh44, attr):
        router = FaultAwareRouter(mesh44, dead_nodes={1}, dead_links={(4, 5)})
        with pytest.raises(AttributeError):
            setattr(router, attr, getattr(router, attr))
