"""x-y router unit tests."""

import pytest

from repro.grid import Mesh1D, Mesh2D, Mesh3D, Torus2D, WeightedMesh2D, XYRouter


@pytest.fixture
def router(mesh44):
    return XYRouter(mesh44)


def test_route_endpoints_and_length(router, mesh44):
    src, dst = mesh44.pid(0, 0), mesh44.pid(3, 3)
    path = router.route(src, dst)
    assert path[0] == src and path[-1] == dst
    assert len(path) == mesh44.distance(src, dst) + 1


def test_route_to_self_is_trivial(router):
    assert router.route(5, 5) == [5]
    assert router.links(5, 5) == []
    assert router.hop_count(5, 5) == 0


def test_x_before_y_order(router, mesh44):
    # From (0,0) to (2,3): fix the column first (x axis), then the row.
    path = [mesh44.coords(p) for p in router.route(mesh44.pid(0, 0), mesh44.pid(2, 3))]
    assert path == [(0, 0), (0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]


def test_all_hops_are_adjacent(router, mesh44):
    for src in range(0, 16, 5):
        for dst in range(16):
            for a, b in router.links(src, dst):
                assert mesh44.distance(a, b) == 1


def test_hop_count_equals_metric_everywhere(router, mesh44):
    dist = mesh44.distance_matrix()
    for src in range(16):
        for dst in range(16):
            assert router.hop_count(src, dst) == dist[src, dst]


def test_links_count_matches_distance(router, mesh44):
    src, dst = mesh44.pid(1, 0), mesh44.pid(3, 2)
    assert len(router.links(src, dst)) == mesh44.distance(src, dst)


def test_1d_routing():
    line = Mesh1D(6)
    router = XYRouter(line)
    assert router.route(1, 4) == [1, 2, 3, 4]
    assert router.route(4, 1) == [4, 3, 2, 1]


def test_torus_routes_through_wraparound():
    torus = Torus2D(4, 4)
    router = XYRouter(torus)
    # (0,0) -> (0,3) wraps west: one hop.
    path = router.route(torus.pid(0, 0), torus.pid(0, 3))
    assert len(path) - 1 == torus.distance(torus.pid(0, 0), torus.pid(0, 3)) == 1


def test_torus_hop_count_equals_metric():
    torus = Torus2D(3, 4)
    router = XYRouter(torus)
    dist = torus.distance_matrix()
    for src in range(torus.n_procs):
        for dst in range(torus.n_procs):
            assert router.hop_count(src, dst) == dist[src, dst]


def test_rejects_unknown_topology():
    class Weird:
        pass

    with pytest.raises(TypeError):
        XYRouter(Weird())


def test_rejects_bad_pids(router):
    with pytest.raises(ValueError):
        router.route(0, 99)


class TestLinkKeys:
    def test_coordinate_form_with_shape(self):
        from repro.grid import link_key, parse_link_key

        assert link_key((1, 2), (4, 4)) == "0,1->0,2"
        assert parse_link_key("0,1->0,2", (4, 4)) == (1, 2)

    def test_pid_form_without_shape(self):
        from repro.grid import link_key, parse_link_key

        assert link_key((3, 7)) == "3->7"
        assert parse_link_key("3->7") == (3, 7)

    def test_round_trip_all_mesh_links(self, mesh44):
        from repro.grid import link_key, mesh_links, parse_link_key

        shape = tuple(mesh44.shape)
        for link in mesh_links(mesh44):
            assert parse_link_key(link_key(link, shape), shape) == link

    def test_malformed_keys_rejected(self):
        from repro.grid import parse_link_key

        for bad in ("nope", "1,2", "1,2->", "a,b->c,d"):
            with pytest.raises(ValueError, match="malformed link key"):
                parse_link_key(bad, (4, 4))


MEMO_TOPOLOGIES = {
    "mesh1d": lambda: Mesh1D(5),
    "mesh2d": lambda: Mesh2D(3, 4),
    "torus2d": lambda: Torus2D(4, 4),
    "mesh3d": lambda: Mesh3D(2, 2, 3),
    "weighted2d": lambda: WeightedMesh2D(3, 3, row_weight=2, col_weight=1),
}


@pytest.mark.parametrize("name", sorted(MEMO_TOPOLOGIES))
def test_memoized_links_equal_a_fresh_router(name):
    topo = MEMO_TOPOLOGIES[name]()
    memo = XYRouter(topo)
    pairs = [(s, d) for s in topo.iter_pids() for d in topo.iter_pids()]
    for _ in range(2):  # first call fills the memo, the second reads it
        for src, dst in pairs:
            fresh = XYRouter(topo)
            assert memo.links(src, dst) == fresh.links(src, dst)
            assert memo.route(src, dst) == fresh.route(src, dst)
            assert memo.hop_count(src, dst) == fresh.hop_count(src, dst)


def test_links_are_memoized_per_pair(router):
    assert router.links(0, 15) is router.links(0, 15)
    assert XYRouter(router.topology).links(0, 15) is not router.links(0, 15)


def test_memo_does_not_change_router_equality(router):
    router.links(0, 5)
    assert router == XYRouter(router.topology)
    assert hash(router) == hash(XYRouter(router.topology))
