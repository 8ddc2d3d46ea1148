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
    # route() never reads the memo, so it is the unmemoized oracle
    topo = MEMO_TOPOLOGIES[name]()
    memo = XYRouter(topo)
    pairs = [(s, d) for s in topo.iter_pids() for d in topo.iter_pids()]
    for _ in range(2):  # first call fills the memo, the second reads it
        for src, dst in pairs:
            path = XYRouter(topo).route(src, dst)
            assert memo.links(src, dst) == list(zip(path[:-1], path[1:]))
            assert memo.route(src, dst) == path
            assert memo.hop_count(src, dst) == len(path) - 1


def test_links_are_memoized_per_pair(router):
    assert router.links(0, 15) is router.links(0, 15)


def test_equal_topologies_share_one_memo():
    a, b = XYRouter(Mesh2D(3, 5)), XYRouter(Mesh2D(3, 5))
    assert a.links(0, 14) is b.links(0, 14)


def test_distinct_topology_types_of_one_shape_do_not_share():
    routers = [
        XYRouter(Mesh2D(4, 4)),
        XYRouter(Torus2D(4, 4)),
        XYRouter(WeightedMesh2D(4, 4)),
    ]
    links = [r.links(0, 3) for r in routers]
    assert links[0] == links[2] == [(0, 1), (1, 2), (2, 3)]
    assert links[1] == [(0, 3)]  # the torus wraps around
    assert links[0] is not links[2]


def test_fault_epochs_share_routes_only_when_equal():
    from repro.faults import FaultInjector, FaultPlan, LinkFault, NodeFault

    mesh = Mesh2D(4, 4)

    def links(*dead_links):
        plan = FaultPlan(
            node_faults=(NodeFault(pid=5, start=0),),
            link_faults=tuple(LinkFault(a, b, start=0) for a, b in dead_links),
        )
        return FaultInjector(plan, mesh, n_windows=1).router(0).links(0, 3)

    assert links((1, 2)) is links((1, 2))
    # one more dead link is another epoch, with routes of its own
    assert links((1, 2), (2, 3)) is not links((1, 2))
    assert (2, 3) not in links((1, 2), (2, 3))


def test_epoch_router_cache_stays_at_its_bound():
    from repro.faults import FaultInjector, FaultPlan, NodeFault
    from repro.faults.injector import _EPOCH_ROUTERS, _epoch_router

    mesh = Mesh1D(_EPOCH_ROUTERS + 10)
    for pid in range(mesh.n_procs):  # one distinct epoch per dead node
        plan = FaultPlan(node_faults=(NodeFault(pid=pid, start=0),))
        FaultInjector(plan, mesh, n_windows=1).router(0)
    assert _epoch_router.cache_info().currsize == _EPOCH_ROUTERS


def test_memo_does_not_change_router_equality(router):
    router.links(0, 5)
    assert router == XYRouter(router.topology)
    assert hash(router) == hash(XYRouter(router.topology))
