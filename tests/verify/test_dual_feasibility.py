"""VER006, the certificate's dual-feasibility check, against its oracle.

The checker computes every window's lower envelope in one pass: a
separable L1 distance transform on a 1-D or 2-D mesh when the values are
exact integers, a dense broadcast blocked over data everywhere else.
The oracle below is the plain per-window ``(D, m, m)`` broadcast; both
must emit the same diagnostics, in the same order, with the same
messages.  The property test runs with ``derandomize=True`` so every
run draws the same cases.
"""

import ast
import copy
import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CostModel, gomcds, reschedule_from_window
from repro.diagnostics import VER006, Diagnostic, Severity
from repro.faults import FaultPlan, NodeFault
from repro.grid import Mesh1D, Mesh2D, Mesh3D, Torus2D, WeightedMesh2D
from repro.mem import CapacityPlan
from repro.verify import check_certificate
from repro.verify.abstract import MAX_DIAGNOSTICS_PER_CHECK, _emit
from repro.workloads import benchmark

CERTIFICATE = sys.modules["repro.verify.certificate"]
_TOL = CERTIFICATE._TOL

TOPOLOGIES = [
    Mesh1D(1),
    Mesh1D(5),
    Mesh2D(2, 3),
    Mesh2D(3, 3),
    Mesh2D(1, 4),
    Torus2D(3, 3),
    Mesh3D(2, 2, 2),
    WeightedMesh2D(2, 3, row_weight=3, col_weight=1),
]


def dense_dual_feasibility(
    potentials, costs, dist, vols, diagnostics, from_window
):
    """The oracle: one ``(D, m, m)`` min-plus broadcast per window."""
    n_data, n_suffix, _ = potentials.shape
    finite = potentials[np.isfinite(potentials)]
    tol = _TOL * (1.0 + (float(np.abs(finite).max()) if finite.size else 0.0))
    move = vols[:, None, None] * dist[None, :, :]  # (D, m, m)
    lower = costs[:, 0, :]
    for w in range(n_suffix):
        if w > 0:
            lower = (
                potentials[:, w - 1, :, None] + move
            ).min(axis=1) + costs[:, w, :]
        bad = potentials[:, w, :] > lower + tol
        for d, p in zip(*np.nonzero(bad)):
            _emit(
                diagnostics,
                Diagnostic(
                    code=VER006,
                    severity=Severity.ERROR,
                    message=(
                        f"certificate potential {potentials[d, w, p]:g} "
                        f"exceeds the best incoming value "
                        f"{lower[d, p]:g}; the potentials are "
                        "dual-infeasible and certify nothing"
                    ),
                    datum=int(d),
                    window=from_window + int(w),
                    processor=int(p),
                ),
            )


def _both(potentials, costs, dist, vols, topology, from_window=0):
    """(production diagnostics, oracle diagnostics) on copies of the input."""
    ours, oracle = [], []
    with np.errstate(invalid="ignore"):  # -inf potential + inf cost
        CERTIFICATE._check_dual_feasibility(
            potentials.copy(), costs.copy(), dist, vols, topology, ours,
            from_window,
        )
        dense_dual_feasibility(
            potentials.copy(), costs.copy(), dist, vols, oracle, from_window
        )
    return ours, oracle


def _forward_tables(costs, dist, vols):
    """The exact DP potentials: every cell tight against its envelope."""
    pi = costs.copy()
    move = vols[:, None, None] * dist[None]
    for w in range(1, pi.shape[1]):
        pi[:, w] += (pi[:, w - 1, :, None] + move).min(axis=1)
    return pi


@st.composite
def dual_instances(draw):
    topology = draw(st.sampled_from(TOPOLOGIES))
    m = topology.n_procs
    n_data = draw(st.integers(0, 4))
    n_suffix = draw(st.integers(1, 4))
    shape = (n_data, n_suffix, m)
    dist = CostModel(topology).distances.astype(np.float64)
    vols = np.array(
        draw(
            st.one_of(
                st.lists(st.sampled_from([1.0, 2.0, 3.0]),
                         min_size=n_data, max_size=n_data),
                st.lists(st.sampled_from([0.5, 1.25, 2.0]),
                         min_size=n_data, max_size=n_data),
            )
        )
    )
    # costs as check_certificate prepares them: masked cells are inf and
    # a suffix certificate's first window carries the placement pin
    costs = np.array(
        draw(st.lists(st.integers(0, 6), min_size=int(np.prod(shape)),
                      max_size=int(np.prod(shape))))
        , dtype=np.float64,
    ).reshape(shape)
    if draw(st.booleans()):
        masked = np.array(
            draw(st.lists(st.booleans(), min_size=costs.size,
                          max_size=costs.size)), dtype=bool,
        ).reshape(shape)
        costs[masked & (np.arange(m) > 0)] = np.inf  # keep pid 0 open
    if draw(st.booleans()):
        placement = np.array(
            draw(st.lists(st.integers(0, m - 1), min_size=n_data,
                          max_size=n_data)), dtype=np.int64,
        )
        costs[:, 0, :] += vols[:, None] * dist[placement, :]

    if draw(st.booleans()):  # tight DP tables, then nudged
        potentials = _forward_tables(costs, dist, vols)
    else:
        potentials = np.array(
            draw(st.lists(st.integers(-4, 30), min_size=costs.size,
                          max_size=costs.size)),
            dtype=np.float64,
        ).reshape(shape)
    # near 2**53 the spacing of doubles is 1: the separable pass must stay
    # exact just below its bound and hand over to the dense step above it
    offset = draw(st.sampled_from([0.0, 0.0, 2.0**53 - 64, 2.0**53 - 8]))
    potentials = np.where(np.isfinite(potentials), potentials + offset,
                          potentials)
    for _ in range(draw(st.integers(0, 4)) if n_data else 0):
        d = draw(st.integers(0, n_data - 1))
        w = draw(st.integers(0, n_suffix - 1))
        p = draw(st.integers(0, m - 1))
        potentials[d, w, p] = draw(
            st.sampled_from([np.inf, -np.inf, np.nan, -0.0, 0.5])
        ) if draw(st.booleans()) else potentials[d, w, p] + draw(
            st.sampled_from([-1.0, 1.0, 0.25, 3.0])
        )
    from_window = draw(st.integers(0, 3))
    return potentials, costs, dist, vols, topology, from_window


@settings(max_examples=300, deadline=None, derandomize=True)
@given(dual_instances())
def test_one_pass_envelope_matches_the_dense_oracle(instance):
    ours, oracle = _both(*instance)
    assert ours == oracle


@pytest.mark.parametrize("topology", TOPOLOGIES, ids=repr)
def test_tight_tables_raise_nothing(topology):
    rng = np.random.default_rng(7)
    dist = CostModel(topology).distances.astype(np.float64)
    costs = rng.integers(0, 9, (6, 5, topology.n_procs)).astype(np.float64)
    vols = rng.integers(1, 4, 6).astype(np.float64)
    potentials = _forward_tables(costs, dist, vols)
    assert _both(potentials, costs, dist, vols, topology) == ([], [])


def _separable_grid(potentials, dist, vols, topology):
    """The grid the separable pass takes for these inputs, or None."""
    finite = np.abs(potentials[np.isfinite(potentials)])
    return CERTIFICATE._chamfer_grid(
        potentials, float(finite.max(initial=0.0)), dist, vols, topology
    )


def test_separable_pass_applies_only_where_it_is_exact():
    grid = _separable_grid
    ints = np.zeros((2, 3, 6))
    dist = np.ones((6, 6))
    ones = np.ones(2)
    assert grid(ints, dist, ones, Mesh2D(2, 3)) == (2, 3)
    assert grid(ints, dist, ones, Mesh1D(6)) == (6,)
    for topology in (Torus2D(2, 3), Mesh3D(1, 2, 3),
                     WeightedMesh2D(2, 3, row_weight=1, col_weight=1)):
        assert grid(ints, dist, ones, topology) is None
    assert grid(ints + 0.5, dist, ones, Mesh2D(2, 3)) is None
    assert grid(ints, dist, ones * 1.5, Mesh2D(2, 3)) is None
    nan = ints.copy()
    nan[0, 0, 0] = np.nan
    assert grid(nan, dist, ones, Mesh2D(2, 3)) is None
    inf = ints.copy()
    inf[0, 0, 0] = -np.inf
    assert grid(inf, dist, ones, Mesh2D(2, 3)) == (2, 3)
    assert grid(ints + 2.0**53 - 1, dist, ones, Mesh2D(2, 3)) is None


@pytest.mark.parametrize("grid", [None, (3, 3)], ids=["dense", "separable"])
@pytest.mark.parametrize(
    "shape", [(200, 40, 9), (10, 40, 9), (1, 30, 9), (300, 2, 9)], ids=str
)
def test_envelope_blocks_fit_one_dense_window_step(monkeypatch, shape, grid):
    """Every buffer of a block holds at most ``min(cap, D * m * m)`` cells
    (the dense path's ``(k, m, m)`` and both paths' ``(k, S-1, m)``), or
    the block is a single datum."""
    monkeypatch.setattr(CERTIFICATE, "_ENVELOPE_CELLS", 1 << 12)
    n_data, n_suffix, m = shape
    dist = CostModel(Mesh2D(3, 3)).distances.astype(np.float64)
    budget = min(1 << 12, n_data * m * m)
    width = m * (n_suffix - 1 if grid else max(m, n_suffix - 1))
    seen = 0
    for rows, envelope in CERTIFICATE._envelopes(
        np.zeros(shape), dist, np.ones(n_data), grid
    ):
        assert envelope.shape == (len(envelope), n_suffix - 1, m)
        assert len(envelope) == 1 or len(envelope) * width <= budget
        seen += len(envelope)
    assert seen == n_data


# -- mutations of real certificates ------------------------------------------


@pytest.fixture
def certified(mesh44):
    wl = benchmark(1, 8, mesh44)
    tensor = wl.reference_tensor()
    model = CostModel(mesh44)
    capacity = CapacityPlan.paper_rule(wl.n_data, mesh44.n_procs, 2.0)
    schedule = gomcds(tensor, model, capacity, certify=True)
    return tensor, model, capacity, schedule


@pytest.fixture
def with_oracle(monkeypatch):
    """Run check_certificate; also run the oracle on what VER006 was given."""
    real = CERTIFICATE._check_dual_feasibility
    seen = []

    def spy(potentials, costs, dist, vols, topology, diagnostics,
            from_window):
        oracle = list(diagnostics)
        dense_dual_feasibility(potentials, costs, dist, vols, oracle,
                               from_window)
        seen.append(oracle)
        real(potentials, costs, dist, vols, topology, diagnostics,
             from_window)

    monkeypatch.setattr(CERTIFICATE, "_check_dual_feasibility", spy)

    def run(schedule, tensor, model, faults=None):
        diags = check_certificate(schedule, tensor, model, faults)
        ours = [d for d in diags if d.code == VER006]
        return ours, [d for d in seen.pop() if d.code == VER006]

    return run


def _tampered(schedule):
    return dataclasses.replace(schedule, meta=copy.deepcopy(schedule.meta))


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_one_raised_potential_is_one_ver006(certified, with_oracle, where):
    tensor, model, _, schedule = certified
    potentials = schedule.meta["certificate"]["potentials"]
    assert _separable_grid(
        potentials, model.distances, model.volume_vector(schedule.n_data),
        model.topology,
    ) == (4, 4)
    w = {"first": 0, "middle": 2, "last": potentials.shape[1] - 1}[where]
    finite = np.argwhere(np.isfinite(potentials[:, w, :]))
    d, p = (int(x) for x in finite[len(finite) // 2])
    bad = _tampered(schedule)
    bad.meta["certificate"]["potentials"][d, w, p] += 3.0
    ours, oracle = with_oracle(bad, tensor, model)
    assert ours == oracle
    assert [(x.datum, x.window, x.processor) for x in ours] == [(d, w, p)]


def test_mass_corruption_caps_in_window_major_order(certified, with_oracle):
    tensor, model, _, schedule = certified
    bad = _tampered(schedule)
    potentials = bad.meta["certificate"]["potentials"]
    n_data, n_windows, m = potentials.shape
    rng = np.random.default_rng(3)
    cells = rng.choice(potentials.size, size=60, replace=False)
    d, w, p = np.unravel_index(cells, potentials.shape)
    potentials[d, w, p] += 5.0
    ours, oracle = with_oracle(bad, tensor, model)
    assert ours == oracle
    assert len(ours) == MAX_DIAGNOSTICS_PER_CHECK
    keys = [(x.window, x.datum, x.processor) for x in ours]
    assert keys == sorted(keys)
    assert len({x.window for x in ours}) > 1


def test_suffix_certificate_with_a_pin_matches_the_oracle(
    certified, with_oracle
):
    tensor, model, capacity, schedule = certified
    plan = FaultPlan(node_faults=(NodeFault(pid=5, start=2),))
    suffix = reschedule_from_window(
        schedule, tensor, model, plan, from_window=2, capacity=capacity,
        certify=True,
    )
    cert = suffix.meta["certificate"]
    assert cert["from_window"] == 2 and cert.get("placement") is not None
    assert with_oracle(suffix, tensor, model, plan) == ([], [])
    bad = _tampered(suffix)
    bad.meta["certificate"]["potentials"][4, 0, :] += 2.0
    bad.meta["certificate"]["potentials"][1, 3, 9] += 1.0
    ours, oracle = with_oracle(bad, tensor, model, plan)
    assert ours == oracle and ours
    assert {x.window for x in ours} <= {2, 5}


def test_fractional_volumes_take_the_dense_step(mesh44, with_oracle):
    wl = benchmark(2, 8, mesh44)
    tensor = wl.reference_tensor()
    vols = np.linspace(0.5, 2.5, wl.n_data)
    model = CostModel(mesh44, vols)
    schedule = gomcds(tensor, model, certify=True)
    assert _separable_grid(
        schedule.meta["certificate"]["potentials"], model.distances, vols,
        model.topology,
    ) is None
    bad = _tampered(schedule)
    bad.meta["certificate"]["potentials"][2, 3, :4] += 0.75
    ours, oracle = with_oracle(bad, tensor, model)
    assert ours == oracle and len(ours) == 4


def test_verify_does_not_import_the_solver():
    """A defect shared by solver and checker would certify itself."""
    verify = Path(CERTIFICATE.__file__).parent
    for path in verify.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            assert not any("gomcds" in n or "_l1_relax" in n for n in names), (
                f"{path.name} imports {names}"
            )
