"""Schedule unit tests."""

import numpy as np
import pytest

from repro.core import Schedule
from repro.trace import windows_by_step_count


@pytest.fixture
def windows3():
    return windows_by_step_count(6, 2)


def test_static_broadcast(windows3):
    sched = Schedule.static(np.array([1, 4, 2]), windows3)
    assert sched.centers.shape == (3, 3)
    assert sched.is_static()
    assert sched.n_movements() == 0
    assert sched.center_of(1, 2) == 4


def test_initial_placement(windows3):
    centers = np.array([[0, 1, 2], [3, 3, 3]])
    sched = Schedule(centers=centers, windows=windows3)
    assert sched.initial_placement().tolist() == [0, 3]


def test_movements_listing(windows3):
    centers = np.array([[0, 1, 1], [3, 3, 0]])
    sched = Schedule(centers=centers, windows=windows3)
    assert sched.movements() == [(0, 1, 0, 1), (1, 2, 3, 0)]
    assert sched.n_movements() == 2
    assert not sched.is_static()


def test_single_window_has_no_movements():
    windows = windows_by_step_count(4, 4)
    sched = Schedule(centers=np.array([[2]]), windows=windows)
    assert sched.movements() == []
    assert sched.n_movements() == 0
    assert sched.movement_array().shape == (0, 4)


def test_movement_array_holds_the_movements_in_order(windows3):
    centers = np.array([[0, 1, 1], [3, 3, 0], [2, 0, 2]])
    sched = Schedule(centers=centers, windows=windows3)
    moves = sched.movement_array()
    assert moves.dtype == np.int64
    assert moves.tolist() == [list(m) for m in sched.movements()]
    assert sched.movements() == [
        (0, 1, 0, 1), (1, 2, 3, 0), (2, 1, 2, 0), (2, 2, 0, 2)
    ]
    assert all(type(x) is int for m in sched.movements() for x in m)


def test_occupancy(windows3):
    centers = np.array([[0, 1, 1], [0, 0, 1]])
    sched = Schedule(centers=centers, windows=windows3)
    occ = sched.occupancy(n_procs=3)
    assert occ[0].tolist() == [2, 0, 0]
    assert occ[1].tolist() == [1, 1, 0]
    assert occ[2].tolist() == [0, 2, 0]


def test_occupancy_with_movements_counts_every_window(windows3):
    # A moving datum occupies its old center before the boundary and its
    # new center after it; totals per window always equal n_data.
    centers = np.array([[0, 2, 2], [0, 0, 2], [1, 1, 1]])
    sched = Schedule(centers=centers, windows=windows3)
    occ = sched.occupancy(n_procs=3)
    assert occ.tolist() == [[2, 1, 0], [1, 1, 1], [0, 1, 2]]
    assert (occ.sum(axis=1) == sched.n_data).all()
    # Matches the naive per-window accumulation.
    naive = np.zeros((3, 3), dtype=np.int64)
    for w in range(3):
        np.add.at(naive[w], centers[:, w], 1)
    assert (occ == naive).all()


def test_occupancy_rejects_out_of_range_centers(windows3):
    sched = Schedule(centers=np.array([[0, 1, 5]]), windows=windows3)
    with pytest.raises(ValueError, match=r"\[SCH001\].*outside the 3-processor"):
        sched.occupancy(n_procs=3)
    with pytest.raises(ValueError, match="positive"):
        sched.occupancy(n_procs=0)


def test_restricted_to(windows3):
    centers = np.array([[0, 1, 1], [3, 3, 0], [2, 2, 2]])
    sched = Schedule(centers=centers, windows=windows3, method="x")
    sub = sched.restricted_to(np.array([2, 0]))
    assert sub.centers.tolist() == [[2, 2, 2], [0, 1, 1]]
    assert sub.method == "x"


def test_restricted_to_boolean_mask(windows3):
    centers = np.array([[0, 1, 1], [3, 3, 0], [2, 2, 2]])
    sched = Schedule(centers=centers, windows=windows3)
    sub = sched.restricted_to(np.array([True, False, True]))
    assert sub.centers.tolist() == [[0, 1, 1], [2, 2, 2]]
    occ = sub.occupancy(n_procs=4)
    assert (occ.sum(axis=1) == 2).all()


def test_restricted_to_validates_selection(windows3):
    centers = np.array([[0, 1, 1], [3, 3, 0], [2, 2, 2]])
    sched = Schedule(centers=centers, windows=windows3)
    with pytest.raises(ValueError, match="outside 0..2"):
        sched.restricted_to(np.array([0, 3]))
    with pytest.raises(ValueError, match="outside 0..2"):
        sched.restricted_to(np.array([-1]))  # no silent wrap-around
    with pytest.raises(ValueError, match="duplicates"):
        sched.restricted_to(np.array([1, 1]))
    with pytest.raises(ValueError, match="boolean mask"):
        sched.restricted_to(np.array([True, False]))
    with pytest.raises(ValueError, match="1-D"):
        sched.restricted_to(np.array([[0, 1]]))


def test_validation(windows3):
    with pytest.raises(ValueError):
        Schedule(centers=np.array([0, 1, 2]), windows=windows3)  # 1-D
    with pytest.raises(ValueError):
        Schedule(centers=np.zeros((2, 5), dtype=int), windows=windows3)
    with pytest.raises(ValueError):
        Schedule(centers=-np.ones((2, 3), dtype=int), windows=windows3)
    with pytest.raises(ValueError):
        Schedule.static(np.zeros((2, 2), dtype=int), windows3)
