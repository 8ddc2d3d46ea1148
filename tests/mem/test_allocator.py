"""OccupancyTracker and processor-list unit tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.diagnostics import SCH002
from repro.mem import CapacityError, CapacityPlan, OccupancyTracker, first_available


@pytest.fixture
def tracker():
    return OccupancyTracker(CapacityPlan.uniform(3, 2), n_windows=4)


def _fill(tracker, window, proc):
    """Claim ``proc``'s remaining slots in ``window`` (and the cheapest
    free cell of every other window alongside)."""
    while tracker.available_mask()[window, proc]:
        path = tracker.available_mask().argmax(axis=1)
        path[window] = proc
        tracker.claim_path(path)


class TestOccupancyTracker:
    def test_initially_everything_available(self, tracker):
        assert tracker.available_mask().all()

    def test_claim_single_window(self):
        # a static placement (SCDS, a replica, one OMCDS window) is a
        # one-window tracker
        tracker = OccupancyTracker(CapacityPlan.uniform(3, 2), n_windows=1)
        tracker.claim_path(np.array([2]))
        assert tracker.occupancy.tolist() == [[0, 0, 1]]

    def test_window_fills_up(self, tracker):
        tracker.claim_path(np.array([1, 1, 0, 1]))
        tracker.claim_path(np.array([2, 2, 0, 2]))
        assert not tracker.available_mask()[2, 0]
        with pytest.raises(CapacityError):
            tracker.claim_path(np.array([1, 1, 0, 1]))

    def test_claim_range(self, tracker):
        # a grouped datum claims its per-window expansion
        tracker.claim_path(np.array([1, 1, 1, 0]))
        assert tracker.occupancy[:, 1].tolist() == [1, 1, 1, 0]

    def test_available_in_range_requires_all_windows(self, tracker):
        _fill(tracker, 1, 2)
        mask = tracker.available_mask()
        assert mask[0:1].all(axis=0)[2]
        assert not mask[0:3].all(axis=0)[2]

    def test_claim_path(self, tracker):
        tracker.claim_path(np.array([0, 1, 2, 0]))
        assert tracker.occupancy[0, 0] == 1
        assert tracker.occupancy[1, 1] == 1

    def test_claim_path_rejects_full_cell(self, tracker):
        _fill(tracker, 2, 1)
        before = tracker.occupancy.copy()
        with pytest.raises(CapacityError):
            tracker.claim_path(np.array([0, 0, 1, 0]))
        # failed claim must not partially commit
        assert np.array_equal(tracker.occupancy, before)

    def test_claim_path_error_names_first_full_cell(self, tracker):
        tracker.claim_path(np.array([1, 1, 1, 2]))
        tracker.claim_path(np.array([2, 1, 2, 2]))
        with pytest.raises(CapacityError) as err:
            tracker.claim_path(np.array([0, 1, 0, 2]))
        assert err.value.code == SCH002
        assert (err.value.window, err.value.processor) == (1, 1)
        assert "processor 1 full in window 1" in str(err.value)
        assert tracker.occupancy[[0, 2], 0].tolist() == [0, 0]

    def test_claim_path_shape_checked(self, tracker):
        with pytest.raises(ValueError):
            tracker.claim_path(np.array([0, 1]))

    def test_occupancy_view_readonly(self, tracker):
        with pytest.raises(ValueError):
            tracker.occupancy[0, 0] = 5

    def test_available_mask_shape(self, tracker):
        assert tracker.available_mask().shape == (4, 3)


class TestClaimPaths:
    def test_earlier_row_wins_a_cells_last_slot(self, tracker):
        tracker.claim_path(np.array([0, 2, 0, 0]))  # window 1, pid 2: one left
        paths = np.array([[0, 2, 0, 0], [1, 2, 1, 1]])
        assert tracker.claim_paths(paths) == 1
        assert tracker.occupancy[1, 2] == 2
        assert tracker.occupancy[:, 1].tolist() == [0, 0, 0, 0]

    def test_nothing_is_claimed_past_the_prefix(self, tracker):
        tracker.claim_path(np.array([2, 2, 2, 0]))
        tracker.claim_path(np.array([2, 2, 2, 0]))
        # row 1 hits the full cell (window 3, pid 0); row 2 would fit
        paths = np.array([[1, 1, 1, 1], [0, 0, 0, 0], [0, 0, 0, 2]])
        assert tracker.claim_paths(paths) == 1
        assert tracker.occupancy.tolist() == [
            [0, 1, 2], [0, 1, 2], [0, 1, 2], [2, 1, 0],
        ]

    def test_base_mask_is_honoured_and_recorded(self, tracker):
        base = np.ones((4, 3), dtype=bool)
        base[2, 1] = False
        tracker.claim_path(np.array([0, 2, 2, 2]))
        paths = np.array([[0, 0, 0, 0], [1, 1, 1, 1], [2, 2, 2, 2]])
        masks = np.zeros((3, 4, 3), dtype=bool)
        assert tracker.claim_paths(paths, base=base, masks=masks) == 1
        assert tracker.occupancy[:, 0].tolist() == [2, 1, 1, 1]
        assert np.array_equal(masks[0], base)  # every slot free at row 0
        assert not masks[1:].any()  # unclaimed rows are left alone

    def test_turn_masks_see_the_cells_filled_before_them(self, tracker):
        paths = np.array([[0, 0, 0, 0], [0, 1, 1, 1], [2, 2, 2, 2]])
        masks = np.zeros((3, 4, 3), dtype=bool)
        assert tracker.claim_paths(paths, masks=masks) == 3
        assert masks[:2].all()
        full = np.ones((4, 3), dtype=bool)
        full[0, 0] = False  # rows 0 and 1 took both slots
        assert np.array_equal(masks[2], full)

    def test_path_width_checked(self, tracker):
        with pytest.raises(ValueError):
            tracker.claim_paths(np.zeros((2, 3), dtype=np.int64))


@st.composite
def claim_cases(draw):
    """A tracker with some paths claimed, paths to claim and an optional
    base mask; up to 150 rows, so the doubling prefix search is used.
    Each processor's capacity is its busiest window's load plus a drawn
    headroom, so cells are full where the headroom is 0."""
    n_procs = draw(st.integers(1, 4))
    n_windows = draw(st.integers(1, 4))
    taken = draw(arrays(np.int64, (draw(st.integers(0, 40)), n_windows),
                        elements=st.integers(0, n_procs - 1)))
    load = np.zeros((n_windows, n_procs), dtype=np.int64)
    np.add.at(load, (np.arange(n_windows), taken), 1)
    headroom = draw(arrays(np.int64, n_procs, elements=st.integers(0, 60)))
    plan = CapacityPlan(load.max(axis=0) + headroom)
    n_rows = draw(st.integers(0, 150))
    paths = draw(arrays(np.int64, (n_rows, n_windows),
                        elements=st.integers(0, n_procs - 1)))
    base = draw(st.none() | arrays(np.bool_, (n_windows, n_procs)))
    return plan, taken, paths, base


@given(claim_cases())
@settings(max_examples=150, deadline=None)
def test_claim_paths_equals_a_loop_of_claim_path(case):
    plan, taken, paths, base = case
    tracker = OccupancyTracker(plan, n_windows=taken.shape[1])
    reference = OccupancyTracker(plan, n_windows=taken.shape[1])
    for path in taken:
        tracker.claim_path(path)
        reference.claim_path(path)
    expected_masks, windows = [], np.arange(tracker.n_windows)
    for path in paths:
        available = reference.available_mask()
        turn = available if base is None else base & available
        if not turn[windows, path].all():
            break
        expected_masks.append(turn)
        reference.claim_path(path)
    masks = np.zeros((len(paths), *tracker.occupancy.shape), dtype=bool)
    claimed = tracker.claim_paths(paths, base=base, masks=masks)
    assert claimed == len(expected_masks)
    assert np.array_equal(tracker.occupancy, reference.occupancy)
    for got, want in zip(masks, expected_masks):
        assert np.array_equal(got, want)
    assert not masks[claimed:].any()


class TestFirstAvailable:
    def test_picks_cheapest_available(self):
        cost = np.array([5.0, 1.0, 3.0])
        available = np.array([True, True, True])
        assert first_available(cost, available) == 1

    def test_skips_full_processors(self):
        cost = np.array([5.0, 1.0, 3.0])
        available = np.array([True, False, True])
        assert first_available(cost, available) == 2

    def test_tie_breaks_toward_low_pid(self):
        cost = np.array([2.0, 2.0, 2.0])
        available = np.array([True, True, True])
        assert first_available(cost, available) == 0
        available[0] = False
        assert first_available(cost, available) == 1

    def test_raises_when_nothing_free(self):
        with pytest.raises(CapacityError):
            first_available(np.array([1.0, 2.0]), np.array([False, False]))
