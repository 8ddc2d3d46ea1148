"""OccupancyTracker and processor-list unit tests."""

import numpy as np
import pytest

from repro.diagnostics import SCH002
from repro.mem import CapacityError, CapacityPlan, OccupancyTracker, first_available


@pytest.fixture
def tracker():
    return OccupancyTracker(CapacityPlan.uniform(3, 2), n_windows=4)


class TestOccupancyTracker:
    def test_initially_everything_available(self, tracker):
        assert tracker.available_in_window(0).all()
        assert tracker.available_everywhere().all()

    def test_claim_single_window(self, tracker):
        tracker.claim(0, 1)
        assert tracker.occupancy[1, 0] == 1
        assert tracker.occupancy[0, 0] == 0

    def test_window_fills_up(self, tracker):
        tracker.claim(0, 2)
        tracker.claim(0, 2)
        assert not tracker.available_in_window(2)[0]
        with pytest.raises(CapacityError):
            tracker.claim(0, 2)

    def test_claim_range(self, tracker):
        tracker.claim(1, 0, 2)
        assert tracker.occupancy[:, 1].tolist() == [1, 1, 1, 0]

    def test_available_in_range_requires_all_windows(self, tracker):
        tracker.claim(2, 1)
        tracker.claim(2, 1)
        assert tracker.available_in_range(0, 0)[2]
        assert not tracker.available_in_range(0, 2)[2]

    def test_claim_path(self, tracker):
        tracker.claim_path(np.array([0, 1, 2, 0]))
        assert tracker.occupancy[0, 0] == 1
        assert tracker.occupancy[1, 1] == 1

    def test_claim_path_rejects_full_cell(self, tracker):
        tracker.claim(1, 2)
        tracker.claim(1, 2)
        with pytest.raises(CapacityError):
            tracker.claim_path(np.array([0, 0, 1, 0]))
        # failed claim must not partially commit
        assert tracker.occupancy[0, 0] == 0

    def test_claim_path_error_names_first_full_cell(self, tracker):
        for proc, window in ((2, 3), (2, 3), (1, 1), (1, 1)):
            tracker.claim(proc, window)
        with pytest.raises(CapacityError) as err:
            tracker.claim_path(np.array([0, 1, 0, 2]))
        assert err.value.code == SCH002
        assert (err.value.window, err.value.processor) == (1, 1)
        assert "processor 1 full in window 1" in str(err.value)
        assert tracker.occupancy[[0, 2], 0].tolist() == [0, 0]

    def test_claim_path_shape_checked(self, tracker):
        with pytest.raises(ValueError):
            tracker.claim_path(np.array([0, 1]))

    def test_bad_ranges(self, tracker):
        with pytest.raises(ValueError):
            tracker.claim(0, 3, 1)
        with pytest.raises(ValueError):
            tracker.available_in_range(-1, 2)

    def test_occupancy_view_readonly(self, tracker):
        with pytest.raises(ValueError):
            tracker.occupancy[0, 0] = 5

    def test_available_mask_shape(self, tracker):
        assert tracker.available_mask().shape == (4, 3)


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


class TestSnapshotRestore:
    def test_roundtrip(self, tracker):
        tracker.claim(0, 1)
        state = tracker.snapshot()
        tracker.claim(1, 2)
        tracker.claim(2, 0, 3)
        tracker.restore(state)
        assert tracker.occupancy[1, 0] == 1
        assert tracker.occupancy[2, 1] == 0
        assert tracker.occupancy[0, 2] == 0

    def test_snapshot_is_a_copy(self, tracker):
        state = tracker.snapshot()
        tracker.claim(0, 0)
        assert state[0, 0] == 0

    def test_restore_shape_checked(self, tracker):
        import numpy as np
        import pytest

        with pytest.raises(ValueError):
            tracker.restore(np.zeros((2, 2), dtype=np.int64))
