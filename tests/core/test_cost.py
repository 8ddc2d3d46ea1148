"""CostModel unit tests."""

import numpy as np
import pytest

from repro.core import CostModel
from repro.core.kernels import placement_cost_tensor_python
from repro.grid import Mesh1D, Mesh2D
from tests.cost_helpers import cost_row, one_window_tensor


class TestPlacementCosts:
    def test_hand_computed_1d(self):
        model = CostModel(Mesh1D(4))
        # 2 refs at proc 0, 1 ref at proc 3
        costs = cost_row(model, [2, 0, 0, 1])
        # cost(c) = 2|c-0| + |c-3|
        assert costs.tolist() == [3.0, 4.0, 5.0, 6.0]

    def test_one_window_tensor_shape(self):
        model = CostModel(Mesh1D(3))
        costs = model.all_placement_costs(one_window_tensor([1, 0, 0]))
        assert costs.shape == (1, 1, 3)
        assert costs[0, 0].tolist() == [0.0, 1.0, 2.0]

    def test_zero_references_zero_cost(self, model44):
        costs = model44.all_placement_costs(one_window_tensor(np.zeros((2, 16))))
        assert costs.shape == (2, 1, 16)
        assert not costs.any()

    def test_rejects_wrong_width(self, model44):
        with pytest.raises(ValueError):
            model44.all_placement_costs(one_window_tensor(np.ones((2, 5))))

    def test_all_placement_costs_matches_per_datum(self, tiny_tensor, mesh23):
        model = CostModel(mesh23)
        full = model.all_placement_costs(tiny_tensor)
        assert full.shape == (2, 3, 6)
        assert np.array_equal(full, placement_cost_tensor_python(tiny_tensor, model))

    def test_all_placement_costs_rejects_other_array(self, tiny_tensor):
        model = CostModel(Mesh2D(4, 4))
        with pytest.raises(ValueError):
            model.all_placement_costs(tiny_tensor)


class TestVolumes:
    def test_volume_scales_costs(self):
        topo = Mesh1D(3)
        unit = CostModel(topo)
        heavy = CostModel(topo, volumes=np.array([2.0, 5.0]))
        tensor = one_window_tensor([[1, 0, 0], [1, 0, 0]])
        assert np.array_equal(
            heavy.all_placement_costs(tensor)[1],
            5 * unit.all_placement_costs(tensor)[1],
        )

    def test_volume_lookup(self):
        model = CostModel(Mesh1D(3), volumes=np.array([2.0, 5.0]))
        assert model.volume(0) == 2.0
        assert model.volume(1) == 5.0
        assert CostModel(Mesh1D(3)).volume(7) == 1.0

    def test_movement_cost(self):
        model = CostModel(Mesh1D(5), volumes=np.array([3.0]))
        assert model.movement_cost(0, 0, 4) == 12.0
        assert model.movement_cost(0, 2, 2) == 0.0

    def test_movement_cost_matrix(self):
        model = CostModel(Mesh1D(3), volumes=np.array([2.0]))
        assert np.array_equal(
            model.movement_cost_matrix(0), 2.0 * model.distances
        )
        # unit model ignores d
        assert np.array_equal(
            CostModel(Mesh1D(3)).movement_cost_matrix(0),
            CostModel(Mesh1D(3)).distances,
        )

    def test_volume_validation(self):
        with pytest.raises(ValueError):
            CostModel(Mesh1D(3), volumes=np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            CostModel(Mesh1D(3), volumes=np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_non_finite_volume_rejected(self, bad):
        # NaN compares False against everything, so it once slipped past
        # the positivity check and the schedulers returned pid 0 silently
        with pytest.raises(ValueError, match="finite; datum 1"):
            CostModel(Mesh1D(3), volumes=np.array([1.0, bad]))

    def test_volume_count_mismatch_caught(self, tiny_tensor, mesh23):
        model = CostModel(mesh23, volumes=np.array([1.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            model.all_placement_costs(tiny_tensor)
