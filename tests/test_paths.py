import numpy as np
import pytest

from socfem import make_time_grid, sample


class TestSample:
    def test_shape_and_variance(self):
        grid = make_time_grid(1.0, 40)
        ens = sample(2000, grid, seed=7)
        assert ens.increments.shape == (2000, 40)
        var = ens.increments.var()
        assert var == pytest.approx(1 / 40, rel=0.1)
        bound = 4 * np.sqrt(grid.tau / (2000 * 40))
        assert abs(ens.increments.mean()) <= bound

    def test_determinism(self):
        grid = make_time_grid(1.0, 12)
        a = sample(64, grid, seed=123)
        b = sample(64, grid, seed=123)
        assert np.array_equal(a.increments, b.increments)

    def test_terminal_variance_is_horizon(self):
        grid = make_time_grid(2.0, 25)
        ens = sample(4000, grid, seed=5)
        w_T = ens.brownian_at(grid.N)
        assert w_T.var() == pytest.approx(2.0, rel=0.12)

    def test_path_substreams_independent_of_count(self):
        grid = make_time_grid(1.0, 10)
        small = sample(5, grid, seed=9)
        large = sample(8, grid, seed=9)
        assert np.array_equal(small.increments, large.increments[:5])

    def test_subset_view(self):
        grid = make_time_grid(1.0, 6)
        ens = sample(10, grid, seed=2)
        sub = ens.subset(3, 7)
        assert np.array_equal(sub.increments, ens.increments[3:7])
        assert np.array_equal(sub.brownian, ens.brownian[3:7])
        assert np.shares_memory(sub.brownian, ens.brownian)

    @pytest.mark.parametrize("P,seed", [(0, 1), (3, -4)])
    def test_invalid_arguments(self, P, seed):
        with pytest.raises(ValueError):
            sample(P, make_time_grid(1.0, 4), seed)
