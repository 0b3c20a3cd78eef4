import numpy as np
import pytest

from socfem import make_time_grid, sample

from helpers import reference_increments

# one to five 32-bit words, so the seed words past the pool of four are mixed too
SEEDS = [0, 7, 2**31 - 1, 2**32, 2**64 + 5, 2**130 + 3]


def assert_same_bits(a: np.ndarray, b: np.ndarray):
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))  # sign bits included


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

    @pytest.mark.parametrize("P,seed", [(0, 1), (2**32 + 1, 1), (3, -4)])
    def test_invalid_arguments(self, P, seed):
        with pytest.raises(ValueError):
            sample(P, make_time_grid(1.0, 4), seed)

    def test_seed_must_be_an_integer(self):
        grid = make_time_grid(1.0, 4)
        with pytest.raises(TypeError):
            sample(3, grid, 7.0)
        assert_same_bits(sample(3, grid, np.int64(7)).increments, sample(3, grid, 7).increments)


class TestSeeding:
    """``sample`` seeds all paths in one array pass; each path must still
    draw exactly what its own ``SeedSequence(seed, spawn_key=(p,))`` draws."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_per_path_seed_sequences(self, seed):
        grid = make_time_grid(1.3, 9)
        assert_same_bits(sample(40, grid, seed).increments, reference_increments(40, grid, seed))

    @pytest.mark.parametrize("P,steps", [(1, 7), (1000, 3), (6, 1)])
    def test_matches_per_path_seed_sequences_at_edge_sizes(self, P, steps):
        grid = make_time_grid(0.7, steps)
        for seed in (0, 2**64 + 5):
            assert_same_bits(sample(P, grid, seed).increments, reference_increments(P, grid, seed))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_larger_ensemble_extends_a_smaller_one(self, seed):
        grid = make_time_grid(1.0, 5)
        assert_same_bits(sample(3, grid, seed).increments, sample(700, grid, seed).increments[:3])
