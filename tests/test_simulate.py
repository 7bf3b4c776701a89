import numpy as np
import pytest

from permpatterns import (
    BinaryMatrix,
    FitConfig,
    boolean_product,
    error_rates,
    fit,
    marginal_probs,
    pcp_matrix,
    plant_factorization,
    simulate_independent,
)
from permpatterns.core import DimensionError
from permpatterns import simulate
from permpatterns.simulate import pcp_histogram

from helpers import matrix_from_rows


class TestMarginalProbs:
    def test_all_ones_column(self):
        x = matrix_from_rows([[1, 0], [1, 1]])
        probs = marginal_probs(x)
        assert probs[0] == 1.0 and probs[1] == 0.5

    def test_alternating(self):
        x = matrix_from_rows([[1], [0], [1], [0]])
        assert marginal_probs(x)[0] == 0.5

    def test_no_rows(self):
        with pytest.raises(DimensionError, match="at least one row"):
            marginal_probs(BinaryMatrix(np.zeros((0, 3), dtype=np.uint8)))


class TestSimulateIndependent:
    def test_extreme_probabilities(self):
        x = simulate_independent(np.array([0.0, 1.0]), 50, seed=0)
        assert np.all(x.data[:, 0] == 0)
        assert np.all(x.data[:, 1] == 1)

    def test_deterministic(self):
        p = np.array([0.2, 0.7, 0.4])
        a = simulate_independent(p, 100, seed=3)
        b = simulate_independent(p, 100, seed=3)
        assert np.array_equal(a.data, b.data)

    def test_concentration(self):
        x = simulate_independent(np.array([0.3]), 100000, seed=1)
        assert x.data.mean() == pytest.approx(0.3, abs=0.01)

    def test_column_means_within_3_sigma(self):
        p = np.array([0.1, 0.4, 0.8])
        n = 100000
        x = simulate_independent(p, n, seed=2)
        means = x.data.mean(axis=0)
        sigma = np.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(means - p) <= 3 * sigma + 1e-9)

    def test_blocks_equal_one_draw(self, monkeypatch):
        monkeypatch.setattr(simulate, "_BLOCK_ROWS", 8)
        p = np.array([0.1, 0.5, 0.0, 1.0, 0.93])
        want = np.random.default_rng(9).random((8 * 3 + 5, 5)) < p
        got = simulate_independent(p, 8 * 3 + 5, seed=9)
        assert got.data.dtype == np.uint8
        assert np.array_equal(got.data, want)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            simulate_independent(np.array([1.2]), 10, seed=0)

    @pytest.mark.parametrize("p", [[0.5, np.nan], [np.nan], [-0.1, 0.5]])
    def test_nan_or_negative_probability(self, p):
        with pytest.raises(ValueError):
            simulate_independent(np.array(p), 10, seed=0)


class TestPlantFactorization:
    def test_noiseless_limit(self):
        x, z_true, u_true = plant_factorization(100, 12, 3, 0.3, 0.3,
                                                0.0, 0.5, seed=4)
        assert np.array_equal(x.data, boolean_product(z_true, u_true).data)

    def test_pure_noise_limit(self):
        x, _, _ = plant_factorization(50000, 5, 2, 0.3, 0.3, 1.0, 0.4, seed=5)
        assert np.allclose(x.data.mean(axis=0), 0.4, atol=0.01)

    def test_noise_flip_fraction(self):
        x, z_true, u_true = plant_factorization(2000, 50, 5, 0.2, 0.3,
                                                0.05, 0.5, seed=6)
        clean = boolean_product(z_true, u_true)
        flipped = np.mean(x.data != clean.data)
        # resampled entries flip with probability depending on the clean bit;
        # per-entry expectation over the planted instance:
        clean_f = clean.data.astype(float)
        expected = 0.05 * np.mean(clean_f * 0.5 + (1 - clean_f) * 0.5)
        assert flipped == pytest.approx(expected, abs=0.005)

    def test_noiseless_fit_has_zero_residuals(self):
        x, _, _ = plant_factorization(300, 16, 3, 0.25, 0.3, 0.0, 0.5, seed=4)
        fact = fit(x, 3, FitConfig(seed=0))
        rates = error_rates(x, fact.z, fact.u)
        assert rates.mean_fn == 0.0 and rates.mean_fp == 0.0

    def test_invalid_density(self):
        with pytest.raises(ValueError):
            plant_factorization(10, 5, 2, 1.5, 0.3, 0.0, 0.5, seed=0)


class TestPcpHistogram:
    def test_identical_inputs(self):
        rng = np.random.default_rng(8)
        x = BinaryMatrix((rng.random((40, 8)) < 0.4).astype(np.uint8))
        pcp, _ = pcp_matrix(x)
        hist = pcp_histogram(pcp, pcp)
        assert np.array_equal(hist.counts_real, hist.counts_sim)

    def test_all_zero_pairs_in_lowest_bin(self):
        pcp = np.zeros((5, 5))
        hist = pcp_histogram(pcp, pcp)
        assert hist.counts_real[0] == 20
        assert hist.counts_real[1:].sum() == 0

    def test_totals_equal_pair_count(self):
        rng = np.random.default_rng(9)
        x = BinaryMatrix((rng.random((60, 10)) < 0.3).astype(np.uint8))
        sim = simulate_independent(marginal_probs(x), 60, seed=10)
        hist = pcp_histogram(pcp_matrix(x)[0], pcp_matrix(sim)[0])
        assert hist.counts_real.sum() == 10 * 9
        assert hist.counts_sim.sum() == 10 * 9

    def test_bin_centers_log_spaced(self):
        hist = pcp_histogram(np.zeros((3, 3)), np.zeros((3, 3)), bins=10)
        ratios = hist.bin_centers[1:] / hist.bin_centers[:-1]
        assert np.allclose(ratios, ratios[0])
        assert len(hist.bin_centers) == 10

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            pcp_histogram(np.zeros((3, 3)), np.zeros((4, 4)))

    def test_structured_exceeds_simulated(self):
        from permpatterns.evaluation import average_pcp
        x, _, _ = plant_factorization(2000, 30, 4, 0.2, 0.3, 0.05, 0.5, seed=11)
        sim = simulate_independent(marginal_probs(x), x.rows, seed=12)
        avg_real, _ = average_pcp(*pcp_matrix(x))
        avg_sim, _ = average_pcp(*pcp_matrix(sim))
        assert avg_real > avg_sim
