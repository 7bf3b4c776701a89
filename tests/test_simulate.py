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
from permpatterns.simulate import pcp_bins, pcp_histogram

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


def histogram_by_value(pcp, edges):
    """Independent oracle: each off-diagonal PCP value placed one by one in
    the bin [edges[i], edges[i + 1]) that holds it, the last bin closed at
    1, and a value below edges[0] in the lowest bin."""
    edges = edges.tolist()
    counts = [0] * (len(edges) - 1)
    for s, row in enumerate(pcp.tolist()):
        for t, v in enumerate(row):
            if s == t:
                continue
            i = 0
            while i < len(counts) - 1 and v >= edges[i + 1]:
                i += 1
            counts[i] += 1
    return counts


class TestPcpHistogram:
    def test_identical_inputs(self):
        rng = np.random.default_rng(8)
        x = BinaryMatrix((rng.random((40, 8)) < 0.4).astype(np.uint8))
        pcp, _ = pcp_matrix(x)
        edges, _ = pcp_bins(20)
        counts = pcp_histogram(pcp, edges)
        assert np.array_equal(counts, pcp_histogram(pcp.copy(), edges))
        assert counts.tolist() == histogram_by_value(pcp, edges)

    def test_all_zero_pairs_in_lowest_bin(self):
        counts = pcp_histogram(np.zeros((5, 5)), pcp_bins(20)[0])
        assert counts[0] == 20
        assert counts[1:].sum() == 0

    def test_totals_equal_pair_count(self):
        rng = np.random.default_rng(9)
        x = BinaryMatrix((rng.random((60, 10)) < 0.3).astype(np.uint8))
        sim = simulate_independent(marginal_probs(x), 60, seed=10)
        edges, _ = pcp_bins(20)
        assert pcp_histogram(pcp_matrix(x)[0], edges).sum() == 10 * 9
        assert pcp_histogram(pcp_matrix(sim)[0], edges).sum() == 10 * 9

    def test_bin_centers_log_spaced(self):
        edges, centers = pcp_bins(10)
        ratios = centers[1:] / centers[:-1]
        assert np.allclose(ratios, ratios[0])
        assert len(centers) == 10 and len(edges) == 11
        assert edges[0] == pytest.approx(0.001) and edges[-1] == 1.0
        assert np.allclose(centers, np.sqrt(edges[:-1] * edges[1:]))

    @pytest.mark.parametrize("bins", [1, 7, 20, 50])
    def test_matches_per_value_oracle(self, bins):
        edges, _ = pcp_bins(bins)
        d = 16
        # values below 0.001, exactly 0.001 and 1, the inner edges
        # themselves, and random values spread over every decade
        special = [0.0, 1e-9, 0.0005, 0.000999, 0.001, 1.0, 1.0,
                   *edges[1:-1].tolist()]
        rng = np.random.default_rng(bins)
        off = 10.0 ** rng.uniform(-4.5, 0.0, d * (d - 1))
        off[:len(special)] = special
        drawn = np.full((d, d), 0.5)       # the diagonal is left out
        drawn[~np.eye(d, dtype=bool)] = rng.permutation(off)
        # and the ratios of counts that a real PCP matrix holds
        x, _, _ = plant_factorization(300, 20, 3, 0.2, 0.3, 0.05, 0.5,
                                      seed=21)
        for pcp in (drawn, pcp_matrix(x)[0]):
            counts = pcp_histogram(pcp, edges)
            assert counts.tolist() == histogram_by_value(pcp, edges)
            assert counts.sum() == len(pcp) * (len(pcp) - 1)

    def test_structured_exceeds_simulated(self):
        from permpatterns.evaluation import average_pcp
        x, _, _ = plant_factorization(2000, 30, 4, 0.2, 0.3, 0.05, 0.5, seed=11)
        sim = simulate_independent(marginal_probs(x), x.rows, seed=12)
        avg_real, _ = average_pcp(*pcp_matrix(x))
        avg_sim, _ = average_pcp(*pcp_matrix(sim))
        assert avg_real > avg_sim
