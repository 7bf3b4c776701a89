import math
import warnings

import numpy as np
import pytest

from permpatterns import (
    BinaryMatrix,
    average_pcp,
    boolean_product,
    error_rates,
    hamming_distance,
    pcp_matrix,
)
from permpatterns.core import DimensionError
from permpatterns import evaluation
from permpatterns.evaluation import category_divergence

from helpers import matrix_from_rows


def random_binary(rng, shape, p=0.5):
    return BinaryMatrix((rng.random(shape) < p).astype(np.uint8))


class TestErrorRates:
    def test_exact_reconstruction(self):
        rng = np.random.default_rng(0)
        z = random_binary(rng, (8, 3), 0.4)
        u = random_binary(rng, (3, 6), 0.4)
        x = boolean_product(z, u)
        rates = error_rates(x, z, u)
        assert rates.mean_fn == 0.0 and rates.mean_fp == 0.0

    def test_all_ones_vs_all_zeros(self):
        x = BinaryMatrix(np.ones((4, 7), dtype=int))
        z = BinaryMatrix(np.zeros((4, 2), dtype=int))
        u = BinaryMatrix(np.zeros((2, 7), dtype=int))
        rates = error_rates(x, z, u)
        assert rates.mean_fn == 7.0 and rates.mean_fp == 0.0

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(1)
        x = random_binary(rng, (10, 8))
        z = random_binary(rng, (10, 3), 0.4)
        u = random_binary(rng, (3, 8), 0.4)
        recon = boolean_product(z, u)
        rates = error_rates(x, z, u)
        for i in range(10):
            fn = sum(1 for d in range(8) if x[i, d] == 1 and recon[i, d] == 0)
            fp = sum(1 for d in range(8) if x[i, d] == 0 and recon[i, d] == 1)
            assert rates.fn_per_app[i] == fn
            assert rates.fp_per_app[i] == fp

    @pytest.mark.parametrize("x_shape", [(4, 6), (5, 7)])
    def test_shape_mismatch(self, x_shape):
        # z (4, 2) and u (2, 7) reconstruct a (4, 7) matrix
        x = BinaryMatrix(np.zeros(x_shape, dtype=np.uint8))
        z = BinaryMatrix(np.ones((4, 2), dtype=np.uint8))
        u = BinaryMatrix(np.ones((2, 7), dtype=np.uint8))
        with pytest.raises(DimensionError, match="reconstruction"):
            error_rates(x, z, u)

    def test_totals_equal_hamming(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = random_binary(rng, (9, 7))
            z = random_binary(rng, (9, 3), 0.4)
            u = random_binary(rng, (3, 7), 0.4)
            rates = error_rates(x, z, u)
            total = int(rates.fn_per_app.sum() + rates.fp_per_app.sum())
            assert total == hamming_distance(x, boolean_product(z, u))

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(3)
        x = random_binary(rng, (12, 6))
        z = random_binary(rng, (12, 3), 0.4)
        u = random_binary(rng, (3, 6), 0.4)
        perm = rng.permutation(6)
        rates1 = error_rates(x, z, u)
        rates2 = error_rates(BinaryMatrix(x.data[:, perm]), z,
                             BinaryMatrix(u.data[:, perm]))
        assert np.array_equal(rates1.fn_per_app, rates2.fn_per_app)
        assert np.array_equal(rates1.fp_per_app, rates2.fp_per_app)

    def test_cumulative_curves(self):
        x = matrix_from_rows([[1, 1, 1], [1, 0, 0], [0, 0, 0]])
        z = BinaryMatrix(np.zeros((3, 1), dtype=int))
        u = BinaryMatrix(np.zeros((1, 3), dtype=int))
        rates = error_rates(x, z, u)
        # fn counts are 3, 1, 0 -> P(fn > 0) = 2/3, P(fn > 1) = 1/3
        assert rates.cumulative_fn[0] == pytest.approx(2 / 3)
        assert rates.cumulative_fn[1] == pytest.approx(1 / 3)
        assert rates.cumulative_fn[3] == 0.0

    def test_cumulative_equals_per_threshold_definition(self):
        rng = np.random.default_rng(8)
        for trial in range(300):
            n = int(rng.integers(1, 60))
            counts = rng.integers(0, rng.integers(1, 40), n)
            if trial % 3 == 0:      # most apps at 0, as residual counts are
                counts[rng.random(n) < 0.7] = 0
            want = np.array([(counts > t).sum() / n
                             for t in range(int(counts.max()) + 1)])
            got = evaluation._cumulative_gt(counts)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


class TestPcp:
    def test_perfect_co_occurrence(self):
        x = matrix_from_rows([[1, 1], [1, 1], [0, 0]])
        pcp, undefined = pcp_matrix(x)
        assert pcp[0, 1] == 1.0 and pcp[1, 0] == 1.0
        assert undefined == []

    def test_asymmetry(self):
        # s requested by all 4 apps, t by half of them
        x = matrix_from_rows([[1, 1], [1, 1], [1, 0], [1, 0]])
        pcp, _ = pcp_matrix(x)
        assert pcp[0, 1] == 1.0
        assert pcp[1, 0] == 0.5

    def test_diagonal_is_one_for_requested(self):
        rng = np.random.default_rng(4)
        x = random_binary(rng, (30, 6), 0.4)
        pcp, undefined = pcp_matrix(x)
        for d in range(6):
            if d not in undefined:
                assert pcp[d, d] == 1.0

    def test_blocks_equal_one_float64_product(self, monkeypatch):
        monkeypatch.setattr(evaluation, "_BLOCK_ROWS", 7)
        rng = np.random.default_rng(6)
        data = (rng.random((7 * 4 + 3, 9)) < 0.3).astype(np.uint8)
        data[:, 4] = 0
        x = BinaryMatrix(data)
        pcp, undefined = pcp_matrix(x)
        xf = x.data.astype(np.float64)
        counts = xf.sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            want = xf.T @ xf / counts[None, :]
        want[:, counts == 0] = 0.0
        assert undefined == [4]
        assert np.array_equal(pcp, want)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(5)
        x = random_binary(rng, (50, 10), 0.3)
        pcp, undefined = pcp_matrix(x)
        for s in range(10):
            for t in range(10):
                count_t = sum(x[i, t] for i in range(50))
                if count_t == 0:
                    assert t in undefined
                    assert pcp[s, t] == 0.0
                else:
                    both = sum(x[i, s] * x[i, t] for i in range(50))
                    assert pcp[s, t] == pytest.approx(both / count_t, abs=1e-12)

    def test_never_requested_flagged(self):
        x = matrix_from_rows([[1, 0], [1, 0]])
        pcp, undefined = pcp_matrix(x)
        assert undefined == [1]
        assert np.all(pcp[:, 1] == 0.0)


class TestAveragePcp:
    def test_all_ones(self):
        x = BinaryMatrix(np.ones((5, 4), dtype=int))
        avg, degenerate = average_pcp(*pcp_matrix(x))
        assert avg == 1.0 and not degenerate

    def test_single_permission_degenerate(self):
        x = matrix_from_rows([[1]])
        avg, degenerate = average_pcp(*pcp_matrix(x))
        assert avg == 0.0 and degenerate

    def test_matches_oracle_mean(self):
        rng = np.random.default_rng(6)
        x = random_binary(rng, (40, 7), 0.4)
        pcp, undefined = pcp_matrix(x)
        avg, _ = average_pcp(pcp, undefined)
        vals = [pcp[s, t] for s in range(7) for t in range(7)
                if s != t and t not in undefined]
        assert avg == pytest.approx(sum(vals) / len(vals))


class TestCategoryDivergence:
    def test_uniform_random_assignment_near_zero(self):
        rng = np.random.default_rng(8)
        n = 20000
        categories = [f"c{i % 5}" for i in range(n)]
        z = BinaryMatrix((rng.random((n, 1)) < 0.3).astype(np.uint8))
        kl = category_divergence(z, categories)
        assert kl.shape == (1,)
        assert kl[0] == pytest.approx(0.0, abs=0.05)

    @pytest.mark.parametrize("smoothing", [0.5, 3.0, 1e3])
    def test_concentrated_pattern_matches_summation_oracle(self, smoothing):
        # pattern members all in category 0 of 4 equal categories
        per_cat = 50
        categories = [f"c{j}" for j in range(4) for _ in range(per_cat)]
        members = np.zeros((4 * per_cat, 1), dtype=np.uint8)
        members[:per_cat] = 1
        z = BinaryMatrix(members)
        kl = category_divergence(z, categories, smoothing=smoothing)
        p_g = [(per_cat + smoothing) / (200 + 4 * smoothing)] * 4
        p_k_counts = [per_cat, 0, 0, 0]
        tot = per_cat + 4 * smoothing
        p_k = [(c + smoothing) / tot for c in p_k_counts]
        expected = sum(g * math.log2(g / k) for g, k in zip(p_g, p_k))
        assert kl[0] == pytest.approx(expected, abs=1e-12)

    def test_huge_smoothing_does_not_overflow(self):
        # 8 categories of smoothing 1e308 sum past the largest float; the
        # smoothing swamps the counts, so both distributions are uniform
        rng = np.random.default_rng(11)
        categories = [f"c{i % 8}" for i in range(80)]
        z = random_binary(rng, (80, 3), 0.4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kl = category_divergence(z, categories, smoothing=1e308)
        assert kl.tolist() == pytest.approx([0.0] * 3, abs=1e-12)

    def test_zero_smoothing_gives_inf_without_warning(self):
        # the first pattern misses category b, the second holds both
        z = matrix_from_rows([[1, 1], [1, 1], [0, 1], [0, 1]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kl = category_divergence(z, list("aabb"), smoothing=0.0)
        assert kl[0] == math.inf
        assert kl[1] == pytest.approx(0.0, abs=1e-12)

    def test_each_pattern_as_if_alone(self):
        # the K values of one call equal K one-pattern calls
        rng = np.random.default_rng(10)
        n = 60
        categories = [f"c{rng.integers(4)}" for _ in range(n)]
        z = random_binary(rng, (n, 5), 0.3)
        kl = category_divergence(z, categories, smoothing=0.25)
        for k in range(5):
            alone = category_divergence(BinaryMatrix(z.data[:, [k]]),
                                        categories, smoothing=0.25)
            assert kl[k] == alone[0]

    def test_non_negative_and_zero_iff_equal(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = 60
            categories = [f"c{rng.integers(3)}" for _ in range(n)]
            z = random_binary(rng, (n, 2), 0.5)
            kl = category_divergence(z, categories)
            assert all(v >= 0.0 for v in kl if not math.isnan(v))
        # identical smoothed distributions: pattern contains every app
        categories = ["a"] * 10 + ["b"] * 10
        z = BinaryMatrix(np.ones((20, 1), dtype=int))
        assert category_divergence(z, categories)[0] == pytest.approx(0.0)

    def test_empty_pattern_is_nan(self):
        members = np.zeros((5, 3), dtype=int)
        members[:2, 0] = members[1:, 2] = 1
        kl = category_divergence(BinaryMatrix(members), list("aabbb"))
        assert math.isnan(kl[1])
        assert not math.isnan(kl[0]) and not math.isnan(kl[2])

    def test_category_count_checked(self):
        with pytest.raises(DimensionError):
            category_divergence(BinaryMatrix(np.ones((5, 1), dtype=int)),
                                ["a"] * 4)
