import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from permpatterns import (
    BinaryMatrix,
    FitConfig,
    assign_matrix,
    assign_patterns,
    boolean_product,
    engine,
    fit,
    log_likelihood,
    tempered_log_likelihood,
)
from permpatterns.core import ConfigError, DimensionError
from permpatterns.evaluation import error_rates
from permpatterns.engine import FitState, binarize, em_step
from permpatterns.simulate import plant_factorization

from helpers import matrix_from_rows, reference_em_step, signal_bernoulli_param


def random_binary(rng, shape, p=0.5):
    return BinaryMatrix((rng.random(shape) < p).astype(np.uint8))


def product_oracle(z, u):
    """Triple-loop OR-of-ANDs evaluation."""
    n, k = z.shape
    d = u.shape[1]
    out = [[0] * d for _ in range(n)]
    for i in range(n):
        for col in range(d):
            for j in range(k):
                if z[i, j] and u[j, col]:
                    out[i][col] = 1
                    break
    return out


class TestBooleanProduct:
    def test_identity(self):
        rng = np.random.default_rng(1)
        u = random_binary(rng, (4, 7))
        z = BinaryMatrix(np.eye(4, dtype=int))
        assert np.array_equal(boolean_product(z, u).data, u.data)

    def test_empty_assignment_row(self):
        z = matrix_from_rows([[0, 0], [1, 0]])
        u = matrix_from_rows([[1, 1, 0], [0, 1, 1]])
        out = boolean_product(z, u)
        assert out[0].tolist() == [0, 0, 0]

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(2)
        z = random_binary(rng, (12, 4))
        u = random_binary(rng, (4, 9))
        assert boolean_product(z, u).data.tolist() == product_oracle(z, u)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            boolean_product(matrix_from_rows([[1, 0]]), matrix_from_rows([[1]]))

    @given(st.integers(0, 2**30))
    @settings(max_examples=30)
    def test_monotone_in_inputs(self, seed):
        rng = np.random.default_rng(seed)
        z = random_binary(rng, (6, 3), 0.4)
        u = random_binary(rng, (3, 5), 0.4)
        base = boolean_product(z, u).data
        z2 = z.data.copy()
        zeros = np.argwhere(z2 == 0)
        if len(zeros):
            i, j = zeros[rng.integers(len(zeros))]
            z2[i, j] = 1
            more = boolean_product(BinaryMatrix(z2), u).data
            assert np.all(more >= base)

    @given(st.integers(0, 2**30))
    @settings(max_examples=30)
    def test_consistent_with_signal_param(self, seed):
        # entry is 1 exactly when q = 0 under deterministic beta
        rng = np.random.default_rng(seed)
        z = random_binary(rng, (5, 3), 0.4)
        u = random_binary(rng, (3, 4), 0.4)
        beta = 1.0 - u.data.astype(float)
        out = boolean_product(z, u)
        for i in range(5):
            for d in range(4):
                q = signal_bernoulli_param(z[i], beta, d)
                assert (out[i, d] == 1) == (q == 0.0)


class TestSignalParam:
    def test_empty_product(self):
        beta = np.array([[0.3], [0.7]])
        assert signal_bernoulli_param(np.array([0, 0]), beta, 0) == 1.0

    def test_single_factor(self):
        beta = np.array([[0.2], [0.9]])
        assert signal_bernoulli_param(np.array([1, 0]), beta, 0) == pytest.approx(0.2)

    def test_two_factor_product(self):
        beta = np.array([[0.5], [0.4], [0.9]])
        q = signal_bernoulli_param(np.array([1, 1, 0]), beta, 0)
        assert q == pytest.approx(0.20)


def make_state(rng, n, k, d, temperature=1.0):
    return FitState(
        beta=rng.uniform(0, 1, (k, d)),
        z=(rng.random((n, k)) < 0.4).astype(np.uint8),
        r=rng.uniform(0.1, 0.9),
        epsilon=rng.uniform(0.1, 0.9),
        temperature=temperature,
    )


def mixture_ll_oracle(x, state):
    """Direct per-entry evaluation without any shared code paths."""
    total = 0.0
    n, d = x.shape
    k = state.beta.shape[0]
    for i in range(n):
        for col in range(d):
            q = 1.0
            for j in range(k):
                if state.z[i, j]:
                    q *= state.beta[j, col]
            p_signal = (1.0 - q) if x[i, col] else q
            r = min(max(state.r, 1e-6), 1 - 1e-6)
            p_noise = r if x[i, col] else 1.0 - r
            p = state.epsilon * p_noise + (1 - state.epsilon) * p_signal
            total += math.log(p) if p > 0 else float("-inf")
    return total


class TestLogLikelihood:
    def test_pure_fair_noise(self):
        rng = np.random.default_rng(3)
        x = random_binary(rng, (4, 5))
        state = make_state(rng, 4, 2, 5)
        state.epsilon, state.r = 1.0, 0.5
        assert log_likelihood(x, state) == pytest.approx(20 * math.log(0.5))

    def test_perfect_deterministic_fit(self):
        rng = np.random.default_rng(4)
        z = random_binary(rng, (6, 3), 0.4)
        u = random_binary(rng, (3, 5), 0.4)
        x = boolean_product(z, u)
        state = FitState(beta=1.0 - u.data.astype(float), z=z.data.copy(),
                         r=0.5, epsilon=0.0, temperature=1.0)
        assert log_likelihood(x, state) == pytest.approx(0.0, abs=1e-12)

    def test_matches_per_entry_oracle(self):
        rng = np.random.default_rng(5)
        for k in [3] * 20 + [12]:
            x = random_binary(rng, (7, 6))
            state = make_state(rng, 7, k, 6)
            if k == 12:
                # fit reorders z's columns, which leaves z column-major; K=12
                # packs each row's key into two bytes
                state.z = np.asfortranarray(state.z)
            assert log_likelihood(x, state) == pytest.approx(
                mixture_ll_oracle(x.data, state), abs=1e-9)

    def test_zero_probability_gives_neg_inf(self):
        x = matrix_from_rows([[1]])
        state = FitState(beta=np.array([[1.0]]), z=np.array([[1]], dtype=np.uint8),
                         r=0.5, epsilon=0.0, temperature=1.0)
        assert log_likelihood(x, state) == float("-inf")


class TestEmStep:
    def test_fixed_point_unchanged(self):
        # every row is [1, 0], one pattern covering exactly column 0,
        # r = mean(x), epsilon pinned at the clamp floor
        n = 40
        x = BinaryMatrix(np.tile([1, 0], (n, 1)))
        state = FitState(beta=np.array([[0.0, 1.0]]),
                         z=np.ones((n, 1), dtype=np.uint8),
                         r=0.5, epsilon=1e-6, temperature=1.0)
        new = em_step(x, state)
        assert np.array_equal(new.z, state.z)
        assert np.array_equal(new.beta, state.beta)
        assert new.r == pytest.approx(0.5, abs=1e-12)
        assert new.epsilon == pytest.approx(1e-6, abs=1e-12)

    def test_truth_is_local_optimum(self):
        x, z_true, u_true = plant_factorization(
            60, 12, 3, 0.3, 0.3, 0.0, 0.5, seed=6)
        state = FitState(beta=1.0 - u_true.data.astype(float),
                         z=z_true.data.copy(), r=0.5, epsilon=0.01,
                         temperature=1.0)
        base = log_likelihood(x, state)
        for i in range(x.rows):
            for j in range(3):
                flipped = replace(state, z=state.z.copy())
                flipped.z[i, j] ^= 1
                assert log_likelihood(x, flipped) <= base + 1e-9
        new = em_step(x, state)
        assert np.array_equal(new.z, state.z)
        assert np.array_equal(new.beta, state.beta)

    def test_monotone_over_random_trials(self):
        rng = np.random.default_rng(7)
        x = random_binary(rng, (50, 10), 0.3)
        for trial in range(100):
            r = np.random.default_rng(trial)
            state = make_state(r, 50, 4, 10, temperature=r.uniform(0.1, 3.0))
            before = tempered_log_likelihood(x, state)
            after = tempered_log_likelihood(x, em_step(x, state))
            assert after >= before - 1e-9


def shared_rows_state(rng, n, k, d, temperature):
    """x and a fit state whose rows share a z but differ in x, and share an
    x but differ in z; two of the z differ only in their last bit, so with
    K > 8 they agree on the first byte of their packed keys."""
    z_pool = (rng.random((4, k)) < 0.4).astype(np.uint8)
    z_pool[1] = z_pool[0]
    z_pool[1, -1] ^= 1
    x_pool = (rng.random((4, d)) < 0.4).astype(np.uint8)
    x = BinaryMatrix(x_pool[rng.integers(0, 4, n)])
    state = FitState(beta=rng.uniform(0, 1, (k, d)),
                     z=z_pool[rng.integers(0, 4, n)],
                     r=rng.uniform(0.1, 0.9), epsilon=rng.uniform(0.1, 0.9),
                     temperature=temperature)
    return x, state


class TestEmStepOracle:
    @pytest.mark.parametrize("k", [1, 9, 12])
    @pytest.mark.parametrize("temperature", [2.0, 1.0, 0.05])
    def test_matches_per_entry_step(self, k, temperature):
        rng = np.random.default_rng(100 * k + int(20 * temperature))
        for _ in range(4):
            x, state = shared_rows_state(rng, 30, k, 14, temperature)
            new = em_step(x, state)
            beta, z, r, eps, ll = reference_em_step(x, state)
            assert np.array_equal(new.z, z)
            np.testing.assert_allclose(new.beta, beta, rtol=1e-12, atol=0)
            np.testing.assert_allclose([new.r, new.epsilon, new.log_likelihood],
                                       [r, eps, ll], rtol=1e-12, atol=0)

    def test_chunked_flip_search_equals_unchunked(self, monkeypatch):
        rng = np.random.default_rng(15)
        k, d = 9, 14
        x, state = shared_rows_state(rng, 23, k, d, 1.0)
        whole = em_step(x, state)
        assert not np.array_equal(whole.z, state.z)
        sizes = []
        group = engine._group

        def counted(z):
            sizes.append(len(z))
            return group(z)

        # 7 rows of (K+1) candidates x D permissions a chunk
        monkeypatch.setattr(engine, "_CHUNK_CELLS", 7 * (k + 1) * d)
        monkeypatch.setattr(engine, "_group", counted)
        chunked = em_step(x, state)
        # the E-step groups all rows, then the first pass searches in chunks
        assert sizes[:5] == [23, 7, 7, 7, 2]
        assert np.array_equal(chunked.z, whole.z)
        assert np.array_equal(chunked.beta, whole.beta)
        assert (chunked.r, chunked.epsilon, chunked.log_likelihood) == (
            whole.r, whole.epsilon, whole.log_likelihood)


class TestBinarize:
    def test_beta_zero_means_member(self):
        assert binarize(np.array([[0.0]])).data.tolist() == [[1]]

    def test_beta_one_means_absent(self):
        assert binarize(np.array([[1.0]])).data.tolist() == [[0]]

    def test_tie_rounds_to_zero(self):
        assert binarize(np.array([[0.5]])).data.tolist() == [[0]]


class TestFit:
    def test_all_zero_input(self):
        x = BinaryMatrix(np.zeros((30, 8), dtype=int))
        fact = fit(x, 2, FitConfig(seed=0))
        rates = error_rates(x, fact.z, fact.u)
        assert rates.mean_fn == 0.0 and rates.mean_fp == 0.0

    def test_k_larger_than_d_rejected(self):
        x = BinaryMatrix(np.ones((5, 3), dtype=int))
        with pytest.raises(ConfigError):
            fit(x, 4)

    def test_deterministic_for_fixed_seed(self):
        x, _, _ = plant_factorization(120, 15, 3, 0.25, 0.3, 0.05, 0.5, seed=8)
        a = fit(x, 3, FitConfig(seed=5))
        b = fit(x, 3, FitConfig(seed=5))
        assert np.array_equal(a.u.data, b.u.data)
        assert np.array_equal(a.z.data, b.z.data)
        assert a.epsilon == b.epsilon and a.r == b.r

    def test_noiseless_planted_recovery(self):
        from permpatterns.selection import match_patterns
        x, z_true, u_true = plant_factorization(
            400, 20, 3, 0.25, 0.3, 0.0, 0.5, seed=9)
        fact = fit(x, 3, FitConfig(seed=0))
        pi = match_patterns(u_true, fact.u)
        err = sum(int((u_true.data[j] != fact.u.data[pi[j]]).sum())
                  for j in range(3))
        assert err <= 0.02 * u_true.data.size

    def test_patterns_sorted_by_frequency(self):
        x, _, _ = plant_factorization(200, 12, 3, 0.3, 0.3, 0.02, 0.5, seed=10)
        fact = fit(x, 3, FitConfig(seed=1))
        counts = fact.z.data.sum(axis=0)
        assert list(counts) == sorted(counts, reverse=True)

    def test_json_round_shape(self):
        x, _, _ = plant_factorization(80, 10, 2, 0.3, 0.3, 0.0, 0.5, seed=11)
        fact = fit(x, 2, FitConfig(seed=0))
        doc = fact.to_json_dict()
        assert doc["K"] == 2
        assert len(doc["u"]) == 2 and len(doc["u"][0]) == 10
        assert len(doc["z_counts"]) == 2
        assert doc["seed"] == 0
        assert 0.0 <= doc["epsilon"] <= 1.0


def assignment_ll(x_row, u, selected, r, epsilon):
    covered = np.zeros(u.cols, dtype=bool)
    for j, s in enumerate(selected):
        if s:
            covered |= u.data[j].astype(bool)
    total = 0.0
    for d in range(u.cols):
        p_noise = r if x_row[d] else 1.0 - r
        p_signal = 1.0 if covered[d] == bool(x_row[d]) else 0.0
        total += math.log(epsilon * p_noise + (1 - epsilon) * p_signal)
    return total


def exhaustive_best(x_row, u, r, epsilon):
    k = u.rows
    best_ll, best = -math.inf, None
    for mask in range(2 ** k):
        selected = [(mask >> j) & 1 for j in range(k)]
        ll = assignment_ll(x_row, u, selected, r, epsilon)
        if ll > best_ll:
            best_ll, best = ll, selected
    return best_ll, best


class TestAssignPatterns:
    def test_empty_row(self):
        u = matrix_from_rows([[1, 0], [0, 1]])
        out = assign_patterns(np.zeros(2, dtype=int), u, 0.5, 0.05)
        assert out.tolist() == [0, 0]

    def test_exact_single_pattern(self):
        u = matrix_from_rows([[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0]])
        out = assign_patterns(np.array([0, 0, 1, 1]), u, 0.5, 0.05)
        assert out.tolist() == [0, 1, 0]
        _, best = exhaustive_best(np.array([0, 0, 1, 1]), u, 0.5, 0.05)
        assert out.tolist() == best

    def test_greedy_close_to_exhaustive(self):
        rng = np.random.default_rng(12)
        u = BinaryMatrix((rng.random((8, 12)) < 0.3).astype(np.uint8))
        hits = 0
        trials = 40
        for _ in range(trials):
            row = (rng.random(12) < 0.35).astype(np.uint8)
            got = assign_patterns(row, u, 0.4, 0.1)
            got_ll = assignment_ll(row, u, got.tolist(), 0.4, 0.1)
            best_ll, _ = exhaustive_best(row, u, 0.4, 0.1)
            if got_ll >= best_ll - 0.01 * abs(best_ll):
                hits += 1
        assert hits >= 0.95 * trials

    def test_matrix_chunks_equal_single_rows(self, monkeypatch):
        rng = np.random.default_rng(13)
        u = random_binary(rng, (6, 15), 0.3)
        x = random_binary(rng, (23, 15), 0.35)
        # 7 starts x 6 candidates x 15 permissions: 4 rows a chunk
        monkeypatch.setattr(engine, "_ASSIGN_CELLS", 4 * 7 * 6 * 15)
        chunks = []
        greedy = engine._greedy_assign

        def counted(rows, *args):
            chunks.append(len(rows))
            return greedy(rows, *args)

        monkeypatch.setattr(engine, "_greedy_assign", counted)
        got = assign_matrix(x, u, 0.3, 0.1).data
        assert chunks == [4, 4, 4, 4, 4, 3]
        rows = [assign_patterns(x[i], u, 0.3, 0.1) for i in range(x.rows)]
        assert got.tolist() == np.array(rows).tolist()

    def test_no_single_move_beats_result(self):
        rng = np.random.default_rng(14)
        for _ in range(60):
            k, d = int(rng.integers(1, 9)), int(rng.integers(3, 20))
            u = random_binary(rng, (k, d), rng.uniform(0.1, 0.5))
            x = random_binary(rng, (5, d), rng.uniform(0.1, 0.6))
            r, eps = rng.uniform(0.05, 0.95), rng.uniform(0.01, 0.4)
            for row, z in zip(x.data, assign_matrix(x, u, r, eps).data):
                got = assignment_ll(row, u, z, r, eps)
                # the empty set, each singleton, each single add or removal
                eye = list(np.eye(k, dtype=np.uint8))
                moves = [0 * z] + eye + [z ^ e for e in eye]
                for move in moves:
                    assert assignment_ll(row, u, move, r, eps) <= got + 1e-9

    def test_non_binary_row_rejected(self):
        u = matrix_from_rows([[1, 1, 0], [0, 1, 1]])
        for row in ([2, 0.5, 1.0], [257, 257, 0]):
            with pytest.raises(ValueError):
                assign_patterns(np.array(row), u, 0.5, 0.05)

    def test_matrix_dimension_mismatch(self):
        u = matrix_from_rows([[1, 0, 1], [0, 1, 1]])
        with pytest.raises(DimensionError):
            assign_matrix(matrix_from_rows([[1, 0], [0, 1]]), u, 0.5, 0.05)
