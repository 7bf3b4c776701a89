import math
import warnings
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
from permpatterns.core import ConfigError, DimensionError, binarize
from permpatterns.evaluation import error_rates
from permpatterns.engine import FitState, em_step
from permpatterns.simulate import plant_factorization

from helpers import (
    matrix_from_rows,
    reference_assign,
    reference_em_step,
    reference_tempered_log_likelihood,
    signal_bernoulli_param,
)


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


class TestRangeEnds:
    """The public entry points raise no floating-point warning at the ends
    of the parameter ranges, and give -inf where an entry is impossible."""

    X = [[1, 0, 1, 0], [0, 0, 1, 1], [1, 1, 1, 1], [0, 0, 0, 0], [1, 0, 0, 0]]
    Z = [[1, 0], [0, 1], [1, 1], [0, 0], [0, 0]]
    # exact 0 and 1 entries: pattern 0 always fires on column 0
    BETA = [[0.0, 1.0, 0.5, 1.0], [1.0, 0.0, 1.0, 0.3]]

    @pytest.mark.parametrize("epsilon", [0.0, 1.0])
    @pytest.mark.parametrize("r", [0.0, 1.0])
    @pytest.mark.parametrize("temperature", [2.0, 1.0, 0.05])
    def test_state_at_range_ends(self, epsilon, r, temperature):
        x = matrix_from_rows(self.X)
        state = FitState(beta=np.array(self.BETA),
                         z=np.array(self.Z, dtype=np.uint8), r=r,
                         epsilon=epsilon, temperature=temperature)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ll = log_likelihood(x, state)
            tempered = tempered_log_likelihood(x, state)
            new = em_step(x, state)
        # the rows with z = 0 request column 0, which their signal never
        # does: without noise (epsilon 0) the entry is impossible
        want = mixture_ll_oracle(x.data, state)
        assert (ll == -math.inf) == (epsilon == 0.0) == (want == -math.inf)
        assert ll == pytest.approx(want, rel=1e-12, abs=0)
        assert tempered == pytest.approx(
            reference_tempered_log_likelihood(x, state), rel=1e-12, abs=0)
        beta, z, r_new, eps_new, step_ll = reference_em_step(x, state)
        assert np.array_equal(new.z, z)
        np.testing.assert_allclose(new.beta, beta, rtol=1e-12, atol=0)
        np.testing.assert_allclose([new.r, new.epsilon, new.log_likelihood],
                                   [r_new, eps_new, step_ll], rtol=1e-12,
                                   atol=0)

    @pytest.mark.parametrize("fill", [0, 1, "column"])
    def test_fit_on_data_at_range_ends(self, fill):
        """All-zero and all-one data drive r, epsilon and beta to the ends
        of their ranges."""
        x = np.zeros((12, 5), dtype=np.uint8)
        if fill == 1:
            x[:] = 1
        elif fill == "column":
            x[:, 0] = 1
        x = BinaryMatrix(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fact = fit(x, 2, FitConfig(seed=0, cooling_factor=0.5))
            ll = log_likelihood(x, FitState(
                beta=fact.beta, z=fact.z.data, r=fact.r,
                epsilon=fact.epsilon, temperature=1.0))
        assert fact.log_likelihood == ll
        assert math.isfinite(ll)
        assert ((fact.beta >= 0) & (fact.beta <= 1)).all()


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

    @pytest.mark.parametrize("function", [log_likelihood,
                                          tempered_log_likelihood, em_step])
    @pytest.mark.parametrize("x_shape,k_beta", [((8, 6), 3), ((7, 5), 3),
                                                ((7, 6), 4)],
                             ids=["extra-row", "missing-column",
                                  "extra-pattern"])
    def test_mismatched_shapes_rejected(self, function, x_shape, k_beta):
        # z is 7 x 3; beta has k_beta patterns over 6 permissions
        rng = np.random.default_rng(6)
        state = make_state(rng, 7, 3, 6)
        state.beta = rng.uniform(0, 1, (k_beta, 6))
        with pytest.raises(DimensionError):
            function(random_binary(rng, x_shape), state)


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


def assert_hand_off(x, state, hand_off):
    """hand_off is the E-step input of x and the state: the grouping of the
    state's rows and each group's log q and terms at its parameters."""
    rows, log_q, f0, f1 = hand_off
    want_rows, want_log_q, *terms = engine._tabulate(
        x.data, state, engine._clip(state.epsilon), 1.0 / state.temperature)
    for name in ("group", "vectors", "n0", "n1"):
        assert np.array_equal(getattr(rows, name),
                              getattr(want_rows, name)), name
    np.testing.assert_allclose(log_q, want_log_q, rtol=1e-12, atol=0)
    np.testing.assert_allclose((f0, f1), terms, rtol=1e-12, atol=0)


def assert_steps_as_reference(x, state):
    new = em_step(x, state)
    beta, z, r, eps, ll = reference_em_step(x, state)
    assert np.array_equal(new.z, z)
    np.testing.assert_allclose(new.beta, beta, rtol=1e-12, atol=0)
    np.testing.assert_allclose([new.r, new.epsilon, new.log_likelihood],
                               [r, eps, ll], rtol=1e-12, atol=0)


def assert_likelihoods_as_reference(x, state):
    """Both likelihoods equal their references and, being pure, leave the
    state's hand-off as it was."""
    table = state.table
    assert tempered_log_likelihood(x, state) == pytest.approx(
        reference_tempered_log_likelihood(x, state), rel=1e-12, abs=0)
    assert log_likelihood(x, state) == pytest.approx(
        mixture_ll_oracle(x.data, state), rel=1e-12, abs=0)
    assert state.table is table


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


# K = 64 packs a row's key into one 64-bit word, K = 65 into two.  At
# T = 0.05 the flip search fills rows of 64 patterns until q underflows,
# and flips of different bits then tie to the last digit, so the oracle
# and the step may pick different ones of equal score.
ORACLE_CASES = [(t, k) for k in (1, 9, 12) for t in (2.0, 1.0, 0.05)] + [
    (t, k) for k in (64, 65) for t in (2.0, 1.0)]


class TestEmStepOracle:
    @pytest.mark.parametrize("temperature, k", ORACLE_CASES)
    def test_matches_per_entry_step(self, k, temperature):
        rng = np.random.default_rng(100 * k + int(20 * temperature))
        # the row-by-row oracle takes seconds a state at K = 64
        for _ in range(4 if k < 64 else 1):
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
        sizes = []
        group = engine._group

        def counted(keys):
            sizes.append(len(keys))
            return group(keys)

        monkeypatch.setattr(engine, "_group", counted)
        whole = em_step(x, state)
        assert not np.array_equal(whole.z, state.z)
        # in one chunk, the first pass takes the E-step's grouping of the
        # rows and groups only their K+1 candidates each
        assert sizes[0] == 23
        assert sizes[1] % (k + 1) == 0
        sizes.clear()
        # 7 rows of (K+1) candidates x D permissions a chunk
        monkeypatch.setattr(engine, "_CHUNK_CELLS", 7 * (k + 1) * d)
        chunked = em_step(x, state)
        # the E-step groups all rows, then the first pass searches in chunks,
        # grouping each chunk's rows and then their K+1 candidates each
        assert sizes[0] == 23
        assert sizes[1:9:2] == [7, 7, 7, 2]
        assert all(n % (k + 1) == 0 for n in sizes[2:9:2])
        assert np.array_equal(chunked.z, whole.z)
        assert np.array_equal(chunked.beta, whole.beta)
        assert (chunked.r, chunked.epsilon, chunked.log_likelihood) == (
            whole.r, whole.epsilon, whole.log_likelihood)
        # either search hands off the terms of every final z, also where a
        # row's final z comes from another chunk or pass than its first
        for new in (whole, chunked):
            assert_hand_off(x, new, new.table)

    @pytest.mark.parametrize("temperature, k", ORACLE_CASES)
    def test_reported_log_likelihood(self, k, temperature):
        rng = np.random.default_rng(300 * k + int(20 * temperature))
        for _ in range(4):
            x, state = shared_rows_state(rng, 30, k, 14, temperature)
            new = em_step(x, state)
            assert new.log_likelihood == pytest.approx(
                tempered_log_likelihood(x, new), rel=1e-12, abs=0)

    @pytest.mark.parametrize("temperature", [2.0, 1.0, 0.05])
    def test_log_likelihood_is_the_sum_of_the_handed_table(self,
                                                           temperature):
        # exactly, not within a tolerance: a step sums the table it hands
        # on, as tempered_log_likelihood sums a fresh tabulation
        rng = np.random.default_rng(24)
        seen = set()
        for _ in range(10):
            x, state = shared_rows_state(rng, 30, 9, 14, temperature)
            for _ in range(5):
                new = em_step(x, state, state.table)
                if np.array_equal(new.z, state.z):
                    seen.add("still")
                    assert new.log_likelihood == engine._entry_sum(new.table)
                else:
                    seen.add("moved")
                    assert new.log_likelihood == tempered_log_likelihood(
                        x, new)
                state = new
        assert seen == {"moved", "still"}

    def test_hand_off_keeps_grouping_when_no_row_flips(self):
        rng = np.random.default_rng(18)
        x, state = shared_rows_state(rng, 30, 9, 14, 1.0)
        state = em_step(x, state)
        for _ in range(50):
            new = em_step(x, state, state.table)
            if np.array_equal(new.z, state.z):
                break
            state = new
        else:
            pytest.fail("every step flipped a row")
        # the E-step's own grouping goes on to the next step
        assert new.table[0] is state.table[0]
        assert_hand_off(x, new, new.table)

    @pytest.mark.parametrize("temperature", [2.0, 1.0, 0.05])
    def test_hand_off_is_a_fresh_tabulation_when_a_row_moves(self,
                                                             temperature):
        rng = np.random.default_rng(19)
        for _ in range(10):
            x, state = shared_rows_state(rng, 30, 9, 14, temperature)
            new = em_step(x, state)
            if not np.array_equal(new.z, state.z):
                break
        else:
            pytest.fail("no step moved a row")
        rows, _, f0, f1 = new.table
        want_rows, _, want_f0, want_f1 = engine._tabulate(
            x.data, new, new.epsilon, 1.0 / temperature)
        for name in ("group", "vectors", "n0", "n1"):
            assert np.array_equal(getattr(rows, name),
                                  getattr(want_rows, name)), name
        # bit for bit, not within a tolerance
        assert f0.tobytes() == want_f0.tobytes()
        assert f1.tobytes() == want_f1.tobytes()

    @staticmethod
    def moved_and_still_steps(x, state):
        """Steps from the state, each on the table the step before handed
        on, until one moves no row: a (step's state, new state) pair of a
        step that moved a row and one of a step that moved none."""
        moved = still = None
        for _ in range(50):
            new = em_step(x, state, state.table)
            if np.array_equal(new.z, state.z):
                still = state, new
                if moved:
                    return moved, still
            else:
                moved = state, new
            state = new
        pytest.fail("no step moved a row, or every step did")

    def test_handed_log_q_is_a_fresh_tabulation(self):
        rng = np.random.default_rng(22)
        x, state = shared_rows_state(rng, 30, 9, 14, 1.0)
        for old, new in self.moved_and_still_steps(x, state):
            # a step that moved no row hands on its grouping, whose log q
            # comes from the flip search's candidate product
            assert (new.table[0] is old.table[0]) == np.array_equal(new.z,
                                                                    old.z)
            _, want_log_q, *_ = engine._tabulate(
                x.data, new, engine._clip(new.epsilon), 1.0 / new.temperature)
            # bit for bit, not within a tolerance
            assert new.table[1].tobytes() == want_log_q.tobytes()

    def test_level_on_carried_table_equals_level_on_fresh_one(self):
        """A level started from the log q a state carries equals, bit for
        bit, one started from a fresh tabulation, at another temperature
        than the carried terms'."""
        x, _, _ = plant_factorization(120, 30, 5, 0.2, 0.3, 0.05, 0.5,
                                      seed=23)
        rng = np.random.default_rng(5)
        state = FitState(beta=rng.uniform(0.4, 0.6, (5, 30)),
                         z=(rng.random((120, 5)) < 0.4).astype(np.uint8),
                         r=0.5, epsilon=0.5, temperature=1.0)
        config = FitConfig(seed=0)
        for _, carried in self.moved_and_still_steps(x, state):
            assert carried.table is not None
            ends = [engine._converge(x, replace(carried, table=table), 0.7,
                                     config)
                    for table in (carried.table, None)]
            assert np.array_equal(ends[0].z, ends[1].z)
            assert ends[0].beta.tobytes() == ends[1].beta.tobytes()
            assert (ends[0].r, ends[0].epsilon, ends[0].log_likelihood) == (
                ends[1].r, ends[1].epsilon, ends[1].log_likelihood)

    def test_fit_equals_fit_without_carried_tables(self, monkeypatch):
        x, _, _ = plant_factorization(150, 40, 5, 0.2, 0.3, 0.02, 0.5, seed=16)
        config = FitConfig(seed=3, cooling_factor=0.8)
        step = engine.em_step
        handed = []

        def spied(x, state, tabled=None):
            handed.append(tabled is not None)
            return step(x, state, tabled)

        monkeypatch.setattr(engine, "em_step", spied)
        carried = fit(x, 5, config)
        assert handed and all(handed)
        monkeypatch.setattr(engine, "em_step",
                            lambda x, state, tabled=None: step(x, state))
        dropped = fit(x, 5, config)
        assert np.array_equal(dropped.z.data, carried.z.data)
        assert np.array_equal(dropped.beta, carried.beta)
        assert (dropped.r, dropped.epsilon, dropped.log_likelihood) == (
            carried.r, carried.epsilon, carried.log_likelihood)

    @pytest.mark.parametrize("change", ["beta", "r", "epsilon", "temperature",
                                        "z"])
    @pytest.mark.parametrize("used_by", ["step", "likelihood"])
    def test_stale_table_not_used(self, change, used_by):
        rng = np.random.default_rng(17)
        x, state = shared_rows_state(rng, 30, 9, 14, 1.0)
        # a state a step returned, which carries the step's hand-off
        state = em_step(x, state)
        table = state.table
        assert table is not None
        if change == "beta":      # in place, so the state holds the same array
            state.beta *= 0.9
        elif change == "z":       # in place, to a vector the hand-off lacks
            state.z[0] = 1 - state.z[0]
        else:
            setattr(state, change, getattr(state, change) * 0.9)
        if used_by == "step":
            assert_steps_as_reference(x, state)
        else:
            assert_likelihoods_as_reference(x, state)
        assert state.table is table

    def test_carried_rows_not_used_for_other_x(self, monkeypatch):
        rng = np.random.default_rng(18)
        x, state = shared_rows_state(rng, 30, 9, 14, 1.0)
        # the hand-off groups the rows of x, not of the other matrix
        state = em_step(x, state)
        table = state.table
        other = x.data.copy()
        other[:5] ^= 1
        other = BinaryMatrix(other)
        assert_likelihoods_as_reference(other, state)
        assert state.table is table
        assert_steps_as_reference(other, state)
        # step until a step moves no row, so that the grouping it hands on
        # carries the flip-search plan built for it
        for _ in range(50):
            new = em_step(x, state, state.table)
            if np.array_equal(new.z, state.z):
                break
            state = new
        else:
            pytest.fail("every step flipped a row")
        state = new
        assert "plan" in vars(state.table[0])
        plans = []
        plan = engine._plan

        def counted(vectors, group):
            plans.append(vectors)
            return plan(vectors, group)

        monkeypatch.setattr(engine, "_plan", counted)
        # a step on other data plans afresh, as does a step after z changed
        assert_steps_as_reference(other, state)
        assert len(plans) >= 1
        state.z[0] = 1 - state.z[0]
        assert_steps_as_reference(x, state)
        assert len(plans) >= 2
        # the plan after the change holds row 0's new vector
        assert any((vectors == state.z[0]).all(axis=1).any()
                   for vectors in plans[1:])

    def test_steps_on_carried_plans_equal_fresh_steps(self):
        """A sequence of steps, each on the table the step before handed
        on, equals bit for bit the steps that each work out their own
        table and plan; rows move in some of the steps and not in others."""
        x, _, _ = plant_factorization(120, 30, 5, 0.2, 0.3, 0.05, 0.5,
                                      seed=21)
        rng = np.random.default_rng(4)
        state = FitState(beta=rng.uniform(0.4, 0.6, (5, 30)),
                         z=(rng.random((120, 5)) < 0.4).astype(np.uint8),
                         r=0.5, epsilon=0.5, temperature=0.3)
        carried = fresh = state
        moved = []
        for _ in range(150):
            new = em_step(x, carried, carried.table)
            fresh = em_step(x, fresh)
            moved.append(not np.array_equal(new.z, carried.z))
            # a step that moved no row hands on its grouping with the plan
            # its flip search used; any other step hands on a fresh one
            assert ("plan" in vars(new.table[0])) == (not moved[-1])
            carried = new
            assert np.array_equal(carried.z, fresh.z)
            assert carried.beta.tobytes() == fresh.beta.tobytes()
            assert (carried.r, carried.epsilon, carried.log_likelihood) == (
                fresh.r, fresh.epsilon, fresh.log_likelihood)
        assert 5 < sum(moved) < len(moved) - 5

    def test_zero_rows_rejected(self):
        state = FitState(beta=np.full((2, 3), 0.5),
                         z=np.zeros((0, 2), dtype=np.uint8),
                         r=0.5, epsilon=0.5, temperature=1.0)
        with pytest.raises(DimensionError):
            em_step(BinaryMatrix(np.zeros((0, 3), dtype=np.uint8)), state)

    def test_zero_patterns_rejected(self):
        state = FitState(beta=np.zeros((0, 2)),
                         z=np.zeros((3, 0), dtype=np.uint8),
                         r=0.5, epsilon=0.5, temperature=1.0)
        x = BinaryMatrix(np.ones((3, 2), dtype=np.uint8))
        with pytest.raises(DimensionError, match="no patterns"):
            em_step(x, state)


class TestKeys:
    @pytest.mark.parametrize("k", [0, 1, 8, 9, 63, 64, 65, 130])
    def test_keys_sort_and_group_as_rows(self, k):
        # distinct rows in lexicographic order of their bits, as np.unique
        # over the rows orders them: the order the E-step's sums run in
        rng = np.random.default_rng(k)
        pool = (rng.random((6, k)) < 0.5).astype(np.uint8)
        if k:
            pool[1] = pool[0]
            pool[1, -1] ^= 1
        z = pool[rng.integers(0, 6, size=40)]
        first, group = engine._group(engine._keys(z))
        distinct = np.unique(z, axis=0)
        assert np.array_equal(z[first], distinct)
        assert np.array_equal(z[first][group], z)


class TestBinarize:
    def test_beta_zero_means_member(self):
        assert binarize(np.array([[0.0]])).data.tolist() == [[1]]

    def test_beta_one_means_absent(self):
        assert binarize(np.array([[1.0]])).data.tolist() == [[0]]

    def test_tie_rounds_to_zero(self):
        assert binarize(np.array([[0.5]])).data.tolist() == [[0]]


def cooled(factor):
    """fit's temperatures at a cooling factor: 2.0 times the factor a
    level while above the 0.05 floor, clamped at it, then T = 1."""
    temperatures = [2.0]
    while temperatures[-1] > 0.05:
        temperatures.append(max(temperatures[-1] * factor, 0.05))
    return temperatures + [1.0]


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

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)],
                             ids=["no-rows", "no-columns"])
    def test_empty_input_rejected(self, shape):
        with pytest.raises(ConfigError, match="nonempty"):
            fit(BinaryMatrix(np.zeros(shape, dtype=np.uint8)), 1)

    @pytest.mark.parametrize("config, expected, levels", [
        # halving from 2.0, clamped at 0.05, then the refinement at T = 1
        (FitConfig(seed=0, cooling_factor=0.5),
         [2.0, 1.0, 0.5, 0.25, 0.125, 0.0625, 0.05, 1.0], 8),
        # the default: 0.8 a level, 19 levels where 0.95 made 74
        (FitConfig(seed=0), cooled(0.8), 19),
    ], ids=["halving", "default"])
    def test_annealing_schedule(self, monkeypatch, config, expected, levels):
        temperatures = []
        converge = engine._converge

        def spied(x, state, temperature, config):
            temperatures.append(temperature)
            return converge(x, state, temperature, config)

        monkeypatch.setattr(engine, "_converge", spied)
        x, _, _ = plant_factorization(40, 8, 2, 0.3, 0.3, 0.02, 0.5, seed=12)
        fit(x, 2, config)
        assert temperatures == expected and len(temperatures) == levels

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

    @pytest.mark.parametrize("case", [None, 4, 23, 37, 57], ids=lambda c:
                             "two-rows" if c is None else f"search-{c}")
    def test_pattern_order_matches_oracle(self, monkeypatch, case):
        # fits that leave a pattern with no row before the sort, not as the
        # last pattern: the rows [1, 1, 1] and [0, 0, 0] at K=3, and small
        # random inputs found by search, each fitted with its case's seed
        if case is None:
            x, k, seed = matrix_from_rows([[1, 1, 1], [0, 0, 0]]), 3, 0
        else:
            rng = np.random.default_rng(case)
            n, d = int(rng.integers(2, 12)), int(rng.integers(2, 7))
            k, seed = int(rng.integers(2, d + 1)), case
            x = BinaryMatrix(rng.random((n, d)) < rng.uniform(0.1, 0.6))
        states = []
        converge = engine._converge

        def spied(x, state, temperature, config):
            states.append(converge(x, state, temperature, config))
            return states[-1]

        monkeypatch.setattr(engine, "_converge", spied)
        fact = fit(x, k, FitConfig(seed=seed))
        count = states[-1].z.sum(axis=0).tolist()
        assert 0 in count[:-1]
        order = sorted(range(k), key=lambda j: (-count[j], j))
        assert np.array_equal(fact.z.data, states[-1].z[:, order])
        assert np.array_equal(fact.beta, states[-1].beta[order])

    def test_json_round_shape(self):
        x, _, _ = plant_factorization(80, 10, 2, 0.3, 0.3, 0.0, 0.5, seed=11)
        fact = fit(x, 2, FitConfig(seed=0))
        doc = fact.to_json_dict()
        assert doc["K"] == 2
        assert len(doc["u"]) == 2 and len(doc["u"][0]) == 10
        assert len(doc["z_counts"]) == 2
        assert doc["seed"] == 0
        assert 0.0 <= doc["epsilon"] <= 1.0

    @pytest.mark.parametrize("planted", [
        (80, 10, 2, 0.3, 0.3, 0.0, 0.5, 11),
        (120, 15, 3, 0.25, 0.3, 0.05, 0.5, 8),
        (30, 8, 2, 0.0, 0.0, 0.0, 0.5, 3),       # an all-zero input
    ])
    def test_result_postconditions(self, planted):
        # what Factorization takes on trust from fit: beta, r and epsilon
        # in [0, 1], one z column per pattern, u the binarization of a
        # read-only beta
        *shape, seed = planted
        x, _, _ = plant_factorization(*shape, seed=seed)
        k = shape[2]
        fact = fit(x, k, FitConfig(seed=0))
        assert fact.beta.shape == (k, x.cols)
        assert fact.beta.min() >= 0.0 and fact.beta.max() <= 1.0
        assert 0.0 <= fact.r <= 1.0 and 0.0 <= fact.epsilon <= 1.0
        assert fact.z.shape == (x.rows, k) and fact.z.cols == len(fact.beta)
        assert np.array_equal(fact.u.data, binarize(fact.beta).data)
        assert fact.u is fact.u
        assert not fact.beta.flags.writeable
        assert fact == fact and fact != replace(fact)


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

    def test_matrix_chunks_equal_single_rows(self):
        rng = np.random.default_rng(13)
        u = random_binary(rng, (6, 15), 0.3)
        x = random_binary(rng, (23, 15), 0.35)
        rows = [assign_patterns(x.data[i], u, 0.3, 0.1)
                for i in range(x.rows)]
        # slices of the batch, as a caller scoring in chunks makes them
        for size in (1, 4, 23):
            got = np.concatenate([
                assign_matrix(BinaryMatrix(x.data[i:i + size]), u, 0.3,
                              0.1).data
                for i in range(0, x.rows, size)])
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
        rows = [np.array([2, 0.5, 1.0]), np.array([257, 257, 0])]
        # every 1-byte dtype: 48 and 49 are the ASCII codes of "0" and "1",
        # which a packer reading the row's bytes as digits would take
        rows += [np.array(row, dtype=np.uint8) for row in (
            [1, 2, 0], [1, 48, 0], [0, 49, 0], [1, 255, 0], [49, 48, 49])]
        rows.append(np.array([1, -1, 0], dtype=np.int8))
        for row in rows:
            with pytest.raises(ValueError, match="exactly 0 or 1"):
                assign_patterns(row, u, 0.5, 0.05)
        row = np.array([True, True, False])
        assert assign_patterns(row, u, 0.5, 0.05).tolist() == [1, 0]

    @pytest.mark.parametrize("k", [0, 1, 6])
    def test_returned_arrays_are_not_shared(self, k):
        rng = np.random.default_rng(36 + k)
        u = random_binary(rng, (k, 19), 0.3)
        x = random_binary(rng, (8, 19), 0.4).data
        single = assign_patterns(x[0], u, 0.3, 0.1)
        assert single.dtype == np.uint8 and single.shape == (k,)
        assert single.flags.c_contiguous
        batch = assign_matrix(BinaryMatrix(x), u, 0.3, 0.1).data
        want_single, want_batch = single.tolist(), batch.tolist()
        # the caller writes into a later result of the same row, and more
        # calls follow
        again = assign_patterns(x[0], u, 0.3, 0.1)
        again[:] = 1 - again
        for row in x:
            assign_patterns(row, u, 0.3, 0.1)
        assign_matrix(BinaryMatrix(x[::-1]), u, 0.3, 0.1)
        assert single.tolist() == want_single
        assert batch.tolist() == want_batch
        assert again.tolist() == [1 - v for v in want_single]

    def test_row_length_checked(self):
        u = matrix_from_rows([[1, 1, 0], [0, 1, 1]])
        for row in ([1, 0], [1, 0, 1, 0], [[1, 0, 1]]):
            with pytest.raises(DimensionError, match="row length"):
                assign_patterns(np.array(row), u, 0.5, 0.05)

    def test_matrix_dimension_mismatch(self):
        u = matrix_from_rows([[1, 0, 1], [0, 1, 1]])
        with pytest.raises(DimensionError):
            assign_matrix(matrix_from_rows([[1, 0], [0, 1]]), u, 0.5, 0.05)

    @pytest.mark.parametrize("r, eps", [(math.nan, 0.1), (0.5, math.nan),
                                        (-0.1, 0.1), (0.5, 1.5)])
    def test_probability_outside_unit_interval_rejected(self, r, eps):
        u = matrix_from_rows([[1, 1, 0], [0, 1, 1]])
        x = matrix_from_rows([[1, 1, 0]])
        # on every call, also after a valid call has cached its model
        for _ in range(2):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                assign_patterns(x.data[0], u, r, eps)
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                assign_matrix(x, u, r, eps)
            assert assign_patterns(x.data[0], u, 0.5, 0.1).tolist() == [1, 0]


def oracle_cases(seed, cases, rows):
    """Seeded random (x, u, r, epsilon) with K 1-12 and D 1-39, r cycling
    through 0.5, 0.999999, 0.02 and a random value; x repeats some rows."""
    rng = np.random.default_rng(seed)
    for case in range(cases):
        k, d = int(rng.integers(1, 13)), int(rng.integers(1, 40))
        u = random_binary(rng, (k, d), rng.uniform(0.05, 0.6))
        r = [0.5, 0.999999, 0.02, rng.uniform(0.01, 0.99)][case % 4]
        eps = rng.uniform(0.001, 0.5)
        x = random_binary(rng, (rows, d), rng.uniform(0.05, 0.7)).data
        yield x[rng.integers(0, rows, size=rows + 4)], u, float(r), float(eps)


# r and epsilon on their clip bounds and beyond them: at r = 1e-6 and
# epsilon = 1 - 1e-6 an add candidate that covers no new requested entry
# falls short of the current set by the least, about 1e-6
CLIP_VALUES = (0.0, 1e-6, 1 - 1e-6, 1.0)


def clip_cases(seed, rows):
    """oracle_cases' shapes at every pair of r and epsilon in CLIP_VALUES."""
    rng = np.random.default_rng(seed)
    for r in CLIP_VALUES:
        for eps in CLIP_VALUES:
            k, d = int(rng.integers(1, 13)), int(rng.integers(1, 40))
            u = random_binary(rng, (k, d), rng.uniform(0.05, 0.6))
            x = random_binary(rng, (rows, d), rng.uniform(0.05, 0.7)).data
            yield x, u, r, eps


@st.composite
def assignment_inputs(draw):
    """(x, u, r, epsilon) with K 0-30 and D 0-150.  A pattern is empty,
    full, random or a copy of an earlier one; a row is all zeros, all
    ones, random or the union of 1-3 patterns with a few entries flipped.
    r and epsilon come from CLIP_VALUES or from a uniform draw."""
    k, d = draw(st.integers(0, 30)), draw(st.integers(0, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = st.sampled_from(["zeros", "ones", "random", "copy"])
    u = np.zeros((k, d), dtype=np.uint8)
    for j in range(k):
        kind = draw(kinds)
        if kind == "ones":
            u[j] = 1
        elif kind == "random" or (kind == "copy" and j == 0):
            u[j] = rng.random(d) < rng.uniform(0.0, 0.5)
        elif kind == "copy":
            u[j] = u[draw(st.integers(0, j - 1))]
    x = np.zeros((draw(st.integers(1, 4)), d), dtype=np.uint8)
    for row in x:
        kind = draw(kinds)
        if kind == "ones":
            row[:] = 1
        elif kind == "random" or (kind == "copy" and k == 0):
            row[:] = rng.random(d) < rng.uniform(0.0, 1.0)
        elif kind == "copy":
            union = u[rng.integers(0, k, size=rng.integers(1, 4))].max(axis=0)
            row[:] = union ^ (rng.random(d) < 0.05)
    probability = st.sampled_from(CLIP_VALUES) | st.floats(0.0, 1.0)
    return x, BinaryMatrix(u), draw(probability), draw(probability)


def assert_all_paths_equal(x, u, r, eps):
    """assign_patterns on each row of x equals reference_assign and the
    row's assign_matrix result."""
    batch = assign_matrix(BinaryMatrix(x), u, r, eps).data
    for row, z in zip(x, batch):
        want = reference_assign(row, u, r, eps).tolist()
        assert assign_patterns(row, u, r, eps).tolist() == want
        assert z.tolist() == want


def cols(lo, hi, *more):
    return set(range(lo, hi)) | set(more)


# Entries 0-899 requested and 900-999 not.  At r = epsilon = 1e-6 the
# uncovered requested entries 100-899 put every log-likelihood below
# -16384, where a float's ulp exceeds 2e-12, so best + 1e-12 rounds to best
# and only the strict comparison keeps the first of exactly tied values.
WIDE = (1000, range(900))

# name: ((D, requested entries), patterns as sets of entries, r, epsilon,
# the assignment)
SET_CASES = {
    # P and Q cover the same requested entries and as many unrequested
    # ones: the add scan keeps P
    "add tie": (WIDE, [cols(0, 10, 900, 901, 902),
                       cols(0, 10, 903, 904, 905)], 1e-6, 1e-6, [1, 0]),
    # A goes in first, then B and C, which tie; then dropping A ties with
    # keeping it, so A stays
    "prune tie": (WIDE, [cols(0, 20),
                         cols(0, 10) | cols(20, 30) | cols(900, 908),
                         cols(10, 20) | cols(30, 40) | cols(908, 916)],
                  1e-6, 1e-6, [1, 1, 1]),
    # pattern 1 is empty: searched, its start would end at pattern 0 plus
    # itself, tied with the empty start's result
    "start tie": (WIDE, [cols(0, 10), set()], 1e-6, 1e-6, [1, 0]),
    # pattern 0 shares no entry with the row or with pattern 1, the one
    # pattern that touches it: searched, its start would add 1 and drop 0,
    # the empty start's result
    "start apart from the row and its patterns": (
        (8, range(4)), [{6, 7}, cols(0, 5)], 0.5, 0.1, [0, 1]),
    # Pattern 0 shares no entry with the row, but it holds the unrequested
    # entries 4 and 5 of patterns 1 and 2.  Each of those alone covers two
    # requested and two unrequested entries and ties the empty set, so the
    # empty start adds nothing.  From pattern 0, both cover only requested
    # entries and go in, and none comes out: this start wins.
    "start apart from the row only": (
        (8, range(4)), [{4, 5}, {0, 1, 4, 5}, {2, 3, 4, 5}], 0.5, 0.1,
        [1, 1, 1]),
    # Y goes in first, then X, then W1 and W2, which cover all that X and
    # Y request but entry 0.  Dropping X or Y then gains the same, and the
    # prune drops X, the lower index, though Y went in first.
    "prune in index order": (
        (21, range(19)),
        [cols(0, 7, 19), cols(7, 17, 0, 20), cols(1, 4) | cols(7, 12, 17),
         cols(4, 7) | cols(12, 17, 18)],
        0.1, 0.1, [0, 1, 1, 1]),
    # The empty start adds nothing.  From pattern 0, 4 and 2 go in and
    # cover all of 0 but its unrequested entry 2, so the prune drops 0,
    # which covers no requested entry, and this start wins.  Kept, 0 would
    # leave the win to pattern 1's start, whose pattern no prune drops.
    "prune without requested entries": (
        (11, [1, 3, 5, 9, 10]),
        [{2, 6}, {6}, {0, 5, 6}, {0, 5, 8}, {0, 1, 6, 10}],
        0.5, 0.1, [0, 0, 1, 0, 1]),
    # The empty start adds 0, then 1, then 2 (which ties 4 and comes first)
    # and covers the row exactly after three adds.  The starts from 3 and 4
    # cover it with 3 and 4 after one add, but they come later: the empty
    # start's cover wins, though in the batch theirs is found first.
    "two perfect covers": (
        (12, range(10)),
        [cols(0, 5), cols(5, 9), {9}, cols(2, 7), {0, 1, 7, 8, 9}],
        0.5, 0.1, [1, 1, 1, 0, 0]),
    # The empty start adds 0, which holds the unrequested entry 6, then 3,
    # and misses the row's exact cover.  The start from 2 adds 3 and covers
    # the row exactly, and the search ends there at the bound; the start
    # from 4 would cover it too, with 3 and 4.
    "perfect cover after a miss": (
        (8, range(6)), [{0, 1, 2, 3, 4, 6}, {5, 7}, {0, 1, 2}, {3, 4, 5},
                        {0, 1, 2}], 0.5, 0.1, [0, 0, 1, 1, 0]),
    # The empty start adds 0, then 1, and reaches the bound.  The starts
    # from 0 and 1 would each end at the same set.
    "rejoined add path": (WIDE, [cols(0, 10), cols(10, 15, 900)],
                          1e-6, 1e-6, [1, 1]),
}


def set_case(name):
    """SET_CASES[name] as (x, u, r, epsilon), x holding the one row."""
    (d, requested), patterns, r, eps, _ = SET_CASES[name]
    x = np.zeros((1, d), dtype=np.uint8)
    x[0, list(requested)] = 1
    u = np.zeros((len(patterns), d), dtype=np.uint8)
    for j, entries in enumerate(patterns):
        u[j, list(entries)] = 1
    return x, BinaryMatrix(u), r, eps


def spied_set_ll(monkeypatch):
    """Record the counts (n11, n10) of each _set_ll call."""
    calls = []
    set_ll = engine._set_ll

    def spy(n11, n10, ones, d, logs):
        calls.append((n11, n10))
        return set_ll(n11, n10, ones, d, logs)

    monkeypatch.setattr(engine, "_set_ll", spy)
    return calls


class TestAssignOracle:
    def test_single_rows_equal_oracle(self):
        for x, u, r, eps in oracle_cases(21, 120, 3):
            for row in x:
                assert (assign_patterns(row, u, r, eps).tolist()
                        == reference_assign(row, u, r, eps).tolist())

    def test_clip_bounds_equal_oracle(self):
        for x, u, r, eps in clip_cases(26, 8):
            assert_all_paths_equal(x, u, r, eps)

    def test_planted_k30_equal_oracle(self):
        # Android-shaped: 30 patterns of about 4 of 130 permissions
        x, _, u = plant_factorization(16, 130, 30, 0.03, 0.1, 0.02, 0.5,
                                      seed=27)
        assert_all_paths_equal(x.data, u, 0.5, 0.02)

    # At r = 0.5 an entry's log-terms do not depend on x, so count pairs
    # with the same n11 - n10 tie exactly
    @pytest.mark.parametrize("r, eps", [(0.5, 0.5), (0.5, 1e-6)]
                             + [(r, eps) for r in CLIP_VALUES
                                for eps in CLIP_VALUES])
    def test_planted_k30_at_ties_and_clip_bounds(self, r, eps):
        x, _, u = plant_factorization(16, 130, 30, 0.03, 0.1, 0.02, 0.5,
                                      seed=33)
        assert_all_paths_equal(x.data, u, r, eps)

    def test_batch_out_of_reach_patterns_change_no_assignment(self,
                                                             monkeypatch):
        x, _, u = plant_factorization(16, 130, 30, 0.03, 0.1, 0.02, 0.5,
                                      seed=28)
        # 10 more patterns over 10 new columns that no row requests: each
        # shares no entry with any row or any pattern that touches one
        rng = np.random.default_rng(28)
        extra = random_binary(rng, (10, 10), 0.5).data.copy()
        extra[:, 0] = 1
        wide_x = np.hstack([x.data, np.zeros((x.rows, 10), dtype=np.uint8)])
        wide_u = np.block([[u.data, np.zeros((u.rows, 10), dtype=np.uint8)],
                           [np.zeros((10, u.cols), dtype=np.uint8), extra]])
        calls = spied_set_ll(monkeypatch)
        want = assign_matrix(x, u, 0.5, 0.02).data
        scored = list(calls)
        calls.clear()
        got = assign_matrix(BinaryMatrix(wide_x), BinaryMatrix(wide_u), 0.5,
                            0.02).data
        # the new patterns touch no row, so none is an add candidate, and
        # every row reaches the bound before the starts from them
        assert calls == scored
        assert got.tolist() == np.hstack(
            [want, np.zeros((x.rows, 10), dtype=np.uint8)]).tolist()
        assert want.tolist() == [reference_assign(row, u, 0.5, 0.02).tolist()
                                 for row in x.data]

    def test_batch_stops_at_perfect_covers(self, monkeypatch):
        calls = spied_set_ll(monkeypatch)
        for case, scored in (("two perfect covers", 1 + 1 + 5 + 4 + 2),
                             ("perfect cover after a miss",
                              1 + 10 + 5 + 7 + 4)):
            x, u, r, eps = set_case(case)
            calls.clear()
            got = assign_matrix(BinaryMatrix(np.repeat(x, 3, axis=0)), u, r,
                                eps).data
            assert got.tolist() == [SET_CASES[case][-1]] * 3
            # one search of the repeated row, which ends at the bound, here
            # the perfect cover's value, as assign_patterns' does
            assert len(calls) == scored
            assert calls[0] == calls[-1] == (int(x.sum()), 0)

    def test_search_ends_at_kept_perfect_cover(self, monkeypatch):
        x, u, r, eps = set_case("two perfect covers")
        calls = spied_set_ll(monkeypatch)
        assert engine.assign_patterns(x[0], u, r, eps).tolist() == [1, 1, 1,
                                                                    0, 0]
        # the bound's one term, every pattern being clean; then the empty
        # start's value and its 5, 4 and 2 add candidates.  Its perfect
        # cover reaches the bound, so no other start is searched.
        assert calls == [
            (10, 0),                            # the bound
            (0, 0), (5, 0), (4, 0), (1, 0), (5, 0), (5, 0),     # add 0
            (9, 0), (6, 0), (7, 0), (8, 0),     # add 1
            (10, 0), (10, 0)]                   # add 2

    def test_starts_searched_in_order_until_the_bound(self, monkeypatch):
        x, u, r, eps = set_case("rejoined add path")
        calls = spied_set_ll(monkeypatch)
        assert engine.assign_patterns(x[0], u, r, eps).tolist() == [1, 1]
        # (n11, n10) of each set scored
        assert calls == [
            (10, 0), (15, 1),                   # the bound's terms, t = 0, 1
            (0, 0), (10, 0), (5, 1), (15, 1),   # empty start: add 0, add 1
            # its prune keeps both, and the kept value reaches the bound's
            # second term, so no other start is searched
            (5, 1), (10, 0)]
        # Where the empty start's set misses the bound the starts go on, in
        # index order, until a kept set reaches it: in "perfect cover after
        # a miss" the start from 2 covers the row exactly
        x, u, r, eps = set_case("perfect cover after a miss")
        calls.clear()
        assert engine.assign_patterns(x[0], u, r, eps).tolist() == [0, 0, 1,
                                                                    1, 0]
        assert calls == [
            (6, 0),                             # the bound: 2 and 3 clean
            (0, 0), (5, 1), (1, 1), (3, 0), (3, 0), (3, 0),  # empty start
            (6, 2), (6, 1), (3, 0), (5, 1),
            # the start from 0 reaches the empty start's set and value,
            # which it does not beat
            (5, 1), (6, 2), (6, 1), (3, 0), (5, 1),
            (1, 1), (6, 2), (4, 1), (3, 1), (4, 1), (1, 1), (5, 1),  # from 1
            (3, 0), (5, 1), (4, 1), (6, 0)]     # from 2: add 3, the cover

    @given(assignment_inputs())
    @settings(max_examples=60, deadline=None)
    def test_matrix_rows_equal_oracle_property(self, inputs):
        x, u, r, eps = inputs
        got = assign_matrix(BinaryMatrix(x), u, r, eps).data
        for row, z in zip(x, got):
            assert z.tolist() == reference_assign(row, u, r, eps).tolist()

    @pytest.mark.parametrize("case", sorted(SET_CASES))
    def test_constructed_cases(self, case):
        x, u, r, eps = set_case(case)
        want = SET_CASES[case][-1]
        assert reference_assign(x[0], u, r, eps).tolist() == want
        if x.shape[1] == WIDE[0]:
            assert assignment_ll(x[0], u, want, r, eps) < -16384
        assert_all_paths_equal(x, u, r, eps)

    # the D of 1-17 pad a row to one, two or three whole bytes
    @pytest.mark.parametrize("k, d", [(0, 6), (3, 0), (1, 6), (0, 0)]
                             + [(4, d) for d in (1, 7, 8, 9, 15, 16, 17)])
    def test_single_rows_equal_matrix_at_edges(self, k, d):
        rng = np.random.default_rng(29 + 7 * k + d)
        u = random_binary(rng, (k, d), 0.4)
        x = random_binary(rng, (8, d), 0.4).data
        assert_all_paths_equal(x, u, 0.3, 0.1)

    @pytest.mark.parametrize("convert", [
        lambda row: row.astype(bool),
        lambda row: row.astype(np.int64),
        # packbits rejects floats: the row must be compared to 1 first
        lambda row: row.astype(float),
        lambda row: row.tolist(),
    ], ids=["bool", "int64", "float", "list"])
    def test_row_types(self, convert):
        rng = np.random.default_rng(30)
        u = random_binary(rng, (6, 19), 0.3)
        x = random_binary(rng, (12, 19), 0.4).data
        batch = assign_matrix(BinaryMatrix(x), u, 0.3, 0.1).data
        for row, z in zip(x, batch):
            got = assign_patterns(convert(row), u, 0.3, 0.1)
            assert got.tolist() == z.tolist()

    def test_matrix_equals_oracle(self):
        for x, u, r, eps in oracle_cases(22, 60, 6):
            got = assign_matrix(BinaryMatrix(x), u, r, eps).data
            want = [reference_assign(row, u, r, eps) for row in x]
            assert got.tolist() == np.array(want).tolist()

    def test_repeated_rows_scored_once(self, monkeypatch):
        rng = np.random.default_rng(23)
        u = random_binary(rng, (5, 9), 0.3)
        distinct = np.unique(random_binary(rng, (6, 9), 0.4).data, axis=0)
        x = distinct[rng.integers(0, len(distinct), size=40)]
        rows = []
        search = engine._search

        def counted(row, *args):
            rows.append(row)
            return search(row, *args)

        def single(*args):
            raise AssertionError("assign_matrix called assign_patterns")

        monkeypatch.setattr(engine, "_search", counted)
        monkeypatch.setattr(engine, "assign_patterns", single)
        got = assign_matrix(BinaryMatrix(x), u, 0.4, 0.1).data
        # one search for each distinct row, its bits read big-endian and
        # its 9 columns padded to two bytes
        packed = {int("".join(map(str, row)).ljust(16, "0"), 2) for row in x}
        assert sorted(rows) == sorted(packed)
        want = [reference_assign(row, u, 0.4, 0.1) for row in x]
        assert got.tolist() == np.array(want).tolist()

    @pytest.mark.parametrize("d", [64, 65])
    def test_matrix_equals_single_rows_at_key_width(self, d):
        # D = 64 packs a row's key into one 64-bit word, D = 65 into two;
        # some rows differ only in their last permission
        rng = np.random.default_rng(24 + d)
        u = random_binary(rng, (4, d), 0.2)
        pool = random_binary(rng, (5, d), 0.3).data.copy()
        pool[1] = pool[0]
        pool[1, -1] ^= 1
        picks = rng.integers(0, 5, size=30)
        assert {0, 1} <= set(picks.tolist())
        x = pool[picks]
        got = assign_matrix(BinaryMatrix(x), u, 0.3, 0.05).data
        want = [assign_patterns(row, u, 0.3, 0.05) for row in x]
        assert got.tolist() == np.array(want).tolist()

    @pytest.mark.parametrize("n, k, d", [(3, 2, 0), (3, 0, 4), (0, 2, 4),
                                         (0, 0, 0)])
    def test_edge_shapes(self, n, k, d):
        x = BinaryMatrix(np.ones((n, d), dtype=np.uint8))
        u = BinaryMatrix(np.ones((k, d), dtype=np.uint8))
        assert assign_matrix(x, u, 0.5, 0.1).data.shape == (n, k)


class TestModel:
    def test_bit_sets_and_logs(self):
        # 9 columns pad to two bytes: column j is bit 15 - j
        u = matrix_from_rows([[1, 0, 0, 0, 0, 0, 0, 0, 1],
                              [0, 0, 0, 0, 0, 0, 0, 0, 0],
                              [0, 1, 1, 0, 0, 0, 0, 0, 0]])
        model = engine._model(u, 0.2, 0.1)
        logs, pats = model
        assert pats == (2 ** 15 + 2 ** 7, 0, 2 ** 14 + 2 ** 13)
        # covered with x = 1, uncovered with x = 0, uncovered with x = 1,
        # covered with x = 0
        assert logs == pytest.approx(np.log([0.92, 0.98, 0.02, 0.08]))
        assert engine._model(u, 0.2, 0.1) is model
        empty = BinaryMatrix(np.zeros((2, 0), dtype=np.uint8))
        assert engine._model(empty, 0.2, 0.1)[1] == (0, 0)

    def test_alternating_models_equal_oracle(self):
        # two pattern matrices of one shape, and one of them at two (r,
        # epsilon) pairs, each assigning some rows differently from the
        # others; a model handed to another's call would show
        rng = np.random.default_rng(34)
        u1, u2 = (random_binary(rng, (6, 20), 0.3) for _ in range(2))
        x = random_binary(rng, (12, 20), 0.4).data
        models = [(u1, 0.5, 0.1), (u2, 0.5, 0.1), (u1, 0.999999, 0.4)]
        want = [[reference_assign(row, *model).tolist() for row in x]
                for model in models]
        assert want[0] != want[1] and want[0] != want[2]
        for _ in range(2):
            for row_i, row in enumerate(x):
                for m, model in enumerate(models):
                    assert (assign_patterns(row, *model).tolist()
                            == want[m][row_i])
            for m, model in enumerate(models):
                assert (assign_matrix(BinaryMatrix(x), *model).data.tolist()
                        == want[m])


def packed(row):
    """A 0/1 row as _search's bit set: column 0 the top bit of the first
    byte, as _model packs the patterns."""
    return int.from_bytes(np.packbits(np.asarray(row) == 1).tobytes(), "big")


class TestSearch:
    def test_packed_rows_equal_assign_patterns(self):
        rng = np.random.default_rng(35)
        u = random_binary(rng, (7, 21), 0.3)
        logs, pats = engine._model(u, 0.4, 0.1)
        for row in random_binary(rng, (30, 21), 0.35).data:
            got = engine._search(packed(row), pats, u.cols, logs)
            # the chosen indices, ascending
            assert got == sorted(got)
            assert got == np.flatnonzero(
                assign_patterns(row, u, 0.4, 0.1)).tolist()
            assert got == np.flatnonzero(
                reference_assign(row, u, 0.4, 0.1)).tolist()

    @pytest.mark.parametrize("row", [[0, 0, 0, 0, 0], [0, 0, 0, 1, 1]],
                             ids=["empty", "untouched"])
    def test_untouched_row_scores_only_the_empty_set(self, monkeypatch, row):
        # no pattern shares an entry with the row: the bound is the empty
        # set's value, and the empty start, with no add candidate, reaches
        # it, so no other start is scored
        u = matrix_from_rows([[1, 1, 0, 0, 0], [0, 1, 1, 0, 0]])
        logs, pats = engine._model(u, 0.3, 0.1)
        calls = spied_set_ll(monkeypatch)
        assert engine._search(packed(row), pats, 5, logs) == []
        assert calls == [(0, 0), (0, 0)]

    def test_one_dropped_entry_ends_after_the_empty_start(self,
                                                         monkeypatch):
        # the row is pattern 0 without its entry 3, plus pattern 1; pattern
        # 2 lies apart from both
        u = matrix_from_rows([[1, 1, 1, 1, 0, 0, 0, 0, 0, 0],
                              [0, 0, 0, 0, 1, 1, 1, 0, 0, 0],
                              [0, 0, 0, 0, 0, 0, 0, 1, 1, 0]])
        logs, pats = engine._model(u, 0.5, 0.1)
        calls = spied_set_ll(monkeypatch)
        row = packed([1, 1, 1, 0, 1, 1, 1, 0, 0, 0])
        assert engine._search(row, pats, 10, logs) == [0, 1]
        assert calls == [
            # the bound: clean pattern 1 alone, or with pattern 0's three
            # requested entries at its one unrequested entry
            (3, 0), (6, 1),
            (0, 0), (3, 1), (3, 0), (6, 1),     # empty start: add 1, add 0
            # its prune keeps both; the kept value is the bound's second
            # term, so the starts from 0, 1 and 2 are not run
            (3, 0), (3, 1)]

    def test_equal_patterns_keep_the_lowest_index(self):
        u = matrix_from_rows([[1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]])
        logs, pats = engine._model(u, 0.5, 0.05)
        assert engine._search(packed([0, 0, 1, 1]), pats, 4, logs) == [1]
        assert engine._search(packed([1, 1, 1, 1]), pats, 4, logs) == [0, 1]


@st.composite
def bound_inputs(draw):
    """(x, u, r, epsilon) with K 1-10, D 1-24 and 1-6 rows; a pattern is
    random or a copy of an earlier one, and a row is random or the union of
    1-3 patterns with a few entries flipped, so that many rows fall just
    short of a perfect cover.  r and epsilon come from CLIP_VALUES, 0.5 or
    a uniform draw."""
    k, d = draw(st.integers(1, 10)), draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = (rng.random((k, d)) < rng.uniform(0.05, 0.6)).astype(np.uint8)
    for j in range(1, k):
        if draw(st.booleans()):
            u[j] = u[rng.integers(0, j)]
    x = np.zeros((draw(st.integers(1, 6)), d), dtype=np.uint8)
    for row in x:
        if draw(st.booleans()):
            row[:] = rng.random(d) < rng.uniform(0.0, 1.0)
        else:
            row[:] = u[rng.integers(0, k, size=rng.integers(1, 4))].max(axis=0)
            row ^= (rng.random(d) < draw(st.sampled_from([0.0, 0.05, 0.15]))
                    ).astype(np.uint8)
    probability = st.one_of(st.sampled_from(CLIP_VALUES + (0.5,)),
                            st.floats(0.0, 1.0))
    return x, BinaryMatrix(u), draw(probability), draw(probability)


class TestBound:
    @given(bound_inputs())
    @settings(max_examples=150, deadline=None)
    def test_bound_holds_every_pattern_set(self, inputs):
        rows, u, r, eps = inputs
        logs, pats = engine._model(u, r, eps)
        unions = []
        for mask in range(1 << u.rows):
            covered = 0
            for j, p in enumerate(pats):
                if mask >> j & 1:
                    covered |= p
            unions.append(covered)
        for row in rows:
            x = packed(row)
            ones = x.bit_count()
            touching = [(j, p, (p & x).bit_count(), (p & ~x).bit_count())
                        for j, p in enumerate(pats) if p & x]
            bound = engine._bound(x, touching, ones, u.cols, logs)
            best = max(engine._set_ll((c & x).bit_count(),
                                      (c & ~x).bit_count(), ones, u.cols,
                                      logs) for c in unions)
            # no tolerance: a set's counts are those of one of the bound's
            # terms, or worse by about 1e-6 or more
            assert bound >= best

    @given(bound_inputs())
    @settings(max_examples=300, deadline=None)
    def test_near_cover_rows_equal_oracle(self, inputs):
        # the rows where the search most often ends at the bound short of
        # its last start
        assert_all_paths_equal(*inputs)
