import concurrent.futures
import os
import subprocess
import sys
from dataclasses import replace
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

import permpatterns
from permpatterns import (
    BinaryMatrix,
    FitConfig,
    disagreement_score,
    instability,
    match_patterns,
    match_patterns_exhaustive,
    select_k,
)
from permpatterns.core import ConfigError, DimensionError
from permpatterns.selection import split_dataset
from permpatterns.simulate import plant_factorization


def random_binary(rng, shape, p=0.5):
    return BinaryMatrix((rng.random(shape) < p).astype(np.uint8))


class TestSplit:
    def test_two_rows(self):
        x = BinaryMatrix(np.array([[1, 0], [0, 1]]))
        a, b = split_dataset(x, seed=0)
        assert a.rows == 1 and b.rows == 1

    def test_odd_size_rule(self):
        x = BinaryMatrix(np.zeros((101, 3), dtype=int))
        a, b = split_dataset(x, seed=1)
        assert (a.rows, b.rows) == (51, 50)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        x = random_binary(rng, (20, 4))
        a1, b1 = split_dataset(x, seed=7)
        a2, b2 = split_dataset(x, seed=7)
        assert np.array_equal(a1.data, a2.data)
        assert np.array_equal(b1.data, b2.data)

    def test_every_row_appears_once(self):
        rng = np.random.default_rng(3)
        x = random_binary(rng, (15, 5))
        a, b = split_dataset(x, seed=4)
        combined = sorted(np.vstack([a.data, b.data]).tolist())
        assert combined == sorted(x.data.tolist())

    def test_too_small(self):
        with pytest.raises(DimensionError):
            split_dataset(BinaryMatrix(np.array([[1]])), seed=0)


def exhaustive_min_cost(u1, u2):
    k = u1.rows
    return min(
        sum(int((u1.data[i] != u2.data[p[i]]).sum()) for i in range(k))
        for p in permutations(range(k))
    )


class TestMatchPatterns:
    def test_identity(self):
        rng = np.random.default_rng(5)
        u = random_binary(rng, (4, 8))
        assert match_patterns(u, u).tolist() == [0, 1, 2, 3]

    def test_reversal(self):
        rng = np.random.default_rng(6)
        u1 = BinaryMatrix(np.eye(4, dtype=int))
        u2 = BinaryMatrix(np.eye(4, dtype=int)[::-1].copy())
        assert match_patterns(u1, u2).tolist() == [3, 2, 1, 0]

    def test_cost_matches_exhaustive(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            u1 = random_binary(rng, (5, 10))
            u2 = random_binary(rng, (5, 10))
            pi = match_patterns(u1, u2)
            cost = sum(int((u1.data[i] != u2.data[pi[i]]).sum())
                       for i in range(5))
            assert cost == exhaustive_min_cost(u1, u2)

    def test_agrees_with_exhaustive_mode(self):
        # few permissions make many permutations tie at the optimum; the
        # exhaustive search keeps the first minimum in permutations() order,
        # which is the lexicographically smallest optimal permutation
        rng = np.random.default_rng(8)
        for _ in range(60):
            k, d = int(rng.integers(1, 9)), int(rng.integers(1, 4))
            u1 = random_binary(rng, (k, d))
            u2 = random_binary(rng, (k, d))
            assert match_patterns(u1, u2).tolist() == \
                match_patterns_exhaustive(u1, u2).tolist()

    def test_paper_scale_k(self):
        scipy_optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(12)
        u1 = random_binary(rng, (30, 40), 0.2)
        u2 = random_binary(rng, (30, 40), 0.2)
        cost = np.abs(u1.data[:, None, :].astype(int) - u2.data[None]).sum(2)
        rows, cols = scipy_optimize.linear_sum_assignment(cost)
        pi = match_patterns(u1, u2)
        assert sorted(pi.tolist()) == list(range(30))
        assert cost[np.arange(30), pi].sum() == cost[rows, cols].sum()
        assert match_patterns(u1, u1).tolist() == list(range(30))

    def test_shape_mismatch(self):
        rng = np.random.default_rng(9)
        with pytest.raises(DimensionError):
            match_patterns(random_binary(rng, (3, 4)), random_binary(rng, (3, 5)))
        for shape in ((3, 5), (4, 4)):
            with pytest.raises(DimensionError):
                match_patterns_exhaustive(random_binary(rng, (3, 4)),
                                          random_binary(rng, shape))

    def test_exhaustive_limited_to_k_8(self):
        u = BinaryMatrix(np.eye(9, dtype=np.uint8))
        with pytest.raises(ValueError, match="K <= 8"):
            match_patterns_exhaustive(u, u)


class TestDisagreementScore:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(10)
        z = random_binary(rng, (50, 4))
        assert disagreement_score(z, z) == 0.0

    def test_random_baseline_near_one(self):
        rng = np.random.default_rng(11)
        for k in (2, 5, 8):
            a = random_binary(rng, (10000, k))
            b = random_binary(rng, (10000, k))
            assert disagreement_score(a, b) == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("shape", [(20, 4), (21, 3)])
    def test_shape_mismatch(self, shape):
        a = BinaryMatrix(np.zeros((20, 3), dtype=np.uint8))
        with pytest.raises(DimensionError):
            disagreement_score(a, BinaryMatrix(np.zeros(shape, dtype=np.uint8)))

    def test_upper_bound(self):
        k = 3
        a = BinaryMatrix(np.zeros((20, k), dtype=int))
        b = BinaryMatrix(np.ones((20, k), dtype=int))
        assert disagreement_score(a, b) <= 2 ** k / (2 ** k - 1) + 1e-12


FAST = FitConfig(seed=0, cooling_factor=0.8, tolerance=1e-4,
                 max_inner_iterations=25)


class TestInstability:
    def test_zero_on_reproducible_structure(self):
        x, _, _ = plant_factorization(600, 16, 3, 0.3, 0.3, 0.0, 0.5, seed=13)
        rec = instability(x, 3, repetitions=2, config=FAST)
        assert rec.median == pytest.approx(0.0, abs=0.02)

    def test_label_permutation_invariance(self):
        # relabeling one half's patterns must not change s: run once, then
        # verify the matcher absorbs an artificial relabeling
        rng = np.random.default_rng(13)
        u1 = random_binary(rng, (4, 10), 0.3)
        perm = np.array([2, 0, 3, 1])
        u2 = BinaryMatrix(u1.data[perm])
        pi = match_patterns(u1, u2)
        assert np.array_equal(u1.data, u2.data[pi])

    def test_invalid_args(self):
        x = BinaryMatrix(np.zeros((10, 4), dtype=int))
        with pytest.raises(ValueError):
            instability(x, 2, repetitions=0, config=FAST)
        with pytest.raises(ValueError):
            instability(x, 0, repetitions=1, config=FAST)

    def test_equals_the_one_k_sweep(self):
        x, _, _ = plant_factorization(120, 12, 3, 0.3, 0.4, 0.05, 0.5, seed=18)
        config = replace(FAST, seed=5)
        rec = instability(x, 3, repetitions=3, config=config)
        # every field: k, values, seeds, median and std
        assert rec == select_k(x, [3], repetitions=3,
                               config=config).records[0]
        assert rec.seeds == (5, 6, 7)

    def test_failed_fit_raises_the_sweep_message(self):
        x = BinaryMatrix(np.eye(4, dtype=int))
        message = select_k(x, [5], repetitions=1, config=FAST).failed_k[5]
        assert "exceeds" in message
        with pytest.raises(ConfigError) as info:
            instability(x, 5, repetitions=1, config=FAST)
        assert str(info.value) == message


class TestSelectK:
    def test_single_k(self):
        x, _, _ = plant_factorization(200, 10, 2, 0.3, 0.4, 0.0, 0.5, seed=14)
        report = select_k(x, [2], repetitions=1, config=FAST)
        assert report.selected_k == 2

    def test_tie_breaks_to_smaller_k(self, monkeypatch):
        monkeypatch.setattr(permpatterns.selection, "disagreement_score",
                            lambda z_pred, z_ref: 0.25)
        x, _, _ = plant_factorization(60, 10, 2, 0.3, 0.4, 0.05, 0.5, seed=16)
        report = select_k(x, [4, 2, 3], repetitions=2, config=FAST)
        assert [rec.k for rec in report.records] == [4, 2, 3]
        assert {rec.median for rec in report.records} == {0.25}
        assert report.selected_k == 2

    @pytest.mark.parametrize("repetitions, threads", [(1, 2), (2, 3)])
    def test_threads_do_not_change_the_report(self, repetitions, threads):
        # K=0 is below 1 and K=12 exceeds D=10, so their fits raise
        # ConfigError
        x, _, _ = plant_factorization(60, 10, 2, 0.3, 0.4, 0.05, 0.5, seed=15)
        serial = select_k(x, [0, 2, 3, 12], repetitions=repetitions,
                          config=FAST)
        pooled = select_k(x, [0, 2, 3, 12], repetitions=repetitions,
                          config=FAST, threads=threads)
        assert pooled == serial
        assert [rec.seeds for rec in serial.records] == \
            [tuple(range(repetitions))] * 2
        assert [rec.k for rec in serial.records] == [2, 3]
        assert list(serial.failed_k) == [0, 12]
        assert "at least 1" in serial.failed_k[0]
        assert "exceeds" in serial.failed_k[12]

    def test_splits_are_made_as_the_fits_need_them(self, monkeypatch):
        # no repetition's halves are built ahead of the first fit, so a
        # sweep's memory does not grow with the repetitions
        events = []
        selection = permpatterns.selection
        real_split, real_fit = selection.split_dataset, selection.fit

        def split_dataset(x, seed):
            events.append("split")
            return real_split(x, seed)

        def fit(x, k, config):
            events.append("fit")
            return real_fit(x, k, config)

        monkeypatch.setattr(selection, "split_dataset", split_dataset)
        monkeypatch.setattr(selection, "fit", fit)
        x, _, _ = plant_factorization(60, 10, 2, 0.3, 0.4, 0.05, 0.5, seed=17)
        select_k(x, [2], repetitions=3, config=FAST)
        assert events.count("fit") == 6
        assert events.index("fit") <= 1

    def test_repeated_k_gets_one_record(self):
        x, _, _ = plant_factorization(60, 10, 2, 0.3, 0.4, 0.05, 0.5, seed=19)
        report = select_k(x, [3, 2, 3], repetitions=1, config=FAST)
        assert [rec.k for rec in report.records] == [3, 2]
        assert report == select_k(x, [3, 2], repetitions=1, config=FAST)

    @pytest.mark.parametrize("threads, cpus, pool", [
        (500, 3, 3), (2, 3, 2), (500, 8, 4), (500, None, None),
        (1, 8, None)])
    def test_pool_has_no_more_workers_than_cpus(self, monkeypatch, threads,
                                                cpus, pool):
        # a stand-in pool records its size and runs the jobs serially, so
        # no worker process is started
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        x, _, _ = plant_factorization(60, 10, 2, 0.3, 0.4, 0.05, 0.5, seed=20)
        # 2 K values x 1 repetition x 2 halves: 4 jobs
        report = select_k(x, [2, 3], repetitions=1, config=FAST,
                          threads=threads)
        assert sizes == ([] if pool is None else [pool])
        monkeypatch.undo()
        assert report == select_k(x, [2, 3], repetitions=1, config=FAST)

    def test_all_k_failed(self):
        x = BinaryMatrix(np.eye(4, dtype=int))
        report = select_k(x, [5, 6], repetitions=1, config=FAST)
        assert report.selected_k is None
        assert report.records == ()
        assert sorted(report.failed_k) == [5, 6]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_other_errors_propagate(self, threads):
        x = BinaryMatrix(np.ones((1, 4), dtype=int))   # too small to split
        with pytest.raises(DimensionError):
            select_k(x, [2, 3], repetitions=1, config=FAST, threads=threads)

    def test_empty_range_rejected(self):
        x = BinaryMatrix(np.zeros((10, 4), dtype=int))
        with pytest.raises(ValueError):
            select_k(x, [], repetitions=1, config=FAST)


def test_package_import_leaves_out_scipy_optimize():
    # the package needs no scipy: neither the import nor a whole select_k
    # sweep, matching included, loads any of it
    src = str(Path(permpatterns.__file__).parents[1])
    code = ("import sys, permpatterns as p; "
            "print('scipy.optimize' in sys.modules); "
            "x, _, _ = p.plant_factorization(40, 6, 2, 0.3, 0.4, 0.0, 0.5, "
            "seed=0); "
            "p.select_k(x, [2, 3], repetitions=1, config=p.FitConfig("
            "seed=0, cooling_factor=0.5, max_inner_iterations=5)); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.split() == ["False", "[]"]
