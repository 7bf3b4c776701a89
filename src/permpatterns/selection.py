"""Choosing the number of patterns by clustering instability.

The data is split into i.i.d. halves, both halves are factorized, the first
model is transferred onto the second half, labels are aligned by optimal
assignment, and the normalized fraction of rows whose full assignment
vectors disagree is the instability.  K is chosen at the minimum median
instability over repeated splits.
"""
from __future__ import annotations

import os
import statistics
from dataclasses import dataclass, field, replace
from itertools import permutations

import numpy as np

from .core import (BinaryMatrix, ConfigError, DimensionError, Factorization,
                   FitConfig)
from .engine import assign_matrix, fit


def split_dataset(x: BinaryMatrix, seed: int) -> tuple[BinaryMatrix, BinaryMatrix]:
    """Randomly permute rows and cut into two halves (first half gets the
    extra row when N is odd)."""
    if x.rows < 2:
        raise DimensionError("need at least 2 rows to split")
    rng = np.random.default_rng(seed)
    order = rng.permutation(x.rows)
    cut = (x.rows + 1) // 2
    return (BinaryMatrix(x.data[order[:cut]]),
            BinaryMatrix(x.data[order[cut:]]))


def _hamming_cost(u1: BinaryMatrix, u2: BinaryMatrix) -> np.ndarray:
    a = u1.data.astype(np.int64)
    b = u2.data.astype(np.int64)
    # cost[k, j] = Hamming(u1 row k, u2 row j)
    return np.abs(a[:, None, :] - b[None, :, :]).sum(axis=2)


def _min_cost_assignment(cost: list[list[int]]) -> list[int]:
    """pi minimizing sum_i cost[i][pi[i]] over a square integer matrix.

    Shortest augmenting paths with row and column potentials (the
    Hungarian method, O(K^3)); integer costs keep every step exact.
    """
    k = len(cost)
    inf = float("inf")       # only ever compared: int vs float is exact
    row_pot, col_pot = [0] * (k + 1), [0] * (k + 1)
    # owner[j]: 1-based row matched to 1-based column j; column 0 is the root
    owner, way = [0] * (k + 1), [0] * (k + 1)
    for i in range(1, k + 1):
        owner[0], j0 = i, 0
        slack, done = [inf] * (k + 1), [False] * (k + 1)
        while owner[j0]:
            done[j0] = True
            i0, delta, j1 = owner[j0], inf, 0
            row = cost[i0 - 1]
            for j in range(1, k + 1):
                if not done[j]:
                    reduced = row[j - 1] - row_pot[i0] - col_pot[j]
                    if reduced < slack[j]:
                        slack[j], way[j] = reduced, j0
                    if slack[j] < delta:
                        delta, j1 = slack[j], j
            for j in range(k + 1):
                if done[j]:
                    row_pot[owner[j]] += delta
                    col_pot[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
        while j0:
            owner[j0] = owner[way[j0]]
            j0 = way[j0]
    pi = [0] * k
    for j in range(1, k + 1):
        pi[owner[j] - 1] = j - 1
    return pi


def match_patterns(u1: BinaryMatrix, u2: BinaryMatrix) -> np.ndarray:
    """Permutation pi minimizing sum_k Hamming(u1[k], u2[pi[k]]).

    Among all minimum-cost permutations the lexicographically smallest one
    is returned, so u1 == u2 always yields the identity.
    """
    if u1.shape != u2.shape:
        raise DimensionError(f"shape mismatch: {u1.shape} vs {u2.shape}")
    k = u1.rows
    # cost * K^K + pi[i] * K^(K-1-i): the tie-break term reads pi as a
    # base-K number below K^K, so it orders the optimal permutations
    # lexicographically and never outweighs one unit of Hamming cost
    scale = k ** k
    cost = [[c * scale + j * k ** (k - 1 - i) for j, c in enumerate(row)]
            for i, row in enumerate(_hamming_cost(u1, u2).tolist())]
    return np.array(_min_cost_assignment(cost), dtype=np.int64)


def match_patterns_exhaustive(u1: BinaryMatrix, u2: BinaryMatrix) -> np.ndarray:
    """Exact enumeration over all K! permutations; testing aid for K <= 8."""
    if u1.shape != u2.shape:
        raise DimensionError(f"shape mismatch: {u1.shape} vs {u2.shape}")
    cost = _hamming_cost(u1, u2)
    k = cost.shape[0]
    if k > 8:
        raise ValueError("exhaustive matching is limited to K <= 8")
    best_pi, best_cost = None, None
    for perm in permutations(range(k)):
        c = sum(cost[i, perm[i]] for i in range(k))
        if best_cost is None or c < best_cost:
            best_pi, best_cost = perm, c
    return np.array(best_pi, dtype=np.int64)


def disagreement_score(z_pred: BinaryMatrix, z_ref: BinaryMatrix) -> float:
    """Normalized fraction of rows whose assignment vectors differ anywhere.

    The 2^K / (2^K - 1) factor makes uniformly random assignments score 1
    regardless of K.
    """
    if z_pred.shape != z_ref.shape:
        raise DimensionError(f"shape mismatch: {z_pred.shape} vs {z_ref.shape}")
    k = z_pred.cols
    mismatch = np.any(z_pred.data != z_ref.data, axis=1).mean()
    labels = 2.0 ** k
    return float(labels / (labels - 1.0) * mismatch)


@dataclass(frozen=True)
class InstabilityRecord:
    k: int
    values: tuple[float, ...]
    seeds: tuple[int, ...]
    median: float
    std: float


@dataclass(frozen=True)
class InstabilityReport:
    records: tuple[InstabilityRecord, ...]
    selected_k: int | None           # None when every K failed
    failed_k: dict[int, str] = field(default_factory=dict)   # K -> error


def _record(k: int, fits) -> InstabilityRecord:
    """One K's record from its fits in job order (see ``select_k``)."""
    values, seeds = [], []
    for (fact1, transferred), (fact2, _) in zip(fits[0::2], fits[1::2]):
        pi = match_patterns(fact1.u, fact2.u)
        aligned = np.zeros_like(transferred.data)
        aligned[:, pi] = transferred.data
        values.append(disagreement_score(BinaryMatrix(aligned), fact2.z))
        seeds.append(fact1.seed)
    return InstabilityRecord(
        k=k,
        values=tuple(values),
        seeds=tuple(seeds),
        median=float(statistics.median(values)),
        std=float(np.std(values)),
    )


def _instability_job(job) -> tuple[Factorization, BinaryMatrix | None] | str:
    """One fit of the sweep, of the (x, K, half, config) job: that half of
    x split at config.seed, and for the first half its model transferred
    onto the second half with the greedy assignment classifier.  A failed
    fit comes back as its error message."""
    x, k, half, config = job
    first, second = split_dataset(x, config.seed)
    try:
        fact = fit(second if half else first, k, config)
    except ConfigError as exc:
        return str(exc)
    return fact, None if half else assign_matrix(second, fact.u, fact.r,
                                                 fact.epsilon)


def select_k(x: BinaryMatrix, k_range, repetitions: int,
             config: FitConfig, threads: int = 1) -> InstabilityReport:
    """Run the instability analysis for each K; pick the minimum median,
    ties broken toward smaller K.  A K repeated in k_range gets one record,
    where it first occurs.

    Each repetition splits x into halves at seed config.seed + repetition,
    fits both, transfers the first model onto the second half with the
    greedy assignment classifier, aligns labels, and scores the row-wise
    disagreement.  Every fit of a half is one job, and the jobs of all K
    and repetitions run in one sweep, largest K first.  With ``threads >
    1`` they run in a pool of that many worker processes, but no more than
    there are jobs or CPUs; the report is the same as a serial sweep's.  A
    K whose fits raise ``ConfigError`` is listed in ``failed_k`` with the
    first such error in (repetition, half) order, and the sweep goes on;
    any other exception propagates.
    """
    k_range = list(dict.fromkeys(k_range))
    if not k_range:
        raise ValueError("k_range must be nonempty")
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    # one job per fit: K by K, the slowest first so that the workers finish
    # together, then repetition by repetition, first half (0) first; each
    # job splits x itself, so no split is kept before its fit
    ks = sorted(k_range, reverse=True)
    jobs = [(x, k, half, replace(config, seed=config.seed + rep))
            for k in ks for rep in range(repetitions) for half in (0, 1)]
    workers = min(threads, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        # imported here: the other commands need no pool, nor its import time
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_instability_job, jobs))
    else:
        outcomes = list(map(_instability_job, jobs))
    per_k = 2 * repetitions
    fits = {k: outcomes[i * per_k:(i + 1) * per_k] for i, k in enumerate(ks)}
    records, failed = [], {}
    for k in k_range:
        errors = [o for o in fits[k] if isinstance(o, str)]
        if errors:
            failed[k] = errors[0]
        else:
            records.append(_record(k, fits[k]))
    best = min(records, key=lambda rec: (rec.median, rec.k), default=None)
    return InstabilityReport(records=tuple(records),
                             selected_k=None if best is None else best.k,
                             failed_k=failed)


def instability(x: BinaryMatrix, k: int, repetitions: int,
                config: FitConfig) -> InstabilityRecord:
    """Instability of K-pattern factorizations over repeated random splits:
    the record of select_k's sweep over K alone.  A fit that fails raises
    ConfigError with the message select_k lists in ``failed_k``."""
    report = select_k(x, [k], repetitions, config)
    if report.failed_k:
        raise ConfigError(report.failed_k[k])
    return report.records[0]
