"""Choosing the number of patterns by clustering instability.

The data is split into i.i.d. halves, both halves are factorized, the first
model is transferred onto the second half, labels are aligned by optimal
assignment, and the normalized fraction of rows whose full assignment
vectors disagree is the instability.  K is chosen at the minimum median
instability over repeated splits.
"""
from __future__ import annotations

import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import permutations

import numpy as np

from .core import BinaryMatrix, ConfigError, DimensionError, FitConfig
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


def match_patterns(u1: BinaryMatrix, u2: BinaryMatrix) -> np.ndarray:
    """Permutation pi minimizing sum_k Hamming(u1[k], u2[pi[k]]).

    Among all minimum-cost permutations the lexicographically smallest one
    is returned, so u1 == u2 always yields the identity.
    """
    # imported here, not at module level: scipy.optimize takes longer to load
    # than the rest of the package and more memory, and callers that only
    # fit or score apps never need it
    from scipy.optimize import linear_sum_assignment

    if u1.shape != u2.shape:
        raise DimensionError(f"shape mismatch: {u1.shape} vs {u2.shape}")
    cost = _hamming_cost(u1, u2).astype(float)
    k = cost.shape[0]
    rows, cols = linear_sum_assignment(cost)
    best = cost[rows, cols].sum()
    # fix pi[0], pi[1], ... to the smallest values still achieving the optimum
    pi: list[int] = []
    used: set[int] = set()
    prefix = 0.0
    for row in range(k):
        for j in range(k):
            if j in used:
                continue
            rest_cols = [c for c in range(k) if c not in used and c != j]
            tail = 0.0
            if rest_cols:
                sub = cost[np.ix_(range(row + 1, k), rest_cols)]
                r, c = linear_sum_assignment(sub)
                tail = sub[r, c].sum()
            if prefix + cost[row, j] + tail <= best + 1e-9:
                pi.append(j)
                used.add(j)
                prefix += cost[row, j]
                break
    return np.array(pi, dtype=np.int64)


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


def instability(x: BinaryMatrix, k: int, repetitions: int,
                config: FitConfig) -> InstabilityRecord:
    """Instability of K-pattern factorizations over repeated random splits.

    Each repetition fits both halves, transfers the first model onto the
    second half with the greedy assignment classifier, aligns labels, and
    scores the row-wise disagreement.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    values, seeds = [], []
    for rep in range(repetitions):
        seed = config.seed + rep
        half1, half2 = split_dataset(x, seed)
        cfg = replace(config, seed=seed)
        fact1 = fit(half1, k, cfg)
        fact2 = fit(half2, k, cfg)
        transferred = assign_matrix(half2, fact1.u, fact1.r, fact1.epsilon)
        pi = match_patterns(fact1.u, fact2.u)
        aligned = np.zeros_like(transferred.data)
        aligned[:, pi] = transferred.data
        values.append(disagreement_score(BinaryMatrix(aligned), fact2.z))
        seeds.append(seed)
    return InstabilityRecord(
        k=k,
        values=tuple(values),
        seeds=tuple(seeds),
        median=float(statistics.median(values)),
        std=float(np.std(values)),
    )


def _instability_job(args) -> InstabilityRecord | str:
    """One K of the sweep; a failed fit comes back as its error message."""
    x, k, repetitions, config = args
    try:
        return instability(x, k, repetitions, config)
    except (ConfigError, FloatingPointError) as exc:
        return str(exc)


def select_k(x: BinaryMatrix, k_range, repetitions: int,
             config: FitConfig, threads: int = 1) -> InstabilityReport:
    """Run the instability analysis for each K; pick the minimum median,
    ties broken toward smaller K.

    With ``threads > 1`` the K values run in a pool of that many worker
    processes; the report is the same as a serial sweep's.  A K whose fits
    raise ``ConfigError`` or ``FloatingPointError`` is listed in
    ``failed_k`` and the sweep goes on; any other exception propagates.
    """
    k_range = list(k_range)
    if not k_range:
        raise ValueError("k_range must be nonempty")
    jobs = [(x, k, repetitions, config) for k in k_range]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=min(threads, len(jobs))) as pool:
            outcomes = list(pool.map(_instability_job, jobs))
    else:
        outcomes = [_instability_job(job) for job in jobs]
    records = tuple(o for o in outcomes if isinstance(o, InstabilityRecord))
    failed = {k: o for k, o in zip(k_range, outcomes) if isinstance(o, str)}
    best = min(records, key=lambda rec: (rec.median, rec.k), default=None)
    return InstabilityReport(records=records,
                             selected_k=None if best is None else best.k,
                             failed_k=failed)
