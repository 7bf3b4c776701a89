"""Reconstruction residuals, pairwise conditional probabilities, and
category divergence."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import BinaryMatrix, DimensionError
from .engine import boolean_product

# Rows per block of pcp_matrix's co-occurrence sum.
_BLOCK_ROWS = 1 << 14


@dataclass(frozen=True)
class ErrorRates:
    """Per-application uncovered (fn) and over-implied (fp) permission counts."""

    fn_per_app: np.ndarray
    fp_per_app: np.ndarray
    mean_fn: float
    mean_fp: float
    # cumulative[t] = fraction of applications with count > t, t = 0..max
    cumulative_fn: np.ndarray
    cumulative_fp: np.ndarray


def _cumulative_gt(counts: np.ndarray) -> np.ndarray:
    n = counts.shape[0]
    top = int(counts.max()) if n else 0
    return (n - np.cumsum(np.bincount(counts, minlength=top + 1))) / n


def error_rates(x: BinaryMatrix, z: BinaryMatrix, u: BinaryMatrix) -> ErrorRates:
    """fn counts x=1 entries missed by the reconstruction, fp counts x=0
    entries the assigned patterns wrongly imply."""
    recon = boolean_product(z, u)
    if recon.shape != x.shape:
        raise DimensionError(f"reconstruction {recon.shape} != x {x.shape}")
    diff = x.data.astype(np.int8) - recon.data.astype(np.int8)
    fn = (diff == 1).sum(axis=1)
    fp = (diff == -1).sum(axis=1)
    return ErrorRates(
        fn_per_app=fn,
        fp_per_app=fp,
        mean_fn=float(fn.mean()),
        mean_fp=float(fp.mean()),
        cumulative_fn=_cumulative_gt(fn),
        cumulative_fp=_cumulative_gt(fp),
    )


def pcp_matrix(x: BinaryMatrix) -> tuple[np.ndarray, list[int]]:
    """Empirical p(s requested | t requested) for every ordered pair (s, t).

    Returns the D x D matrix plus the list of column indices whose
    permission is never requested; those columns are 0 rather than NaN so
    indices stay aligned with the vocabulary.
    """
    # co[s, t] = number of apps requesting both, summed over row blocks in
    # float32, which counts exactly up to 2**24 rows a block
    co = np.zeros((x.cols, x.cols))
    for lo in range(0, x.rows, _BLOCK_ROWS):
        block = x.data[lo:lo + _BLOCK_ROWS].astype(np.float32)
        co += block.T @ block
    col_counts = co.diagonal()
    with np.errstate(divide="ignore", invalid="ignore"):
        pcp = co / col_counts[None, :]
    undefined = np.nonzero(col_counts == 0)[0].tolist()
    pcp[:, col_counts == 0] = 0.0
    return pcp, undefined


def average_pcp(pcp: np.ndarray, undefined: Sequence[int]) -> tuple[float, bool]:
    """Mean off-diagonal PCP over pairs with a defined conditioning column.

    The flag is True when no defined off-diagonal pair exists (the mean is
    then reported as 0).
    """
    d = pcp.shape[0]
    defined = np.ones(d, dtype=bool)
    defined[list(undefined)] = False
    mask = np.ones((d, d), dtype=bool)
    np.fill_diagonal(mask, False)
    mask &= defined[None, :]
    if not mask.any():
        return 0.0, True
    return float(pcp[mask].mean()), False


def category_divergence(z: BinaryMatrix, categories: Sequence[str],
                        smoothing: float = 0.5) -> np.ndarray:
    """KL(p_global || p_pattern) in bits between category distributions,
    one value per pattern; NaN for a pattern with no assigned applications.

    Both empirical distributions get add-``smoothing`` counts before
    normalization; without it the divergence is +inf, with no warning,
    whenever the pattern misses a category.  Counts and smoothing are
    divided by the larger of the smoothing and 1 first, so that their sums
    cannot overflow.
    """
    if len(categories) != z.rows:
        raise DimensionError(f"{len(categories)} categories for {z.rows} rows")
    cats = sorted(set(categories))
    idx = {c: i for i, c in enumerate(cats)}
    one_hot = np.zeros((z.rows, len(cats)))
    one_hot[np.arange(z.rows), [idx[c] for c in categories]] = 1.0
    scale = max(smoothing, 1.0)
    global_counts = one_hot.sum(axis=0) / scale
    pattern_counts = z.data.T.astype(float) @ one_hot / scale    # (K, cats)
    smoothing /= scale
    p_g = (global_counts + smoothing) / (global_counts + smoothing).sum()
    nonempty = pattern_counts.sum(axis=1) > 0
    p_k = pattern_counts[nonempty] + smoothing
    p_k /= p_k.sum(axis=1, keepdims=True)
    kl = np.full(z.cols, np.nan)
    # every category has an app, so p_g > 0, and p_g / 0 = inf gives +inf
    with np.errstate(divide="ignore"):
        kl[nonempty] = np.sum(p_g * np.log2(p_g / p_k), axis=1)
    return kl
