"""Synthetic data: independent-request null models and planted factorizations."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BinaryMatrix, DimensionError
from .engine import boolean_product

UNDERFLOW_THRESHOLD = 0.001
DEFAULT_BINS = 20
# Rows per block of simulate_independent's draw.
_BLOCK_ROWS = 1 << 14


def marginal_probs(x: BinaryMatrix) -> np.ndarray:
    """Empirical per-permission request probability (column means)."""
    if x.rows < 1:
        raise DimensionError("need at least one row")
    return x.data.mean(axis=0)


def simulate_independent(p: np.ndarray, n: int, seed: int) -> BinaryMatrix:
    """N hypothetical applications requesting each permission d independently
    with probability p[d]."""
    p = np.asarray(p, dtype=float)
    if not ((p >= 0) & (p <= 1)).all():       # NaN fails both
        raise ValueError("probabilities must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    # block by block, the same stream as one rng.random((n, D)) draw
    x = np.empty((n, p.shape[0]), dtype=np.uint8)
    for lo in range(0, n, _BLOCK_ROWS):
        block = x[lo:lo + _BLOCK_ROWS]
        block[:] = rng.random(block.shape) < p
    return BinaryMatrix(x)


def plant_factorization(n: int, d: int, k: int, pattern_density: float,
                        assign_density: float, epsilon: float, r: float,
                        seed: int) -> tuple[BinaryMatrix, BinaryMatrix, BinaryMatrix]:
    """Draw (x, z_true, u_true) from the generative story behind the model.

    Noise entries are resampled from Bernoulli(r) with probability epsilon,
    not XOR-flipped, matching the mixture's generative reading.
    """
    for name, v in [("pattern_density", pattern_density),
                    ("assign_density", assign_density),
                    ("epsilon", epsilon), ("r", r)]:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    u_true = BinaryMatrix((rng.random((k, d)) < pattern_density).astype(np.uint8))
    z_true = BinaryMatrix((rng.random((n, k)) < assign_density).astype(np.uint8))
    clean = boolean_product(z_true, u_true).data
    noisy_mask = rng.random((n, d)) < epsilon
    noise_values = (rng.random((n, d)) < r).astype(np.uint8)
    x = np.where(noisy_mask, noise_values, clean).astype(np.uint8)
    return BinaryMatrix(x), z_true, u_true


@dataclass(frozen=True)
class PcpHistogram:
    """Log-binned counts of PCP values for a real/simulated dataset pair."""

    bin_centers: np.ndarray
    counts_real: np.ndarray
    counts_sim: np.ndarray


def _bin_counts(pcp: np.ndarray, edges: np.ndarray) -> np.ndarray:
    d = pcp.shape[0]
    off_diag = ~np.eye(d, dtype=bool)
    vals = pcp[off_diag]
    counts, _ = np.histogram(np.clip(vals, edges[0], 1.0), bins=edges)
    # everything below the threshold was clipped into the lowest bin
    return counts


def pcp_bin_edges(bins: int) -> np.ndarray:
    """The edges of `bins` log-spaced bins on [0.001, 1]; a count too large
    for an array raises MemoryError or ValueError."""
    return np.logspace(np.log10(UNDERFLOW_THRESHOLD), 0.0, bins + 1)


def pcp_histogram(pcp_real: np.ndarray, pcp_sim: np.ndarray,
                  bins: int | np.ndarray = DEFAULT_BINS) -> PcpHistogram:
    """Histogram both PCP matrices over log-spaced bins on [0.001, 1];
    pairs below 0.001 accumulate in the lowest bin.  bins is a bin count
    or the edges pcp_bin_edges gives for one."""
    pcp_real = np.asarray(pcp_real, dtype=float)
    pcp_sim = np.asarray(pcp_sim, dtype=float)
    if pcp_real.shape != pcp_sim.shape:
        raise DimensionError(
            f"shape mismatch: {pcp_real.shape} vs {pcp_sim.shape}")
    edges = bins if isinstance(bins, np.ndarray) else pcp_bin_edges(bins)
    centers = np.sqrt(edges[:-1] * edges[1:])
    return PcpHistogram(
        bin_centers=centers,
        counts_real=_bin_counts(pcp_real, edges),
        counts_sim=_bin_counts(pcp_sim, edges),
    )
