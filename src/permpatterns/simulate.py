"""Synthetic data: independent-request null models, planted factorizations,
and the log-binned PCP histogram that compares real and simulated apps."""
from __future__ import annotations

import numpy as np

from .core import BinaryMatrix, DimensionError
from .engine import boolean_product

UNDERFLOW_THRESHOLD = 0.001
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


def pcp_bins(bins: int) -> tuple[np.ndarray, np.ndarray]:
    """The edges of `bins` log-spaced bins on [0.001, 1] and the bins'
    geometric centers; a count too large for an array raises MemoryError
    or ValueError."""
    edges = np.logspace(np.log10(UNDERFLOW_THRESHOLD), 0.0, bins + 1)
    return edges, np.sqrt(edges[:-1] * edges[1:])


def pcp_histogram(pcp: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Counts of one PCP matrix's off-diagonal values over the bin edges
    from pcp_bins; values below the lowest edge count in the lowest bin."""
    vals = pcp[~np.eye(pcp.shape[0], dtype=bool)]
    counts, _ = np.histogram(np.clip(vals, edges[0], 1.0), bins=edges)
    return counts
