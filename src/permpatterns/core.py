"""Binary matrices and the containers shared by the mining pipeline."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


class DimensionError(ValueError):
    """Raised when matrix shapes or column lengths do not line up."""


class ConfigError(ValueError):
    """Raised for invalid fitting or pipeline configuration."""


def check_binary(arr: np.ndarray) -> None:
    """Raise ValueError unless every entry of ``arr`` equals 0 or 1."""
    if arr.dtype == bool:
        return
    if arr.dtype.kind == "u":
        binary = arr.max(initial=0) <= 1
    else:
        binary = ((arr == 0) | (arr == 1)).all()
    if not binary:
        raise ValueError("entries must be exactly 0 or 1")


@dataclass(frozen=True, eq=False)
class BinaryMatrix:
    """Immutable dense 0/1 matrix.

    The underlying array is stored as read-only uint8; all pipeline stages
    share BinaryMatrix instances freely across threads.  What a row or a
    column stands for is the caller's: a ``Dataset`` holds its apps' ids
    and its permission vocabulary.  Matrices compare and hash by identity;
    compare values with ``np.array_equal`` on ``data``.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 2:
            raise DimensionError(f"expected a 2-d array, got ndim={arr.ndim}")
        check_binary(arr)
        arr = np.ascontiguousarray(arr, dtype=np.uint8)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def __getitem__(self, idx):
        return self.data[idx]


def hamming_distance(a: BinaryMatrix, b: BinaryMatrix) -> int:
    """Number of positions where two equally-shaped binary matrices differ."""
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    return int(np.count_nonzero(a.data != b.data))


@dataclass(frozen=True)
class FitConfig:
    """The EM fitter's cooling rate per temperature level, its convergence
    test (at most ``max_inner_iterations`` steps per level, stopping at a
    relative change of ``tolerance``) and the seed of its initial state.
    At the default factor of 0.8 the fit cools from 2.0 to 0.05 in 18
    levels and then refines at T = 1, 19 levels in all."""

    cooling_factor: float = 0.8
    tolerance: float = 1e-5
    max_inner_iterations: int = 50
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.cooling_factor < 1.0:
            raise ConfigError("cooling factor must lie in (0, 1)")
        if not self.tolerance > 0:                  # rejects NaN
            raise ConfigError("tolerance must be positive")
        # a bool is not a count or a seed
        for name in ("max_inner_iterations", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name.replace('_', ' ')} must be an "
                                  f"integer, got {value!r}")
        if self.max_inner_iterations < 1:
            raise ConfigError("max inner iterations must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


def binarize(beta: np.ndarray) -> BinaryMatrix:
    """Round beta to the Boolean pattern matrix.

    beta[k, d] is p(u[k, d] == 0), so u is 1 where beta < 0.5; an exact
    0.5 tie rounds to 0.
    """
    return BinaryMatrix((np.asarray(beta) < 0.5).astype(np.uint8))


@dataclass(frozen=True, eq=False)
class Factorization:
    """Result of fitting: Boolean factors plus the continuous mixture parameters.

    ``z`` holds the per-application pattern assignments (N x K).
    ``beta[k, d]`` is the probability that pattern k does *not* contain
    permission d; ``u``, one pattern per row (K x D), is its binarization,
    computed on first use.  Like matrices, results compare and hash by
    identity.
    """

    z: BinaryMatrix
    beta: np.ndarray
    r: float
    epsilon: float
    log_likelihood: float
    seed: int

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float)
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)

    @cached_property
    def u(self) -> BinaryMatrix:
        return binarize(self.beta)

    def to_json_dict(self) -> dict:
        """Serializable summary; pattern rows are ordered by the fitter."""
        return {
            "K": len(self.beta),
            "u": self.u.data.astype(int).tolist(),
            "z_counts": self.z.data.sum(axis=0).astype(int).tolist(),
            "beta": np.round(self.beta, 12).tolist(),
            "r": self.r,
            "epsilon": self.epsilon,
            "log_likelihood": self.log_likelihood,
            "seed": self.seed,
        }
