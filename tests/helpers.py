"""Small builders and reference formulas shared by the unit tests."""
import numpy as np

from permpatterns import BinaryMatrix, DimensionError


def matrix_from_rows(rows, row_labels=None, col_labels=None) -> BinaryMatrix:
    """Build a BinaryMatrix from an iterable of equal-length 0/1 vectors."""
    rows = list(rows)
    if not rows:
        raise DimensionError("at least one row is required")
    width = len(rows[0])
    for i, r in enumerate(rows):
        if len(r) != width:
            raise DimensionError(f"row {i} has length {len(r)}, expected {width}")
    return BinaryMatrix(np.asarray(rows), row_labels=row_labels, col_labels=col_labels)


def signal_bernoulli_param(z_row, beta, d: int) -> float:
    """q = prod_k beta[k, d] ** z_row[k]; p(x=1 | signal) is 1 - q."""
    mask = np.asarray(z_row).astype(bool)
    if not mask.any():
        return 1.0
    return float(np.prod(np.asarray(beta, dtype=float)[mask, d]))
