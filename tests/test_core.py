import numpy as np
import pytest
from hypothesis import given, strategies as st

from permpatterns import (
    BinaryMatrix,
    DimensionError,
    FitConfig,
    hamming_distance,
)
from permpatterns.core import ConfigError, check_binary

from helpers import matrix_from_rows


def test_matrix_from_rows_copies_entries():
    m = matrix_from_rows([[1, 0], [0, 1]])
    assert m.shape == (2, 2)
    assert m[0, 0] == 1 and m[0, 1] == 0
    assert m[1, 0] == 0 and m[1, 1] == 1


def test_matrix_from_rows_rejects_empty():
    with pytest.raises(DimensionError):
        matrix_from_rows([])


def test_matrix_from_rows_rejects_ragged():
    with pytest.raises(DimensionError):
        matrix_from_rows([[1], [1, 0]])


def test_matrix_rejects_non_binary():
    for entries in ([[0, 2]], [[0.5, 1]], [[-1, 0]], [[257, 1]],
                    [[np.nan, 1]], [["1", "0"]]):
        with pytest.raises(ValueError):
            BinaryMatrix(np.array(entries))
    accepted = BinaryMatrix(np.array([[True, False]]))
    assert accepted.data.tolist() == [[1, 0]]


@pytest.mark.parametrize("arr", [
    np.array([True, False]), np.zeros((0, 3), dtype=bool),
    np.array([0, 1, 1], dtype=np.uint8), np.array([0, 2], dtype=np.uint8),
    np.array([255], dtype=np.uint8), np.array([1, 0], dtype=np.uint64),
    np.array([[0, 1], [1, 1]], dtype=np.uint16), np.zeros(0, dtype=np.uint8),
    np.array([0, 1], dtype=np.int8), np.array([-1, 0], dtype=np.int8),
    np.array([1, 0], dtype=np.int64), np.array([0.0, 1.0]),
    np.array([0.5, 1.0]), np.array([np.nan, 1.0]), np.array([-0.0, 1.0]),
    np.zeros(0), np.zeros((2, 0), dtype=np.int64),
])
def test_check_binary_agrees_with_entrywise_formula(arr):
    # the entry-by-entry definition, which check_binary shortcuts by dtype
    binary = bool(((arr == 0) | (arr == 1)).all())
    if binary:
        check_binary(arr)
    else:
        with pytest.raises(ValueError, match="exactly 0 or 1"):
            check_binary(arr)


@pytest.mark.parametrize("arr", [np.array([1, 0]), np.zeros((2, 2, 2))],
                         ids=["1-d", "3-d"])
def test_matrix_rejects_other_ranks(arr):
    with pytest.raises(DimensionError, match="expected a 2-d array"):
        BinaryMatrix(arr)


def test_matrix_compares_by_identity():
    # no value equality: compare values with np.array_equal on .data
    a, b = matrix_from_rows([[1, 0]]), matrix_from_rows([[1, 0]])
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert np.array_equal(a.data, b.data)


def test_matrix_is_immutable():
    m = matrix_from_rows([[1, 0]])
    with pytest.raises(ValueError):
        m.data[0, 0] = 0


def test_hamming_identical_is_zero():
    m = matrix_from_rows([[1, 0], [0, 1]])
    assert hamming_distance(m, m) == 0


def test_hamming_complement():
    a = BinaryMatrix(np.zeros((2, 2), dtype=int))
    b = BinaryMatrix(np.ones((2, 2), dtype=int))
    assert hamming_distance(a, b) == 4


def test_hamming_matches_bruteforce():
    rng = np.random.default_rng(0)
    a = BinaryMatrix((rng.random((10, 10)) < 0.5).astype(int))
    b = BinaryMatrix((rng.random((10, 10)) < 0.5).astype(int))
    expected = sum(
        1
        for i in range(10)
        for j in range(10)
        if a[i, j] != b[i, j]
    )
    assert hamming_distance(a, b) == expected


def test_hamming_shape_mismatch():
    with pytest.raises(DimensionError):
        hamming_distance(matrix_from_rows([[1]]), matrix_from_rows([[1, 0]]))


binary_rows = st.integers(1, 6).flatmap(
    lambda width: st.lists(
        st.lists(st.integers(0, 1), min_size=width, max_size=width),
        min_size=1, max_size=8,
    )
)


@given(binary_rows)
def test_row_roundtrip(rows):
    m = matrix_from_rows(rows)
    for i, row in enumerate(rows):
        assert m[i].tolist() == row


@given(st.integers(0, 2**30), st.integers(2, 5), st.integers(2, 5))
def test_hamming_symmetry_and_triangle(seed, n, d):
    rng = np.random.default_rng(seed)
    mats = [BinaryMatrix((rng.random((n, d)) < 0.5).astype(int))
            for _ in range(3)]
    a, b, c = mats
    assert hamming_distance(a, b) == hamming_distance(b, a)
    assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)


def test_fit_config_validation():
    with pytest.raises(ConfigError):
        FitConfig(cooling_factor=1.5)
    with pytest.raises(ConfigError):
        FitConfig(tolerance=0.0)
    with pytest.raises(ConfigError):
        FitConfig(max_inner_iterations=0)
    # numpy's generators take only non-negative seeds
    with pytest.raises(ConfigError, match="seed must be non-negative"):
        FitConfig(seed=-1)


def test_fit_config_rejects_nan_tolerance():
    # a NaN tolerance passes `tolerance <= 0`, and the convergence test
    # then never holds, so every level would run out its step budget
    with pytest.raises(ConfigError, match="tolerance must be positive"):
        FitConfig(tolerance=float("nan"))


@pytest.mark.parametrize("field", ["max_inner_iterations", "seed"])
@pytest.mark.parametrize("value", [2.5, 3.0, True, False, "3", None,
                                   np.float64(3.0)],
                         ids=["2.5", "3.0", "True", "False", "str", "None",
                              "float64"])
def test_fit_config_rejects_non_integer_counts(field, value):
    # fit would hand these to range or SeedSequence, which raise TypeError
    # or take a bool as 0 or 1
    with pytest.raises(ConfigError, match="must be an integer"):
        FitConfig(**{field: value})


def test_fit_config_accepts_integers():
    config = FitConfig(max_inner_iterations=1, seed=0)
    assert (config.max_inner_iterations, config.seed) == (1, 0)
    assert FitConfig().cooling_factor == 0.8
