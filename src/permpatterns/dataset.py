"""Loading application datasets and reputation-based filtering.

Expected CSV header: ``id,name,category,price,avg_rating,num_ratings,
permissions`` with permissions as a ``;``-separated list.  JSON input is an
array of objects with the same keys.  A column-mapping dict can rename
columns of external dumps onto this schema.
"""
from __future__ import annotations

import csv
import gc
import json
import numbers
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, count, islice
from operator import itemgetter
from pathlib import Path

import numpy as np

from .core import BinaryMatrix, DimensionError

REQUIRED_COLUMNS = ("id", "name", "category", "price", "avg_rating",
                    "num_ratings", "permissions")


class DatasetError(ValueError):
    """Raised for unreadable, malformed, or inconsistent input files."""


@dataclass(frozen=True)
class Dataset:
    """N apps as columns: entry i of every column, and row i of ``matrix``,
    describe app i.

    ``avg_rating`` is NaN for an unrated app, whose ``num_ratings`` is 0.
    ``matrix`` is the N x D permission matrix, and column j of it is the
    permission ``vocabulary[j]``: the sorted union of all permission names.
    """

    ids: tuple[str, ...]
    names: tuple[str, ...]
    categories: tuple[str, ...]
    price: np.ndarray           # float64
    avg_rating: np.ndarray      # float64, NaN when unrated
    num_ratings: np.ndarray     # int64
    matrix: BinaryMatrix
    vocabulary: tuple[str, ...]

    def __post_init__(self):
        for name in ("ids", "names", "categories", "vocabulary"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for name, dtype in (("price", np.float64), ("avg_rating", np.float64),
                            ("num_ratings", np.int64)):
            arr = np.array(getattr(self, name), dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n = self.matrix.rows
        for name in ("ids", "names", "categories", "price", "avg_rating",
                     "num_ratings"):
            if len(getattr(self, name)) != n:
                raise DimensionError(
                    f"{len(getattr(self, name))} {name} for {n} matrix rows")
        if len(self.vocabulary) != self.matrix.cols:
            raise DimensionError(f"{len(self.vocabulary)} vocabulary names "
                                 f"for {self.matrix.cols} matrix columns")

    @property
    def n(self) -> int:
        return len(self.ids)

    def to_matrix(self) -> BinaryMatrix:
        return self.matrix


@dataclass(frozen=True)
class ReputationCriteria:
    """High reputation needs both a rating floor and a rating-count floor;
    low reputation is a rating-count ceiling regardless of score."""

    min_avg_rating: float = 4.0
    min_num_ratings: int = 100
    max_low_num_ratings: int = 10
    test_size: int = 0
    split_seed: int = 0

    def __post_init__(self):
        # the CLI reads these from a user's JSON file; a bool is neither a
        # threshold nor a count
        if (isinstance(self.min_avg_rating, bool)
                or not isinstance(self.min_avg_rating, numbers.Real)):
            raise ValueError("min_avg_rating must be a number")
        for name in ("min_num_ratings", "max_low_num_ratings", "test_size",
                     "split_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer")
        if self.min_num_ratings < 0 or self.max_low_num_ratings < 0:
            raise ValueError("rating-count thresholds must be non-negative")
        if self.test_size < 0 or self.split_seed < 0:
            raise ValueError("test size and split seed must be non-negative")


def _plain_lines(path: Path) -> list[str] | None:
    """The lines of a CSV file if the csv module's default dialect reads
    each of them as ``line.split(",")``, else None.

    That holds when the text has no quote, no carriage return and no NUL,
    and no line is longer than the csv module's field size limit.  The
    text is split at "\\n" only: ``str.splitlines`` also splits at
    characters such as "\\x0b" and "\\u2028", which the csv module keeps
    inside a field."""
    data = path.read_bytes()
    if b'"' in data or b"\r" in data or b"\0" in data:
        return None
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError:
        return None   # the csv route reports it where it meets it
    # each form of the file is dropped once the next one is made
    del data
    lines = text.split("\n")
    del text
    if not lines[-1]:
        lines.pop()   # the end of the last line, not a line
    if max(map(len, lines), default=0) > csv.field_size_limit():
        return None
    return lines


def _read_csv(path: Path, column_map: dict) -> list[tuple]:
    """The schema's columns of a CSV file; a missing trailing field reads
    as empty.  A file that ``_plain_lines`` accepts is split with str
    methods, and any other goes through the csv module."""
    names = [column_map.get(k, k) for k in REQUIRED_COLUMNS]

    def checked(header):
        if header is None:
            raise DatasetError(f"{path}: empty file")
        unknown = set(names) - set(header)
        if unknown:
            raise DatasetError(f"{path}: missing columns {sorted(unknown)}")
        return header

    lines = _plain_lines(path)
    if lines is None:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = checked(next(reader, None))
                records = list(reader)
            except csv.Error as exc:
                # such as a field over the csv module's size limit, which
                # is left as it is: raising it would hold for the whole
                # process
                raise DatasetError(
                    f"{path}: line {reader.line_num}: {exc}") from exc
    else:
        # in place, so that each line is freed as its fields are made; a
        # blank line has no fields, as the csv module reads it
        for i, line in enumerate(lines):
            lines[i] = line.split(",") if line else []
        header = checked(lines[0] if lines else None)
        records = islice(lines, 1, None)
    # a blank line is not a record and has no line number
    rows = list(filter(None, records))
    if not rows:
        return [()] * len(names)
    width = len(header)
    if min(map(len, rows)) < width:
        rows = [row + [""] * (width - len(row)) for row in rows]
    columns = list(zip(*rows))
    # a name repeated in the header reads its last column
    where = {name: i for i, name in enumerate(header)}
    return [columns[where[name]] for name in names]


def _read_json(path: Path, column_map: dict) -> list[list]:
    """The schema's columns of a JSON array of objects, close to the CSV
    reader's: a missing key or null reads as "", an id as ``str(v)``, a
    name or category as ``str(v or "")``, a permission list as a tuple of
    str and any other permission value as ``str(v or "")``."""
    with open(path, encoding="utf-8-sig") as fh:
        text = fh.read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DatasetError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise DatasetError(f"{path}: JSON nested too deeply") from exc
    except ValueError as exc:
        # such as an integer over the interpreter's 4,300-digit limit
        raise DatasetError(f"{path}: {exc}") from exc
    if not isinstance(payload, list):
        raise DatasetError(f"{path}: expected a JSON array of objects")
    id_key = column_map.get("id", "id")
    for line, entry in enumerate(payload, start=1):
        if not isinstance(entry, dict):
            raise DatasetError(f"{path}: entry {line} is not an object")
        if id_key not in entry:
            raise DatasetError(f"{path}: entry {line} lacks an id")
    ids, names, categories, price, rating, count, permissions = [
        ["" if (v := entry.get(column_map.get(k, k))) is None else v
         for entry in payload] for k in REQUIRED_COLUMNS]
    return [list(map(str, ids)),
            [str(v or "") for v in names],
            [str(v or "") for v in categories],
            price, rating, count,
            [tuple(map(str, v)) if isinstance(v, list) else str(v or "")
             for v in permissions]]


def _distinct(cells) -> tuple[list, np.ndarray]:
    """The distinct cells in order of first appearance, and the index of
    each cell's value among them.  A JSON array or object is no dict key,
    so a column holding one has each of its cells as its own value."""
    index = defaultdict(count().__next__)
    try:
        codes = np.fromiter(map(index.__getitem__, cells), dtype=np.intp,
                            count=len(cells))
    except TypeError:
        return list(cells), np.arange(len(cells))
    return list(index), codes


def _convert(cells, convert, fill, dtype, failures: list
             ) -> tuple[np.ndarray, np.ndarray]:
    """``convert`` applied to each cell that is not empty ("", which a
    JSON null also reads as) and ``fill`` for each empty one, as an array,
    with the mask of the cells that are not empty.

    Apps repeat values, so ``convert`` runs once per distinct cell, in
    order of first appearance.  JSON cells that are equal but not alike
    (1 and True, 0 and -0.0) share the first one's result: they convert
    alike but for the sign of a zero, which no valid rating has.  The first
    value rejected stops it: its first cell, the first cell rejected, goes
    into ``failures`` as (index, message), and later values are left as
    ``fill`` and counted empty."""
    table, codes = _distinct(cells)
    values = np.full(len(table), fill, dtype=dtype)
    present = np.zeros(len(table), dtype=bool)
    for j, cell in enumerate(table):
        if cell == "":
            continue
        present[j] = True
        try:
            values[j] = convert(cell)
        except (TypeError, ValueError, OverflowError) as exc:
            failures.append((int((codes == j).argmax()), str(exc)))
            break
    return values[codes], present[codes]


def _price(cell) -> float:
    """A price: 0 for any false JSON value, such as 0, false or []."""
    return float(cell) if cell else 0.0


def _whole(cell) -> int:
    """int(cell), rejecting a JSON number with a fraction, which int()
    would cut off."""
    value = int(cell)
    if isinstance(cell, float) and value != cell:
        raise ValueError(f"num_ratings {cell} is not a whole number")
    return value


def _permission_matrix(fields) -> tuple[BinaryMatrix, tuple[str, ...]]:
    """The N x D matrix of the permission fields, each a ';'-separated
    string or a tuple of names, and its columns' names in sorted order.
    Each distinct field is split once: apps repeat permission sets."""
    table, codes = _distinct(fields)
    pieces = [field.split(";") if isinstance(field, str) else field
              for field in table]
    tokens = list(map(str.strip, chain.from_iterable(pieces)))
    vocabulary = tuple(sorted(set(tokens) - {""}))
    column = dict(zip(vocabulary, range(len(vocabulary))))
    column[""] = len(vocabulary)   # empty tokens mark a column dropped below
    distinct = np.zeros((len(pieces), len(vocabulary) + 1), dtype=np.uint8)
    distinct[np.repeat(np.arange(len(pieces)), list(map(len, pieces))),
             np.fromiter(map(column.__getitem__, tokens), dtype=np.intp,
                         count=len(tokens))] = 1
    return BinaryMatrix(distinct[:, :-1][codes]), vocabulary


@contextmanager
def _cyclic_gc_paused():
    """Pause the cyclic collector while code that makes many objects and no
    reference cycles runs: its passes over them would find nothing."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def load_dataset(path, column_map: dict | None = None) -> Dataset:
    """Load a CSV or JSON application dump: a file whose suffix is
    ".json", in any case, is read as JSON and any other file as CSV.

    ``column_map`` maps schema names to the file's column names, e.g.
    ``{"id": "package", "permissions": "perm_list"}``, so external dumps
    can be consumed without rewriting.  A bad value is reported for the
    first app that has one, by line: its CSV record's number, the header
    being line 1 and blank lines not counted, or its JSON entry's number
    counting from 1.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"input file not found: {path}")
    column_map = column_map or {}
    # the parse makes a few objects per value and no reference cycles
    with _cyclic_gc_paused():
        return _load(path, column_map)


def _load(path: Path, column_map: dict) -> Dataset:
    """load_dataset once the file is found."""
    try:
        if path.suffix.lower() == ".json":
            columns, first_line = _read_json(path, column_map), 1
        else:
            columns, first_line = _read_csv(path, column_map), 2
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    (id_col, name_col, category_col, price_col, rating_col, count_col,
     permission_col) = columns

    # each check runs on a whole column; an app failing several checks
    # reports the first of them in this order
    failures: list[tuple[int, str]] = []
    ids = tuple(map(str.strip, id_col))
    if "" in ids:
        failures.append((ids.index(""), "empty id"))
    if len(set(ids)) < len(ids):
        # _distinct numbers the ids 0, 1, 2, ... up to the first repeat,
        # which takes an earlier id's number
        i = int((_distinct(ids)[1] != np.arange(len(ids))).argmax())
        failures.append((i, f"duplicate app id {ids[i]!r}"))
    price, _ = _convert(price_col, _price, 0.0, np.float64, failures)
    rating, rated = _convert(rating_col, float, np.nan, np.float64, failures)
    count, _ = _convert(count_col, _whole, 0, np.int64, failures)
    outside = rated & ~((rating >= 1.0) & (rating <= 5.0))
    if outside.any():
        i = int(outside.argmax())
        failures.append((i, f"avg_rating {float(rating[i])} outside [1, 5]"))
    if (count < 0).any():
        failures.append((int((count < 0).argmax()), "negative num_ratings"))
    bad_price = ~((price >= 0.0) & (price < np.inf))
    if bad_price.any():
        i = int(bad_price.argmax())
        failures.append(
            (i, f"price {float(price[i])} is negative or not finite"))
    if failures:
        # min keeps the earliest check among those failing on one app
        row, message = min(failures, key=itemgetter(0))
        raise DatasetError(f"line {row + first_line}: {message}")
    count[~rated] = 0   # unrated: the count is not trusted

    matrix, vocabulary = _permission_matrix(permission_col)
    return Dataset(ids=ids, names=name_col, categories=category_col,
                   price=price, avg_rating=rating, num_ratings=count,
                   matrix=matrix, vocabulary=vocabulary)


def _take(ds: Dataset, rows: np.ndarray) -> Dataset:
    """The apps at ``rows`` of ``ds``, in that order."""
    pick = rows.tolist()

    def of(column):
        return tuple(column[i] for i in pick)

    return Dataset(ids=of(ds.ids), names=of(ds.names),
                   categories=of(ds.categories), price=ds.price[rows],
                   avg_rating=ds.avg_rating[rows],
                   num_ratings=ds.num_ratings[rows],
                   matrix=BinaryMatrix(ds.matrix.data[rows]),
                   vocabulary=ds.vocabulary)


def filter_reputation(ds: Dataset, criteria: ReputationCriteria
                      ) -> tuple[Dataset, Dataset, Dataset]:
    """Split into (train, test_high, test_low).

    High-reputation apps meet both thresholds (inclusive); a seeded sample
    of them becomes test_high and the rest train.  test_low is every app
    with fewer than the low threshold of ratings, regardless of score.
    """
    # NaN, an unrated app, compares false
    high = np.flatnonzero((ds.avg_rating >= criteria.min_avg_rating)
                          & (ds.num_ratings >= criteria.min_num_ratings))
    low = np.flatnonzero(ds.num_ratings < criteria.max_low_num_ratings)
    if criteria.test_size > len(high):
        raise DatasetError(
            f"test size {criteria.test_size} exceeds the high-reputation "
            f"population of {len(high)}")
    rng = np.random.default_rng(criteria.split_seed)
    picked = np.zeros(len(high), dtype=bool)
    picked[rng.choice(len(high), size=criteria.test_size,
                      replace=False)] = True
    return _take(ds, high[~picked]), _take(ds, high[picked]), _take(ds, low)


@dataclass(frozen=True)
class SummaryStats:
    # (permission, fraction of apps requesting it), sorted descending
    permission_frequencies: tuple[tuple[str, float], ...]
    # (price, cumulative fraction of apps costing <= price)
    price_cumulative: tuple[tuple[float, float], ...]
    # (avg_rating, num_ratings) for apps with at least one rating
    rating_table: tuple[tuple[float, int], ...]


def summary_stats(ds: Dataset, top_n: int | None = None) -> SummaryStats:
    """Descriptive statistics: top permissions, cumulative price curve, and
    the rating scatter (zero-rating apps excluded)."""
    n = max(ds.n, 1)
    fractions = (ds.matrix.data.sum(axis=0) / n).tolist()
    freq = sorted(zip(ds.vocabulary, fractions),
                  key=lambda item: (-item[1], item[0]))
    if top_n is not None:
        freq = freq[:top_n]
    prices = np.sort(ds.price)
    distinct = np.unique(prices)
    below = np.searchsorted(prices, distinct, side="right")
    price_curve = [(price, count / n)
                   for price, count in zip(distinct.tolist(), below.tolist())]
    rated = (ds.num_ratings > 0) & ~np.isnan(ds.avg_rating)
    with _cyclic_gc_paused():     # one tuple per rated app
        ratings = tuple(zip(ds.avg_rating[rated].tolist(),
                            ds.num_ratings[rated].tolist()))
    return SummaryStats(
        permission_frequencies=tuple(freq),
        price_cumulative=tuple(price_curve),
        rating_table=ratings,
    )
