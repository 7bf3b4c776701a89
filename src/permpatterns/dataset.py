"""Loading application datasets and reputation-based filtering.

Expected CSV header: ``id,name,category,price,avg_rating,num_ratings,
permissions`` with permissions as a ``;``-separated list.  JSON input is an
array of objects with the same keys.  A column-mapping dict can rename
columns of external dumps onto this schema.
"""
from __future__ import annotations

import csv
import json
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .core import BinaryMatrix

REQUIRED_COLUMNS = ("id", "name", "category", "price", "avg_rating",
                    "num_ratings", "permissions")


class DatasetError(ValueError):
    """Raised for unreadable, malformed, or inconsistent input files."""


@dataclass(frozen=True)
class AppRecord:
    id: str
    name: str
    category: str
    price: float
    avg_rating: Optional[float]   # None when the app has no ratings
    num_ratings: int
    permissions: frozenset[str]


@dataclass(frozen=True)
class Dataset:
    apps: tuple[AppRecord, ...]
    vocabulary: tuple[str, ...]   # sorted union of all permission names
    missing_rating_ids: tuple[str, ...] = ()

    @property
    def n(self) -> int:
        return len(self.apps)

    @property
    def d(self) -> int:
        return len(self.vocabulary)

    def to_matrix(self) -> BinaryMatrix:
        index = {p: j for j, p in enumerate(self.vocabulary)}
        data = np.zeros((self.n, self.d), dtype=np.uint8)
        for i, app in enumerate(self.apps):
            for perm in app.permissions:
                data[i, index[perm]] = 1
        return BinaryMatrix(data,
                            row_labels=[a.id for a in self.apps],
                            col_labels=self.vocabulary)


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
        if self.test_size < 0:
            raise ValueError("test size must be non-negative")


def _parse_record(row: dict, line: int, seen_ids: set,
                  missing_rating_ids: list) -> AppRecord:
    app_id = "" if row["id"] is None else str(row["id"]).strip()
    if not app_id:
        raise DatasetError(f"line {line}: empty id")
    if app_id in seen_ids:
        raise DatasetError(f"line {line}: duplicate app id {app_id!r}")
    seen_ids.add(app_id)
    try:
        price = float(row.get("price") or 0.0)
        raw_rating = row.get("avg_rating")
        rating = float(raw_rating) if raw_rating not in (None, "") else None
        raw_count = row.get("num_ratings")
        count = int(raw_count) if raw_count not in (None, "") else 0
    except (TypeError, ValueError) as exc:
        raise DatasetError(f"line {line}: {exc}") from exc
    if rating is not None and not 1.0 <= rating <= 5.0:
        raise DatasetError(f"line {line}: avg_rating {rating} outside [1, 5]")
    if count < 0:
        raise DatasetError(f"line {line}: negative num_ratings")
    if rating is None:
        # treated as unrated: count forced to 0, flagged in the load report
        count = 0
        missing_rating_ids.append(app_id)
    perms_field = row.get("permissions")
    if isinstance(perms_field, (list, tuple)):
        perms = frozenset(str(p).strip() for p in perms_field if str(p).strip())
    else:
        perms = frozenset(p.strip() for p in str(perms_field or "").split(";")
                          if p.strip())
    return AppRecord(
        id=app_id,
        name=str(row.get("name") or ""),
        category=str(row.get("category") or ""),
        price=price,
        avg_rating=rating,
        num_ratings=count,
        permissions=perms,
    )


def load_dataset(path, fmt: str = None, column_map: dict | None = None) -> Dataset:
    """Load a CSV or JSON application dump.

    ``column_map`` maps schema names to the file's column names, e.g.
    ``{"id": "package", "permissions": "perm_list"}``, so external dumps
    can be consumed without rewriting.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"input file not found: {path}")
    if fmt is None:
        fmt = "json" if path.suffix.lower() == ".json" else "csv"
    if fmt not in ("csv", "json"):
        raise DatasetError(f"unsupported format {fmt!r}")
    column_map = column_map or {}

    def remap(row: dict) -> dict:
        return {key: row.get(column_map.get(key, key)) for key in REQUIRED_COLUMNS}

    rows: list[tuple[int, dict]] = []
    if fmt == "csv":
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise DatasetError(f"{path}: empty file")
            needed = {column_map.get(k, k) for k in REQUIRED_COLUMNS}
            unknown = needed - set(reader.fieldnames)
            if unknown:
                raise DatasetError(
                    f"{path}: missing columns {sorted(unknown)}")
            for line, row in enumerate(reader, start=2):
                rows.append((line, remap(row)))
    else:
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
        if not isinstance(payload, list):
            raise DatasetError(f"{path}: expected a JSON array of objects")
        for line, row in enumerate(payload, start=1):
            if not isinstance(row, dict):
                raise DatasetError(f"{path}: entry {line} is not an object")
            if column_map.get("id", "id") not in row:
                raise DatasetError(f"{path}: entry {line} lacks an id")
            rows.append((line, remap(row)))

    seen: set = set()
    missing: list = []
    apps = [_parse_record(row, line, seen, missing) for line, row in rows]
    vocab = tuple(sorted(set().union(*(a.permissions for a in apps)) if apps else ()))
    return Dataset(apps=tuple(apps), vocabulary=vocab,
                   missing_rating_ids=tuple(missing))


def filter_reputation(ds: Dataset, criteria: ReputationCriteria
                      ) -> tuple[Dataset, Dataset, Dataset]:
    """Split into (train, test_high, test_low).

    High-reputation apps meet both thresholds (inclusive); a seeded sample
    of them becomes test_high and the rest train.  test_low is every app
    with fewer than the low threshold of ratings, regardless of score.
    """
    high = [a for a in ds.apps
            if a.avg_rating is not None
            and a.avg_rating >= criteria.min_avg_rating
            and a.num_ratings >= criteria.min_num_ratings]
    low = [a for a in ds.apps if a.num_ratings < criteria.max_low_num_ratings]
    if criteria.test_size > len(high):
        raise DatasetError(
            f"test size {criteria.test_size} exceeds the high-reputation "
            f"population of {len(high)}")
    rng = np.random.default_rng(criteria.split_seed)
    picked = set(rng.choice(len(high), size=criteria.test_size,
                            replace=False).tolist())
    test_high = tuple(a for i, a in enumerate(high) if i in picked)
    train = tuple(a for i, a in enumerate(high) if i not in picked)
    return (Dataset(apps=train, vocabulary=ds.vocabulary),
            Dataset(apps=test_high, vocabulary=ds.vocabulary),
            Dataset(apps=tuple(low), vocabulary=ds.vocabulary))


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
    counts = {p: 0 for p in ds.vocabulary}
    for app in ds.apps:
        for perm in app.permissions:
            counts[perm] += 1
    freq = sorted(((p, c / n) for p, c in counts.items()),
                  key=lambda item: (-item[1], item[0]))
    if top_n is not None:
        freq = freq[:top_n]
    prices = np.sort(np.array([a.price for a in ds.apps], dtype=float))
    distinct = np.unique(prices)
    below = np.searchsorted(prices, distinct, side="right")
    price_curve = [(price, count / n)
                   for price, count in zip(distinct.tolist(), below.tolist())]
    ratings = tuple((a.avg_rating, a.num_ratings) for a in ds.apps
                    if a.num_ratings > 0 and a.avg_rating is not None)
    return SummaryStats(
        permission_frequencies=tuple(freq),
        price_cumulative=tuple(price_curve),
        rating_table=ratings,
    )
