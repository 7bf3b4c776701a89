"""Small builders and reference formulas shared by the unit tests."""
import csv
import json
import math
from operator import itemgetter
from pathlib import Path

import numpy as np

from permpatterns import BinaryMatrix, Dataset, DatasetError, DimensionError
from permpatterns.dataset import REQUIRED_COLUMNS


def matrix_from_rows(rows) -> BinaryMatrix:
    """Build a BinaryMatrix from an iterable of equal-length 0/1 vectors."""
    rows = list(rows)
    if not rows:
        raise DimensionError("at least one row is required")
    width = len(rows[0])
    for i, r in enumerate(rows):
        if len(r) != width:
            raise DimensionError(f"row {i} has length {len(r)}, expected {width}")
    return BinaryMatrix(np.asarray(rows))


def signal_bernoulli_param(z_row, beta, d: int) -> float:
    """q = prod_k beta[k, d] ** z_row[k]; p(x=1 | signal) is 1 - q."""
    mask = np.asarray(z_row).astype(bool)
    if not mask.any():
        return 1.0
    return float(np.prod(np.asarray(beta, dtype=float)[mask, d]))


def _clip(p):
    return float(np.clip(p, 1e-6, 1.0 - 1e-6))


def _entry_terms(x, log_q, r, eps, inv_t):
    """Tempered per-entry log-terms (log(eps*p_N)/T, log((1-eps)*p_S)/T)."""
    r = _clip(r)
    log_q = np.minimum(log_q, 0.0)
    q = np.exp(log_q)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_one_minus_q = np.where(q >= 1.0, -np.inf, np.log1p(-q))
        log_signal = np.where(x == 1, log_one_minus_q, log_q)
        a = (np.log(eps) + np.where(x == 1, np.log(r), np.log1p(-r))) * inv_t
        b = (np.log1p(-eps) + log_signal) * inv_t
    return a, b


def reference_em_step(x, state):
    """engine.em_step computed entry by entry, with a row-by-row flip
    search and no grouping of rows.  Returns (beta, z, r, epsilon,
    tempered log-likelihood)."""
    xd = x.data
    xf = xd.astype(float)
    inv_t = 1.0 / state.temperature
    with np.errstate(divide="ignore"):
        log_beta = np.log(np.clip(state.beta, 1e-300, 1.0))
    log_q = state.z.astype(float) @ log_beta
    a, b = _entry_terms(xd, log_q, state.r, _clip(state.epsilon), inv_t)
    rho = np.exp(a - np.logaddexp(a, b))
    eps = _clip(rho.mean())
    r = _clip((rho * xf).sum() / rho.sum()) if rho.sum() > 0 else state.r

    # beta: weighted fraction of non-firings among each pattern's rows
    weight = 1.0 - rho
    one_minus_q = np.clip(1.0 - np.exp(np.minimum(log_q, 0.0)), 1e-300, 1.0)
    beta = state.beta.copy()
    for k in range(beta.shape[0]):
        mask = state.z[:, k].astype(float)
        fired = np.clip((1.0 - state.beta[k]) / one_minus_q, 0.0, 1.0)
        not_fired = np.where(xd == 1, 1.0 - fired, 1.0)
        denom = weight.T @ mask
        num = (weight * not_fired).T @ mask
        with np.errstate(invalid="ignore", divide="ignore"):
            beta[k] = np.where(denom > 0, np.clip(num / denom, 0.0, 1.0),
                               state.beta[k])

    # z: per row, at most one best single-bit flip per pass, gain > 1e-12;
    # a pass searches only the rows the last pass flipped
    with np.errstate(divide="ignore"):
        log_beta = np.log(np.clip(beta, 1e-300, 1.0))
    z = state.z.copy()
    k_count = z.shape[1]

    def row_ll(i, log_q_row):
        return np.logaddexp(*_entry_terms(xd[i], log_q_row, r, eps,
                                          inv_t)).sum()

    search = list(range(z.shape[0]))
    for _ in range(2 * k_count):
        flipped = []
        for i in search:
            log_q_row = z[i].astype(float) @ log_beta
            base = row_ll(i, log_q_row)
            # flipping bit j adds log_beta[j] when z=0, removes it when z=1
            delta = np.array([
                row_ll(i, log_q_row + (1 - 2 * int(z[i, j])) * log_beta[j])
                - base for j in range(k_count)])
            best = int(np.argmax(delta))
            if delta[best] > 1e-12:
                z[i, best] ^= 1
                flipped.append(i)
        search = flipped
        if not search:
            break
    ll = np.logaddexp(*_entry_terms(
        xd, z.astype(float) @ log_beta, r, eps, inv_t)).sum()
    return beta, z, r, eps, float(ll)


def reference_tempered_log_likelihood(x, state):
    """engine.tempered_log_likelihood computed entry by entry."""
    with np.errstate(divide="ignore"):
        log_beta = np.log(np.clip(state.beta, 1e-300, 1.0))
    a, b = _entry_terms(x.data, state.z.astype(float) @ log_beta, state.r,
                        _clip(state.epsilon), 1.0 / state.temperature)
    return float(np.logaddexp(a, b).sum())


def scan_first_better(values, base):
    """Plain left-to-right scan: a value replaces the best so far only if it
    beats it by more than 1e-12.  The kept index, or -1 if base stands."""
    best_i, best = -1, base
    for i, v in enumerate(values):
        if v > best + 1e-12:
            best_i, best = i, v
    return best_i


def reference_assign(x_row, u, r, eps):
    """engine.assign_patterns for one row, one candidate set at a time:
    the add-then-prune greedy from the empty set and from each singleton,
    each set's log-likelihood counted from its covered entries, and the
    best start kept by the same scan."""
    r, eps = _clip(r), _clip(eps)
    x = np.asarray(x_row).astype(bool)
    u = u.data.astype(bool)
    k, d = u.shape
    ones = int(x.sum())
    match1 = float(np.log(eps * r + (1 - eps)))
    match0 = float(np.log(eps * (1 - r) + (1 - eps)))
    miss1 = float(np.log(eps * r))
    miss0 = float(np.log(eps * (1 - r)))

    def set_ll(selected):
        covered = u[np.asarray(selected, dtype=bool)].any(axis=0)
        n11, n10 = int((covered & x).sum()), int((covered & ~x).sum())
        return (n11 * match1 + (d - ones - n10) * match0
                + (ones - n11) * miss1 + n10 * miss0)

    finals = []
    for start in range(-1, k):
        selected = [j == start for j in range(k)]
        for adding in (True, False):
            while True:
                values = []
                for j in range(k):
                    moved = list(selected)
                    moved[j] = adding
                    values.append(-np.inf if selected[j] == adding
                                  else set_ll(moved))
                j = scan_first_better(values, set_ll(selected))
                if j < 0:
                    break
                selected[j] = adding
        finals.append(selected)
    best = scan_first_better([set_ll(s) for s in finals], -np.inf)
    return np.array(finals[best], dtype=np.uint8)


def reference_load_dataset(path, column_map=None):
    """dataset.load_dataset with every CSV file read by the csv module,
    one value converted at a time and every check written out per column.
    Besides the checks of the per-value loader it replaces, it rejects a
    price that is negative or not finite (after every other check) and a
    JSON count with a fraction."""
    path = Path(path)
    fmt = "json" if path.suffix.lower() == ".json" else "csv"
    column_map = column_map or {}
    names = [column_map.get(k, k) for k in REQUIRED_COLUMNS]
    if fmt == "csv":
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader, None)
                if header is None:
                    raise DatasetError(f"{path}: empty file")
                unknown = set(names) - set(header)
                if unknown:
                    raise DatasetError(
                        f"{path}: missing columns {sorted(unknown)}")
                where = {name: i for i, name in enumerate(header)}
                pick = itemgetter(*(where[name] for name in names))
                width = len(header)
                rows = [pick(row + [""] * (width - len(row)))
                        for row in reader if row]
            except csv.Error as exc:
                raise DatasetError(
                    f"{path}: line {reader.line_num}: {exc}") from exc
        columns, first_line = list(zip(*rows)) or [()] * len(names), 2
    else:
        with open(path, encoding="utf-8-sig") as fh:
            payload = json.load(fh)
        if not isinstance(payload, list):
            raise DatasetError(f"{path}: expected a JSON array of objects")
        for line, entry in enumerate(payload, start=1):
            if not isinstance(entry, dict):
                raise DatasetError(f"{path}: entry {line} is not an object")
            if names[0] not in entry:
                raise DatasetError(f"{path}: entry {line} lacks an id")
        columns = [[entry.get(k) for entry in payload] for k in names]
        first_line = 1
    (id_col, name_col, category_col, price_col, rating_col, count_col,
     permission_col) = columns

    def convert(values, rule, dtype):
        out = np.zeros(len(values), dtype=dtype)
        for i, value in enumerate(values):
            try:
                out[i] = rule(value)
            except (TypeError, ValueError, OverflowError) as exc:
                failures.append((i, str(exc)))
                break
        return out

    def whole(value):
        # int() would cut off the fraction of a JSON number
        if (isinstance(value, float) and math.isfinite(value)
                and not value.is_integer()):
            raise ValueError(f"num_ratings {value} is not a whole number")
        return int(value)

    failures = []
    ids = tuple("" if v is None else str(v).strip() for v in id_col)
    if "" in ids:
        failures.append((ids.index(""), "empty id"))
    seen = set()
    for i, app_id in enumerate(ids):
        if app_id in seen:
            failures.append((i, f"duplicate app id {app_id!r}"))
            break
        seen.add(app_id)
    price = convert(price_col, lambda v: float(v or 0.0), np.float64)
    rated = np.array([v not in (None, "") for v in rating_col], dtype=bool)
    rating = convert(rating_col,
                     lambda v: float(v) if v not in (None, "") else np.nan,
                     np.float64)
    count = convert(count_col,
                    lambda v: whole(v) if v not in (None, "") else 0,
                    np.int64)
    for i in range(len(ids)):
        if rated[i] and not 1.0 <= rating[i] <= 5.0:
            failures.append((i, f"avg_rating {float(rating[i])} outside [1, 5]"))
            break
    for i in range(len(ids)):
        if count[i] < 0:
            failures.append((i, "negative num_ratings"))
            break
    for i in range(len(ids)):
        if not 0.0 <= price[i] < np.inf:
            failures.append((i, f"price {float(price[i])} is negative or "
                                "not finite"))
            break
    if failures:
        row, message = min(failures, key=itemgetter(0))
        raise DatasetError(f"line {row + first_line}: {message}")
    count[~rated] = 0

    token_sets = []
    for field in permission_col:
        tokens = (map(str, field) if isinstance(field, list)
                  else str(field or "").split(";"))
        token_sets.append({t.strip() for t in tokens} - {""})
    vocabulary = tuple(sorted(set().union(*token_sets)))
    data = np.array([[p in tokens for p in vocabulary]
                     for tokens in token_sets],
                    dtype=np.uint8).reshape(len(ids), len(vocabulary))
    return Dataset(ids=ids, names=[str(v or "") for v in name_col],
                   categories=[str(v or "") for v in category_col],
                   price=price, avg_rating=rating, num_ratings=count,
                   matrix=BinaryMatrix(data), vocabulary=vocabulary)
