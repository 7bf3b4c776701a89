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
