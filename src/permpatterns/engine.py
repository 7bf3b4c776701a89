"""Annealed EM fitting of the noisy-OR signal / Bernoulli noise mixture.

The observed binary matrix is modeled entry-wise as a mixture: with
probability ``epsilon`` an entry is pure Bernoulli(r) noise, otherwise it
follows the signal distribution whose "entry is 0" probability is
``q[i, d] = prod_k beta[k, d] ** z[i, k]``.  Fitting anneals a computational
temperature: responsibilities are computed from likelihood terms raised to
the power 1/T, which smooths the noise/signal split at high T and sharpens
it as T cools.  Each em_step is monotone in the tempered log-likelihood.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    BinaryMatrix,
    ConfigError,
    DimensionError,
    Factorization,
    FitConfig,
    check_binary,
)

# Keeps the noise log-terms finite; beta may still reach exact 0/1.
PARAM_FLOOR = 1e-6

# The flip search takes rows in chunks bounded by this many (row, candidate,
# perm) cells so it never materializes huge 3-d temporaries.
_CHUNK_CELLS = 20_000_000

# Bounds the (row, start, candidate, permission) cells of one assign_matrix
# chunk: the multiply-adds of one greedy step's candidate products.
_ASSIGN_CELLS = 4_000_000


@dataclass
class FitState:
    """Live optimizer state at one annealing temperature."""

    beta: np.ndarray          # (K, D) in [0, 1]
    z: np.ndarray             # (N, K) uint8
    r: float
    epsilon: float
    temperature: float
    log_likelihood: float = float("nan")   # tempered, at self.temperature


def boolean_product(z: BinaryMatrix, u: BinaryMatrix) -> BinaryMatrix:
    """OR-of-ANDs matrix product: out[i, d] = OR_k (z[i, k] AND u[k, d])."""
    if z.cols != u.rows:
        raise DimensionError(f"inner dimensions differ: {z.cols} vs {u.rows}")
    prod = z.data.astype(np.int64) @ u.data.astype(np.int64)
    return BinaryMatrix((prod > 0).astype(np.uint8))


def binarize(beta: np.ndarray) -> BinaryMatrix:
    """Round beta to the Boolean pattern matrix.

    beta[k, d] is p(u[k, d] == 0), so u is 1 where beta < 0.5; an exact
    0.5 tie rounds to 0.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.size and (beta.min() < 0 or beta.max() > 1):
        raise ValueError("beta entries must lie in [0, 1]")
    return BinaryMatrix((beta < 0.5).astype(np.uint8))


def _log_q(z: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """log q of every row of z, shape (rows, D); zeros map to -inf-ish."""
    with np.errstate(divide="ignore"):
        log_beta = np.log(np.clip(beta, 1e-300, 1.0))
    return z.astype(float) @ log_beta


def _clip(p: float) -> float:
    return float(np.clip(p, PARAM_FLOOR, 1.0 - PARAM_FLOOR))


def _group(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of the 0/1 matrix z, found by one sort of the rows'
    packed bits: the index of each distinct row's first occurrence, and
    each row's index into those."""
    keys = np.ascontiguousarray(np.packbits(z, axis=1))
    keys = keys.view(np.dtype((np.void, keys.shape[1]))).ravel()
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    return first, group


def _counts(x: np.ndarray, z: np.ndarray):
    """The distinct rows zu of z, and for each of them and each column the
    number of its rows with x = 0 (n0) and with x = 1 (n1)."""
    first, group = _group(z)
    u, d = first.size, x.shape[1]
    cells = (group[:, None] * d + np.arange(d)).ravel()
    n1 = np.bincount(cells, weights=x.ravel(), minlength=u * d).reshape(u, d)
    n0 = np.bincount(group, minlength=u)[:, None] - n1
    return z[first], n0, n1


def _terms(log_q: np.ndarray, r: float, eps: float, inv_t: float):
    """Tempered log-terms of an entry with x = 0 and with x = 1.

    The noise terms a = log(eps * p_N) / T are scalars; the mixture terms
    f = log[(eps * p_N)^(1/T) + ((1 - eps) * p_S)^(1/T)] have log_q's
    shape.  eps of 0 or 1 gives -inf terms.
    """
    r = _clip(r)
    log_q = np.minimum(log_q, 0.0)
    q = np.exp(log_q)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_one_minus_q = np.log1p(-q)
        log_eps, log_signal = np.log(eps), np.log1p(-eps)
    # q == 1 and x == 1 is an impossible signal event
    log_one_minus_q = np.where(q >= 1.0, -np.inf, log_one_minus_q)
    a0 = (log_eps + np.log1p(-r)) * inv_t
    a1 = (log_eps + np.log(r)) * inv_t
    f0 = np.logaddexp(a0, (log_signal + log_q) * inv_t)
    f1 = np.logaddexp(a1, (log_signal + log_one_minus_q) * inv_t)
    return a0, a1, f0, f1


def _entry_sum(x: np.ndarray, z: np.ndarray, beta: np.ndarray, r: float,
               eps: float, inv_t: float) -> float:
    """Sum of the tempered mixture terms f over the entries of x."""
    zu, n0, n1 = _counts(x, z)
    _, _, f0, f1 = _terms(_log_q(zu, beta), r, eps, inv_t)
    # a cell with no entries adds 0, also where its term is -inf
    with np.errstate(invalid="ignore"):
        cells = np.where(n0 > 0, n0 * f0, 0.0) + np.where(n1 > 0, n1 * f1, 0.0)
    return float(cells.sum())


def log_likelihood(x: BinaryMatrix, state: FitState) -> float:
    """Plain (untempered) mixture log-likelihood of the observed matrix."""
    xd = x.data
    if xd.shape != (state.z.shape[0], state.beta.shape[1]):
        raise DimensionError("x shape does not match the fit state")
    return _entry_sum(xd, state.z, state.beta, state.r,
                      float(np.clip(state.epsilon, 0.0, 1.0)), 1.0)


def tempered_log_likelihood(x: BinaryMatrix, state: FitState) -> float:
    """Sum over entries of log[(eps*p_N)^(1/T) + ((1-eps)*p_S)^(1/T)]."""
    return _entry_sum(x.data, state.z, state.beta, state.r,
                      _clip(state.epsilon), 1.0 / state.temperature)


def _update_beta(zu: np.ndarray, beta: np.ndarray, log_q: np.ndarray,
                 w0: np.ndarray, w1: np.ndarray) -> np.ndarray:
    """Exact M-step for beta from the latent-cause decomposition.

    For entries with x=1 the posterior that pattern k fired is
    (1 - beta[k, d]) / (1 - q[i, d]); entries with x=0 count fully as
    "did not fire".  The update is the weighted fraction of non-firings
    among rows assigned to the pattern, which cannot decrease the
    tempered objective.  Rows enter by distinct assignment vector zu:
    log_q is _log_q(zu, beta), and w0, w1 are the summed signal weights
    of each one's entries with x = 0 and x = 1.
    """
    q = np.exp(np.minimum(log_q, 0.0))
    one_minus_q = np.clip(1.0 - q, 1e-300, 1.0)
    zf = zu.astype(float)
    new_beta = beta.copy()
    for k in range(beta.shape[0]):
        mask = zf[:, k]
        # one summation for both, so that beta stays exactly 1 where no
        # x = 1 entry credits pattern k
        denom = mask @ (w0 + w1)                    # (D,)
        fired = np.clip((1.0 - beta[k]) / one_minus_q, 0.0, 1.0)
        num = mask @ (w0 + w1 * (1.0 - fired))      # (D,)
        with np.errstate(invalid="ignore", divide="ignore"):
            upd = num / denom
        new_beta[k] = np.where(denom > 0, np.clip(upd, 0.0, 1.0), beta[k])
    return new_beta


def _update_z(x: np.ndarray, state: FitState, max_passes: int) -> np.ndarray:
    """Greedy single-bit flips per row, accepting only tempered-LL gains.

    Rows are independent, so one flip per row per pass is applied
    simultaneously; the result does not depend on row order.  A row that
    did not flip would not flip again, so a pass searches only the last
    pass's flipped rows.  The terms of every candidate (keeping z, or
    flipping one bit) are tabulated once per distinct z and x = 0 / 1; a
    row's score is then the x = 0 sum plus x times the difference.
    """
    z = state.z.copy()
    xf = x.astype(float)
    k_count, d = state.beta.shape
    r, eps, inv_t = state.r, state.epsilon, 1.0 / state.temperature
    with np.errstate(divide="ignore"):
        log_beta = np.log(np.clip(state.beta, 1e-300, 1.0))
    chunk = max(1, _CHUNK_CELLS // ((k_count + 1) * d))
    search = np.arange(z.shape[0])
    for _ in range(max_passes):
        flipped = []
        for lo in range(0, search.size, chunk):
            rows = search[lo:lo + chunk]
            first, group = _group(z[rows])
            zu = z[rows[first]].astype(float)
            log_q = zu @ log_beta
            # flipping bit k adds log_beta[k] when z=0 and removes it when z=1
            sign = 1.0 - 2.0 * zu
            cand = np.concatenate(
                [log_q[:, None, :],
                 log_q[:, None, :] + sign[:, :, None] * log_beta[None, :, :]],
                axis=1)                                     # (U, K+1, D)
            _, _, f0, f1 = _terms(cand, r, eps, inv_t)
            score = (np.matmul((f1 - f0)[group], xf[rows, :, None])[..., 0]
                     + f0.sum(axis=-1)[group])
            delta = score[:, 1:] - score[:, :1]
            best = np.argmax(delta, axis=1)
            gain = delta[np.arange(rows.size), best] > 1e-12
            z[rows[gain], best[gain]] ^= 1
            flipped.append(rows[gain])
        search = np.concatenate(flipped)
        if not search.size:
            break
    return z


def em_step(x: BinaryMatrix, state: FitState) -> FitState:
    """One tempered E/M sweep at the state's temperature.

    Update order: responsibilities, then epsilon, r, beta (each a closed-form
    ascent step on the tempered bound), then the discrete z flip search
    evaluated directly on the tempered log-likelihood.  Every term depends
    on an entry only through its bit and its row's z, so the terms are
    computed once per distinct z and the rows enter through counts.
    """
    xd = x.data
    if xd.shape != (state.z.shape[0], state.beta.shape[1]):
        raise DimensionError("x shape does not match the fit state")

    zu, n0, n1 = _counts(xd, state.z)
    log_q = _log_q(zu, state.beta)
    a0, a1, f0, f1 = _terms(log_q, state.r, _clip(state.epsilon),
                            1.0 / state.temperature)
    # tempered noise responsibilities of an x = 0 and an x = 1 entry
    rho0, rho1 = np.exp(a0 - f0), np.exp(a1 - f1)
    rho_sum = (n0 * rho0 + n1 * rho1).sum()
    eps = _clip(rho_sum / xd.size)
    r = _clip((n1 * rho1).sum() / rho_sum) if rho_sum > 0 else state.r

    beta = _update_beta(zu, state.beta, log_q, n0 * (1.0 - rho0),
                        n1 * (1.0 - rho1))
    new = replace(state, r=r, epsilon=eps, beta=beta)
    new.z = _update_z(xd, new, max_passes=2 * state.z.shape[1])
    new.log_likelihood = tempered_log_likelihood(x, new)
    return new


def _initial_state(x: BinaryMatrix, k: int, config: FitConfig) -> FitState:
    rng = np.random.default_rng(config.seed)
    beta = rng.uniform(0.4, 0.6, size=(k, x.cols))
    p_assign = min(0.5, 2.0 / k)
    z = (rng.random((x.rows, k)) < p_assign).astype(np.uint8)
    state = FitState(beta=beta, z=z, r=0.5, epsilon=0.5,
                     temperature=config.initial_temperature)
    state.log_likelihood = tempered_log_likelihood(x, state)
    return state


def _converge(x: BinaryMatrix, state: FitState, temperature: float,
              config: FitConfig) -> FitState:
    """EM steps at a fixed temperature until the tempered log-likelihood
    changes by at most the relative tolerance, or the step budget ends."""
    state.temperature = temperature
    state.log_likelihood = tempered_log_likelihood(x, state)
    prev = state.log_likelihood
    for _ in range(config.max_inner_iterations):
        state = em_step(x, state)
        cur = state.log_likelihood
        if abs(cur - prev) <= config.tolerance * max(1.0, abs(prev)):
            break
        prev = cur
    return state


def fit(x: BinaryMatrix, k: int, config: FitConfig | None = None) -> Factorization:
    """Fit K patterns to x by annealed EM; deterministic for a fixed seed.

    Patterns in the result are sorted by descending assignment frequency.
    """
    config = config or FitConfig()
    if k < 1:
        raise ConfigError("K must be at least 1")
    if x.rows < 1 or x.cols < 1:
        raise ConfigError("input matrix must be nonempty")
    if k > x.cols:
        raise ConfigError(f"K={k} exceeds the number of permissions D={x.cols}")

    state = _initial_state(x, k, config)
    temperature = config.initial_temperature
    while True:
        state = _converge(x, state, temperature, config)
        if temperature <= config.final_temperature:
            break
        temperature = max(temperature * config.cooling_factor,
                          config.final_temperature)

    # refinement at T=1: the cooled responsibilities are over-sharpened, so
    # re-estimate epsilon and r as plain maximum-likelihood values
    state = _converge(x, state, 1.0, config)

    # order patterns by how many applications request them
    counts = state.z.sum(axis=0)
    order = np.lexsort((np.arange(k), -counts))
    z = state.z[:, order]
    beta = np.clip(state.beta[order], 0.0, 1.0)
    u = binarize(beta)
    ll = log_likelihood(x, FitState(beta=beta, z=z, r=state.r,
                                    epsilon=state.epsilon, temperature=1.0))
    return Factorization(z=BinaryMatrix(z), u=u, beta=beta, r=state.r,
                         epsilon=state.epsilon, log_likelihood=ll,
                         seed=config.seed)


def _first_better(scores: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Left-to-right scan of the last axis: a score replaces the best so far
    (initially base) only if it beats it by more than 1e-12, so scores tied
    up to rounding keep the first.  The kept index, or -1 if base stands."""
    best_i, best = np.full(base.shape, -1), base
    for i in range(scores.shape[-1]):
        better = scores[..., i] > best + 1e-12
        best_i[better] = i
        best = np.where(better, scores[..., i], best)
    return best_i


def _set_ll(n11, n10, ones, d: int, r: float, eps: float) -> np.ndarray:
    """Log-likelihood of rows with `ones` of d entries requested when the
    assigned patterns cover n11 requested and n10 unrequested entries."""
    # covered and x agree -> eps*p_N + (1-eps); disagree -> eps*p_N
    log_match1 = float(np.log(eps * r + (1 - eps)))        # covered, x=1
    log_match0 = float(np.log(eps * (1 - r) + (1 - eps)))  # uncovered, x=0
    log_miss1 = float(np.log(eps * r))                     # uncovered, x=1
    log_miss0 = float(np.log(eps * (1 - r)))               # covered, x=0
    return (n11 * log_match1 + (d - ones - n10) * log_match0
            + (ones - n11) * log_miss1 + n10 * log_miss0)


def _greedy_assign(x: np.ndarray, u: BinaryMatrix,
                   r: float, epsilon: float) -> np.ndarray:
    """assign_patterns for every row of the bool (N, D) array x at once.

    The N * (K+1) pairs of a row and a start run side by side; each step
    scores every candidate of every pair still moving by matrix products.
    """
    r, eps = _clip(r), _clip(epsilon)
    n, d = x.shape
    k = u.rows
    # pair p is row p // (K+1) from the empty set (p % (K+1) == 0) or from
    # the singleton of pattern p % (K+1) - 1
    xs = np.repeat(x, k + 1, axis=0)
    ones = xs.sum(axis=1)
    selected = np.tile(np.eye(k + 1, k, -1, dtype=bool), (n, 1))
    uf = u.data.astype(float)
    cover = selected @ uf           # how many selected patterns cover an entry
    ll = np.empty(len(xs))          # each pair's current log-likelihood
    for adding in (True, False):
        live = np.arange(len(xs))
        while live.size:
            xl, cov = xs[live], cover[live]
            covered = cov > 0
            n11, n10 = (covered & xl).sum(axis=1), (covered & ~xl).sum(axis=1)
            # entries a candidate flips: adding covers the uncovered ones,
            # removing uncovers those it alone covers
            flips = ~covered if adding else cov == 1
            sign = 1 if adding else -1
            cand = _set_ll(n11[:, None] + sign * ((flips & xl) @ uf.T),
                           n10[:, None] + sign * ((flips & ~xl) @ uf.T),
                           ones[live, None], d, r, eps)
            cand[selected[live] == adding] = -np.inf
            ll[live] = _set_ll(n11, n10, ones[live], d, r, eps)
            best = _first_better(cand, ll[live])
            live, best = live[best >= 0], best[best >= 0]
            selected[live, best] = adding
            cover[live] += sign * uf[best]
    start = _first_better(ll.reshape(n, k + 1), np.full(n, -np.inf))
    return selected.reshape(n, k + 1, k)[np.arange(n), start].astype(np.uint8)


def assign_patterns(x_row: np.ndarray, u: BinaryMatrix,
                    r: float, epsilon: float) -> np.ndarray:
    """Greedy maximum-likelihood pattern assignment for a single row.

    Runs the add-then-prune greedy from the empty set and, to escape
    single-pattern traps, from each singleton seed; the highest-likelihood
    result wins.  Deterministic; ties go to the earliest start and lowest
    pattern index: a greedy step scans the candidates by index and keeps
    one only when it beats the best so far by more than 1e-12, and the
    starts are scanned the same way.  Equals the row's assign_matrix result.
    """
    x_row = np.asarray(x_row)
    if x_row.shape != (u.cols,):
        raise DimensionError(f"row length {x_row.shape} != D={u.cols}")
    check_binary(x_row)
    return _greedy_assign(x_row[None] == 1, u, r, epsilon)[0]


def assign_matrix(x: BinaryMatrix, u: BinaryMatrix,
                  r: float, epsilon: float) -> BinaryMatrix:
    """assign_patterns applied to every row of x."""
    if x.cols != u.cols:
        raise DimensionError(f"row length {x.cols} != D={u.cols}")
    chunk = max(1, _ASSIGN_CELLS // max(1, (u.rows + 1) * u.rows * u.cols))
    out = np.zeros((x.rows, u.rows), dtype=np.uint8)
    for lo in range(0, x.rows, chunk):
        out[lo:lo + chunk] = _greedy_assign(x.data[lo:lo + chunk] == 1, u,
                                            r, epsilon)
    return BinaryMatrix(out)
