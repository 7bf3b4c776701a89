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
)

# Keeps the noise log-terms finite; beta may still reach exact 0/1.
PARAM_FLOOR = 1e-6

# Rows are processed in chunks bounded by this many (row, pattern, perm)
# cells so the flip search never materializes huge 3-d temporaries.
_CHUNK_CELLS = 20_000_000


@dataclass
class FitState:
    """Live optimizer state at one annealing temperature."""

    beta: np.ndarray          # (K, D) in [0, 1]
    z: np.ndarray             # (N, K) uint8
    r: float
    epsilon: float
    temperature: float
    log_likelihood: float = float("nan")   # tempered, at self.temperature

    def copy(self) -> "FitState":
        return FitState(self.beta.copy(), self.z.copy(), self.r,
                        self.epsilon, self.temperature, self.log_likelihood)


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


def signal_bernoulli_param(z_row: np.ndarray, beta: np.ndarray, d: int) -> float:
    """q = prod_k beta[k, d] ** z_row[k]; p(x=1 | signal) is 1 - q."""
    z_row = np.asarray(z_row)
    beta = np.asarray(beta, dtype=float)
    mask = z_row.astype(bool)
    if not mask.any():
        return 1.0
    return float(np.prod(beta[mask, d]))


def _log_q(z: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """log q for every entry, shape (N, D); exact zeros map to -inf-ish."""
    with np.errstate(divide="ignore"):
        log_beta = np.log(np.clip(beta, 1e-300, 1.0))
    return z.astype(float) @ log_beta


def _log_signal(x: np.ndarray, log_q: np.ndarray) -> np.ndarray:
    """Per-entry log p_S(x | z, beta)."""
    q = np.exp(np.minimum(log_q, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_one_minus_q = np.log1p(-q)
    # q == 1 and x == 1 is an impossible signal event
    log_one_minus_q = np.where(q >= 1.0, -np.inf, log_one_minus_q)
    return np.where(x == 1, log_one_minus_q, log_q)


def _log_noise(x: np.ndarray, r: float) -> np.ndarray:
    r = float(np.clip(r, PARAM_FLOOR, 1.0 - PARAM_FLOOR))
    return np.where(x == 1, np.log(r), np.log1p(-r))


def log_likelihood(x: BinaryMatrix, state: FitState) -> float:
    """Plain (untempered) mixture log-likelihood of the observed matrix."""
    xd = x.data
    if xd.shape != (state.z.shape[0], state.beta.shape[1]):
        raise DimensionError("x shape does not match the fit state")
    log_ps = _log_signal(xd, _log_q(state.z, state.beta))
    log_pn = _log_noise(xd, state.r)
    eps = float(np.clip(state.epsilon, 0.0, 1.0))
    with np.errstate(divide="ignore"):
        a = np.log(eps) + log_pn if eps > 0 else np.full_like(log_pn, -np.inf)
        b = np.log1p(-eps) + log_ps if eps < 1 else np.full_like(log_ps, -np.inf)
    return float(np.sum(np.logaddexp(a, b)))


def tempered_log_likelihood(x: BinaryMatrix, state: FitState) -> float:
    """Sum over entries of log[(eps*p_N)^(1/T) + ((1-eps)*p_S)^(1/T)]."""
    xd = x.data
    inv_t = 1.0 / state.temperature
    eps = float(np.clip(state.epsilon, PARAM_FLOOR, 1.0 - PARAM_FLOOR))
    a = (np.log(eps) + _log_noise(xd, state.r)) * inv_t
    b = (np.log1p(-eps) + _log_signal(xd, _log_q(state.z, state.beta))) * inv_t
    return float(np.sum(np.logaddexp(a, b)))


def _noise_responsibility(x: np.ndarray, state: FitState) -> np.ndarray:
    """Tempered posterior that each entry was generated by the noise model."""
    inv_t = 1.0 / state.temperature
    eps = float(np.clip(state.epsilon, PARAM_FLOOR, 1.0 - PARAM_FLOOR))
    a = (np.log(eps) + _log_noise(x, state.r)) * inv_t
    b = (np.log1p(-eps) + _log_signal(x, _log_q(state.z, state.beta))) * inv_t
    return np.exp(a - np.logaddexp(a, b))


def _update_beta(x: np.ndarray, z: np.ndarray, beta: np.ndarray,
                 signal_weight: np.ndarray) -> np.ndarray:
    """Exact M-step for beta from the latent-cause decomposition.

    For entries with x=1 the posterior that pattern k fired is
    (1 - beta[k, d]) / (1 - q[i, d]); entries with x=0 count fully as
    "did not fire".  The update is the weighted fraction of non-firings
    among rows assigned to the pattern, which cannot decrease the
    tempered objective.
    """
    log_q = _log_q(z, beta)
    q = np.exp(np.minimum(log_q, 0.0))
    one_minus_q = np.clip(1.0 - q, 1e-300, 1.0)
    zf = z.astype(float)
    new_beta = beta.copy()
    for k in range(beta.shape[0]):
        mask = zf[:, k]
        denom = signal_weight.T @ mask              # (D,)
        fired = np.clip((1.0 - beta[k]) / one_minus_q, 0.0, 1.0)
        not_fired = np.where(x == 1, 1.0 - fired, 1.0)
        num = (signal_weight * not_fired).T @ mask  # (D,)
        with np.errstate(invalid="ignore", divide="ignore"):
            upd = num / denom
        new_beta[k] = np.where(denom > 0, np.clip(upd, 0.0, 1.0), beta[k])
    return new_beta


def _row_tempered_ll(x: np.ndarray, log_q: np.ndarray, r: float,
                     epsilon: float, inv_t: float) -> np.ndarray:
    """Tempered log-likelihood of each row; log_q may have extra leading axes."""
    eps = float(np.clip(epsilon, PARAM_FLOOR, 1.0 - PARAM_FLOOR))
    a = (np.log(eps) + _log_noise(x, r)) * inv_t
    b = (np.log1p(-eps) + _log_signal(x, np.minimum(log_q, 0.0))) * inv_t
    return np.logaddexp(a, b).sum(axis=-1)


def _update_z(x: np.ndarray, state: FitState, max_passes: int) -> np.ndarray:
    """Greedy single-bit flips per row, accepting only tempered-LL gains.

    Rows are independent, so one flip per row per pass is applied
    simultaneously; the result does not depend on row order.
    """
    z = state.z.copy()
    n, k_count = z.shape
    d = state.beta.shape[1]
    inv_t = 1.0 / state.temperature
    with np.errstate(divide="ignore"):
        log_beta = np.log(np.clip(state.beta, 1e-300, 1.0))
    chunk = max(1, _CHUNK_CELLS // max(1, k_count * d))
    for _ in range(max_passes):
        improved = False
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            xs = x[lo:hi]
            zs = z[lo:hi]
            log_q = zs.astype(float) @ log_beta
            base = _row_tempered_ll(xs, log_q, state.r, state.epsilon, inv_t)
            # flipping bit k adds log_beta[k] when z=0 and removes it when z=1
            sign = 1.0 - 2.0 * zs.astype(float)
            log_q_flip = log_q[:, None, :] + sign[:, :, None] * log_beta[None, :, :]
            flip = _row_tempered_ll(xs[:, None, :], log_q_flip,
                                    state.r, state.epsilon, inv_t)
            delta = flip - base[:, None]
            best = np.argmax(delta, axis=1)
            rows = np.nonzero(delta[np.arange(hi - lo), best] > 1e-12)[0]
            if rows.size:
                z[lo + rows, best[rows]] ^= 1
                improved = True
        if not improved:
            break
    return z


def em_step(x: BinaryMatrix, state: FitState) -> FitState:
    """One tempered E/M sweep at the state's temperature.

    Update order: responsibilities, then epsilon, r, beta (each a closed-form
    ascent step on the tempered bound), then the discrete z flip search
    evaluated directly on the tempered log-likelihood.
    """
    xd = x.data
    if xd.shape != (state.z.shape[0], state.beta.shape[1]):
        raise DimensionError("x shape does not match the fit state")
    xf = xd.astype(float)

    rho = _noise_responsibility(xd, state)
    eps = float(np.clip(rho.mean(), PARAM_FLOOR, 1.0 - PARAM_FLOOR))
    rho_sum = rho.sum()
    r = float(np.clip((rho * xf).sum() / rho_sum, PARAM_FLOOR, 1.0 - PARAM_FLOOR)) \
        if rho_sum > 0 else state.r

    new = replace(state.copy(), r=r, epsilon=eps)
    new.beta = _update_beta(xf, state.z, state.beta, 1.0 - rho)
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


def _row_mixture_ll(x_row: np.ndarray, covered: np.ndarray,
                    log_terms: tuple[float, float, float, float]) -> float:
    log_match1, log_match0, log_miss1, log_miss0 = log_terms
    ones = x_row == 1
    n11 = int(np.count_nonzero(covered & ones))
    n01 = int(np.count_nonzero(~covered & ones))
    n10 = int(np.count_nonzero(covered & ~ones))
    n00 = int(np.count_nonzero(~covered & ~ones))
    return n11 * log_match1 + n00 * log_match0 + n01 * log_miss1 + n10 * log_miss0


def assign_patterns(x_row: np.ndarray, u: BinaryMatrix,
                    r: float, epsilon: float) -> np.ndarray:
    """Greedy maximum-likelihood pattern assignment for a single row.

    Runs the add-then-prune greedy from the empty set and, to escape
    single-pattern traps, from each singleton seed; the highest-likelihood
    result wins.  Deterministic; ties go to the earliest start and lowest
    pattern index.
    """
    x_row = np.asarray(x_row).astype(np.uint8)
    if x_row.shape != (u.cols,):
        raise DimensionError(f"row length {x_row.shape} != D={u.cols}")
    r = float(np.clip(r, PARAM_FLOOR, 1.0 - PARAM_FLOOR))
    eps = float(np.clip(epsilon, PARAM_FLOOR, 1.0 - PARAM_FLOOR))
    # covered and x agree -> eps*p_N + (1-eps); disagree -> eps*p_N
    log_terms = (
        float(np.log(eps * r + (1 - eps))),        # covered, x=1
        float(np.log(eps * (1 - r) + (1 - eps))),  # uncovered, x=0
        float(np.log(eps * r)),                    # uncovered, x=1
        float(np.log(eps * (1 - r))),              # covered, x=0
    )
    k_count = u.rows
    ud = u.data.astype(bool)

    def score(counts):
        covered = counts > 0
        return _row_mixture_ll(x_row, covered, log_terms)

    def greedy_from(seed):
        selected = np.zeros(k_count, dtype=np.uint8)
        cover_count = np.zeros(u.cols, dtype=np.int64)
        if seed is not None:
            selected[seed] = 1
            cover_count += ud[seed]
        current = score(cover_count)
        while True:
            best_k, best_score = -1, current
            for k in range(k_count):
                if selected[k]:
                    continue
                cand = score(cover_count + ud[k])
                if cand > best_score + 1e-12:
                    best_k, best_score = k, cand
            if best_k < 0:
                break
            selected[best_k] = 1
            cover_count += ud[best_k]
            current = best_score
        while True:
            best_k, best_score = -1, current
            for k in range(k_count):
                if not selected[k]:
                    continue
                cand = score(cover_count - ud[k])
                if cand > best_score + 1e-12:
                    best_k, best_score = k, cand
            if best_k < 0:
                break
            selected[best_k] = 0
            cover_count -= ud[best_k]
            current = best_score
        return selected, current

    best_selected, best_ll = greedy_from(None)
    for seed in range(k_count):
        selected, ll = greedy_from(seed)
        if ll > best_ll + 1e-12:
            best_selected, best_ll = selected, ll
    return best_selected


def assign_matrix(x: BinaryMatrix, u: BinaryMatrix,
                  r: float, epsilon: float) -> BinaryMatrix:
    """assign_patterns applied to every row of x."""
    out = np.zeros((x.rows, u.rows), dtype=np.uint8)
    for i in range(x.rows):
        out[i] = assign_patterns(x.row(i), u, r, epsilon)
    return BinaryMatrix(out)
