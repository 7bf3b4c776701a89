"""Annealed EM fitting of the noisy-OR signal / Bernoulli noise mixture.

The observed binary matrix is modeled entry-wise as a mixture: with
probability ``epsilon`` an entry is pure Bernoulli(r) noise, otherwise it
follows the signal distribution whose "entry is 0" probability is
``q[i, d] = prod_k beta[k, d] ** z[i, k]``.  Fitting anneals a computational
temperature: responsibilities are computed from likelihood terms raised to
the power 1/T, which smooths the noise/signal split at high T and sharpens
it as T cools.  Each em_step is monotone in the tempered log-likelihood.

A step works per distinct assignment vector.  Rows are grouped by sorting
integer keys (``_keys``): a row's packed bits, one native uint64 for up to
64 columns and a void view of the packed bytes for wider rows.  A step's
E-step input, its table, is the grouping of the rows with its counts
(``_Rows``), each group's log q and its mixture terms f0, f1.  The
grouping also holds the flip search's plan (``_plan``), which depends on z
alone and is built on first use: the distinct candidate vectors and each
row's candidates among them.  The returned state carries the next step's
table: when no row moved, the E-step's grouping, with its plan, and the
log q and terms the flip search found for each group's vector, else a
fresh tabulation of the new state (``_tabulate``).  The fitting loop
(``_converge``) hands it on, and at a new temperature turns its log q
into new terms on its grouping, so a state's log q is computed once and
a plan lasts until a row moves.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

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

# The ends of fit's annealing schedule.
START_TEMPERATURE = 2.0
END_TEMPERATURE = 0.05

# A byte of a binary row as the ASCII digit of its bit.
_DIGITS = bytes.maketrans(bytes(range(256)), b"0" + b"1" * 255)

# The flip search takes rows in chunks bounded by this many (row, candidate,
# perm) cells so it never materializes huge 3-d temporaries.
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
    # the next em_step's input, (grouping, log q, f0, f1), from the step
    # that made this state; only the fitting loop reads it
    table: tuple | None = field(default=None, compare=False, repr=False)


def boolean_product(z: BinaryMatrix, u: BinaryMatrix) -> BinaryMatrix:
    """OR-of-ANDs matrix product: out[i, d] = OR_k (z[i, k] AND u[k, d])."""
    if z.cols != u.rows:
        raise DimensionError(f"inner dimensions differ: {z.cols} vs {u.rows}")
    prod = z.data.astype(np.int64) @ u.data.astype(np.int64)
    return BinaryMatrix((prod > 0).astype(np.uint8))


def _log_beta(beta: np.ndarray) -> np.ndarray:
    """log beta with zeros at log 1e-300, so that 0 * log beta stays 0."""
    return np.log(np.maximum(beta, 1e-300))


def _clip(p: float) -> float:
    return float(min(max(p, PARAM_FLOOR), 1.0 - PARAM_FLOOR))


def _keys(z: np.ndarray) -> np.ndarray:
    """Each row's key, which sorts as the row's bits do: its packed bits
    read as one big-endian 64-bit word, held as a native uint64, for up to
    64 columns, and a void view of the packed bytes for wider rows.  Rows
    of no columns all get the same key."""
    packed = np.packbits(z, axis=1)
    width = packed.shape[1]
    if width > 8:
        packed = np.ascontiguousarray(packed)
        return packed.view(np.dtype((np.void, width)))[:, 0]
    word = np.zeros((len(z), 8), dtype=np.uint8)
    word[:, :width] = packed
    return word.view(">u8")[:, 0].astype(np.uint64)


def _group(keys: np.ndarray):
    """The index of one occurrence of each distinct key, in the keys'
    sorted order, and each key's index into them."""
    order = np.argsort(keys)
    ordered = keys[order]
    new = np.empty(keys.size, dtype=bool)
    new[:1] = True
    new[1:] = ordered[1:] != ordered[:-1]
    group = np.empty(keys.size, dtype=np.intp)
    group[order] = np.cumsum(new) - 1
    return order[new], group


def _noise_terms(r: float, eps: float, inv_t: float):
    """The tempered noise log-terms a = log(eps * p_N) / T of an entry with
    x = 0 and with x = 1."""
    r = _clip(r)
    with np.errstate(divide="ignore"):
        log_eps = np.log(eps)
    return (log_eps + np.log1p(-r)) * inv_t, (log_eps + np.log(r)) * inv_t


def _terms(log_q: np.ndarray, r: float, eps: float, inv_t: float):
    """Tempered mixture log-terms f = log[(eps * p_N)^(1/T) +
    ((1 - eps) * p_S)^(1/T)] of an entry with x = 0 and with x = 1, of
    log_q's shape.  eps of 0 or 1 gives -inf terms.
    """
    a0, a1 = _noise_terms(r, eps, inv_t)
    log_q = np.minimum(log_q, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        # q == 1 and x == 1 is an impossible signal event: log1p(-1) = -inf
        log_one_minus_q = np.log1p(-np.exp(log_q))
        log_signal = np.log1p(-eps)
    f0 = np.logaddexp(a0, (log_signal + log_q) * inv_t)
    f1 = np.logaddexp(a1, (log_signal + log_one_minus_q) * inv_t)
    return f0, f1


def _plan(vectors: np.ndarray, group: np.ndarray):
    """The flip search's candidates for rows whose vectors of z are
    vectors[group], which depend on z alone.  A vector's candidates are
    itself and its K single-bit flips.  Returns the distinct candidates
    as a float matrix (the left factor of their log q), each row's K + 1
    candidates as indices into it, and each vector's own candidate."""
    k = vectors.shape[1]
    # candidate 0 keeps z, candidate j + 1 flips bit j
    moves = np.eye(k + 1, k, -1, dtype=np.uint8)
    cand = (vectors[:, None, :] ^ moves).reshape(-1, k)
    distinct, which = _group(_keys(cand))
    return (cand[distinct].astype(float), which.reshape(-1, k + 1)[group],
            which[::k + 1])


@dataclass(frozen=True)
class _Rows:
    """The rows of (x, z) grouped by their vector of z: each row's group,
    each group's vector, and for each group and column the number of its
    rows with x = 0 (n0) and with x = 1 (n1)."""

    group: np.ndarray
    vectors: np.ndarray
    n0: np.ndarray
    n1: np.ndarray

    @classmethod
    def of(cls, x: np.ndarray, z: np.ndarray) -> _Rows:
        first, group = _group(_keys(z))
        u, d = first.size, x.shape[1]
        cells = (group[:, None] * d + np.arange(d)).ravel()
        n1 = np.bincount(cells, weights=x.ravel(), minlength=u * d)
        n1 = n1.reshape(u, d)
        n0 = np.bincount(group, minlength=u)[:, None] - n1
        return cls(group, z[first], n0, n1)

    @cached_property
    def plan(self):
        """_plan of the grouped rows, built on first use; a grouping that
        goes on to the next step takes its plan with it."""
        return _plan(self.vectors, self.group)


def _tabulate(x: np.ndarray, state: FitState, eps: float, inv_t: float):
    """The rows of x grouped by the state's assignment vectors, each
    group's log q at the state's beta (zeros of beta map to -inf-ish), and
    each group's f0 and f1 at that, the state's r and eps and inv_t.  x, z
    and beta must be (N, D), (N, K) and (K, D), else DimensionError."""
    (n, d), (k, d_beta) = x.shape, state.beta.shape
    if state.z.shape != (n, k) or d != d_beta:
        raise DimensionError(f"x {x.shape}, z {state.z.shape} and beta "
                             f"{state.beta.shape} do not line up")
    rows = _Rows.of(x, state.z)
    log_q = rows.vectors.astype(float) @ _log_beta(state.beta)
    return rows, log_q, *_terms(log_q, state.r, eps, inv_t)


def _entry_sum(table) -> float:
    """Sum of the tempered mixture terms f over the entries of a table."""
    rows, _, f0, f1 = table
    n0, n1 = rows.n0, rows.n1
    # a cell with no entries adds 0, also where its term is -inf
    with np.errstate(invalid="ignore"):
        cells = np.where(n0 > 0, n0 * f0, 0.0) + np.where(n1 > 0, n1 * f1, 0.0)
    return float(cells.sum())


def log_likelihood(x: BinaryMatrix, state: FitState) -> float:
    """Plain (untempered) mixture log-likelihood of the observed matrix."""
    eps = float(min(max(state.epsilon, 0.0), 1.0))
    return _entry_sum(_tabulate(x.data, state, eps, 1.0))


def tempered_log_likelihood(x: BinaryMatrix, state: FitState) -> float:
    """Sum over entries of log[(eps*p_N)^(1/T) + ((1-eps)*p_S)^(1/T)]."""
    return _entry_sum(_tabulate(x.data, state, _clip(state.epsilon),
                                1.0 / state.temperature))


def _update_beta(zu: np.ndarray, beta: np.ndarray, log_q: np.ndarray,
                 w0: np.ndarray, w1: np.ndarray) -> np.ndarray:
    """Exact M-step for beta from the latent-cause decomposition.

    For entries with x=1 the posterior that pattern k fired is
    (1 - beta[k, d]) / (1 - q[i, d]); entries with x=0 count fully as
    "did not fire".  The update is the weighted fraction of non-firings
    among rows assigned to the pattern, which cannot decrease the
    tempered objective.  Rows enter by distinct assignment vector zu:
    log_q is each one's log q at beta, and w0, w1 are the summed signal
    weights of each one's entries with x = 0 and x = 1.
    """
    q = np.exp(np.minimum(log_q, 0.0))
    one_minus_q = np.maximum(1.0 - q, 1e-300)
    mask = zu.T.astype(float)[:, :, None]                      # (K, U, 1)
    # in [0, 1] where beta is: 1 - beta >= 0
    fired = np.minimum((1.0 - beta[:, None, :]) / one_minus_q, 1.0)
    # one summation for both, so that beta stays exactly 1 where no
    # x = 1 entry credits pattern k
    denom = (mask * (w0 + w1)).sum(axis=1)                     # (K, D)
    num = (mask * (w0 + w1 * (1.0 - fired))).sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        upd = num / denom
    # 0 <= num <= denom, and where denom is 0 the NaN is not taken
    return np.where(denom > 0, np.minimum(upd, 1.0), beta)


def _update_z(x: np.ndarray, state: FitState, grouped: _Rows,
              max_passes: int):
    """Greedy single-bit flips per row, accepting only tempered-LL gains.

    Rows are independent, so one flip per row per pass is applied
    simultaneously; the result does not depend on row order.  A row that
    did not flip would not flip again, so a pass searches only the last
    pass's flipped rows.  A row's candidates are its z and its K single-bit
    flips (_plan); the terms of x = 0 and x = 1 are tabulated once per
    distinct candidate vector, and a row's score is the x = 0 sum plus x
    times the difference.  grouped is the E-step's grouping of state.z's
    rows, whose plan the first pass uses when it searches every row in one
    chunk.  Returns the new z, the tempered log-likelihood at it (the sum
    of each row's score at its final z) and, if that first pass moved no
    row, the next step's E-step input: grouped, with its plan, and the
    log q and terms of each group's own vector, else None.
    """
    z = state.z.copy()
    n = z.shape[0]
    xf = x.astype(float)
    k_count, d = state.beta.shape
    r, eps, inv_t = state.r, state.epsilon, 1.0 / state.temperature
    log_beta = _log_beta(state.beta)
    chunk = max(1, _CHUNK_CELLS // ((k_count + 1) * d))
    row_ll = np.empty(n)
    search = np.arange(n)
    for p in range(max_passes):
        flipped = []
        for lo in range(0, search.size, chunk):
            rows = search[lo:lo + chunk]
            if p == 0 and rows.size == n:
                # every row in order, z unchanged: the grouping's plan
                (distinct, which, own), xr = grouped.plan, xf
            else:
                first, group = _group(_keys(z[rows]))
                distinct, which, own = _plan(z[rows[first]], group)
                xr = xf[rows]
            log_q = distinct @ log_beta
            f0, f1 = _terms(log_q, r, eps, inv_t)
            log_q = log_q[own]      # a hand-off takes the groups' own rows
            score = (np.matmul((f1 - f0)[which],
                               xr.reshape(-1, d, 1))[..., 0]
                     + f0.sum(axis=-1)[which])
            delta = score[:, 1:] - score[:, :1]
            best = np.argmax(delta, axis=1)
            at = np.arange(rows.size)
            gain = delta[at, best] > 1e-12
            z[rows[gain], best[gain]] ^= 1
            row_ll[rows] = score[at, np.where(gain, best + 1, 0)]
            flipped.append(rows[gain])
        search = np.concatenate(flipped)
        if not search.size:
            break
    ll = float(row_ll.sum())
    if p == 0 and not search.size and n <= chunk:
        # no row moved, and the one chunk held the terms of every group
        return z, ll, (grouped, log_q, f0[own], f1[own])
    return z, ll, None


def em_step(x: BinaryMatrix, state: FitState,
            tabled: tuple | None = None) -> FitState:
    """One tempered E/M sweep at the state's temperature.

    Update order: responsibilities, then epsilon, r, beta (each a closed-form
    ascent step on the tempered bound), then the discrete z flip search
    evaluated directly on the tempered log-likelihood.  Every term depends
    on an entry only through its bit and its row's z, so the terms are
    computed once per distinct z and the rows enter through counts.  The
    step's log-likelihood is the flip search's score of the final z.
    tabled is the E-step's input, _tabulate's (grouping, log q, f0, f1) of
    x and the state at its clipped epsilon and temperature, or None to work
    it out, which checks the shapes.  The returned state's table is the
    next step's input: the E-step's grouping, with its flip-search plan,
    and the flip search's log q and terms if no row moved, else a fresh
    _tabulate of the new state.
    """
    xd = x.data
    if xd.size == 0:
        raise DimensionError("x has no entries")
    if state.z.shape[1] == 0:
        raise DimensionError("the state has no patterns")

    eps, inv_t = _clip(state.epsilon), 1.0 / state.temperature
    rows, log_q, f0, f1 = tabled or _tabulate(xd, state, eps, inv_t)
    n0, n1 = rows.n0, rows.n1
    a0, a1 = _noise_terms(state.r, eps, inv_t)
    # tempered noise responsibilities of an x = 0 and an x = 1 entry
    rho0, rho1 = np.exp(a0 - f0), np.exp(a1 - f1)
    noise1 = n1 * rho1
    rho_sum = (n0 * rho0 + noise1).sum()
    new_eps = _clip(rho_sum / xd.size)
    r = _clip(noise1.sum() / rho_sum) if rho_sum > 0 else state.r

    beta = _update_beta(rows.vectors, state.beta, log_q,
                        n0 * (1.0 - rho0), n1 * (1.0 - rho1))
    new = FitState(beta=beta, z=state.z, r=r, epsilon=new_eps,
                   temperature=state.temperature)
    new.z, new.log_likelihood, new.table = _update_z(
        xd, new, rows, max_passes=2 * state.z.shape[1])
    if new.table is None:
        new.table = _tabulate(xd, new, new_eps, inv_t)
    return new


def _initial_state(x: BinaryMatrix, k: int, config: FitConfig) -> FitState:
    rng = np.random.default_rng(config.seed)
    beta = rng.uniform(0.4, 0.6, size=(k, x.cols))
    p_assign = min(0.5, 2.0 / k)
    z = (rng.random((x.rows, k)) < p_assign).astype(np.uint8)
    return FitState(beta=beta, z=z, r=0.5, epsilon=0.5,
                    temperature=START_TEMPERATURE)


def _converge(x: BinaryMatrix, state: FitState, temperature: float,
              config: FitConfig) -> FitState:
    """EM steps at a fixed temperature until the tempered log-likelihood
    changes by at most the relative tolerance, or the step budget ends.

    The level turns the log q of the table that the state carries, or of a
    fresh tabulation if it carries none, into terms at its temperature;
    each step then gets the table that the step before it handed off."""
    state.temperature = temperature
    eps, inv_t = _clip(state.epsilon), 1.0 / temperature
    rows, log_q, *_ = state.table or _tabulate(x.data, state, eps, inv_t)
    tabled = rows, log_q, *_terms(log_q, state.r, eps, inv_t)
    prev = _entry_sum(tabled)
    for _ in range(config.max_inner_iterations):
        state = em_step(x, state, tabled)
        tabled = state.table
        cur = state.log_likelihood
        if abs(cur - prev) <= config.tolerance * max(1.0, abs(prev)):
            break
        prev = cur
    return state


def fit(x: BinaryMatrix, k: int, config: FitConfig | None = None) -> Factorization:
    """Fit K patterns to x by annealed EM; deterministic for a fixed seed.

    The temperature cools from START_TEMPERATURE to END_TEMPERATURE by the
    config's cooling_factor, then a level at T = 1 refines the fit.
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
    temperature = START_TEMPERATURE
    while True:
        state = _converge(x, state, temperature, config)
        if temperature <= END_TEMPERATURE:
            break
        temperature = max(temperature * config.cooling_factor, END_TEMPERATURE)

    # refinement at T=1: the cooled responsibilities are over-sharpened, so
    # re-estimate epsilon and r as plain maximum-likelihood values
    state = _converge(x, state, 1.0, config)

    # order patterns by how many applications request them
    counts = state.z.sum(axis=0)
    order = np.lexsort((np.arange(k), -counts))
    z = state.z[:, order]
    beta = state.beta[order]
    ll = log_likelihood(x, FitState(beta=beta, z=z, r=state.r,
                                    epsilon=state.epsilon, temperature=1.0))
    return Factorization(z=BinaryMatrix(z), beta=beta, r=state.r,
                         epsilon=state.epsilon, log_likelihood=ll,
                         seed=config.seed)


@lru_cache(maxsize=1)
def _model(u: BinaryMatrix, r: float, epsilon: float):
    """What scoring against patterns u at r and epsilon in [0, 1] (else
    ValueError) needs, built once per (u, r, epsilon), u being cached by
    identity with read-only data: the log-probabilities of an entry at r
    and epsilon clipped, covered with x = 1, uncovered with x = 0,
    uncovered with x = 1 and covered with x = 0; and each pattern as a
    Python int bit set read big-endian, column 0 the top bit of the first
    byte."""
    if not (0.0 <= r <= 1.0 and 0.0 <= epsilon <= 1.0):     # rejects NaN
        raise ValueError(f"r and epsilon must lie in [0, 1]: {r}, {epsilon}")
    r, eps = _clip(r), _clip(epsilon)
    # covered and x agree -> eps*p_N + (1-eps); disagree -> eps*p_N
    logs = tuple(float(np.log(p)) for p in (eps * r + (1 - eps),
                 eps * (1 - r) + (1 - eps), eps * r, eps * (1 - r)))
    pats = tuple(int.from_bytes(b, "big") for b in np.packbits(u.data, axis=1))
    return logs, pats


def _set_ll(n11, n10, ones, d: int, logs):
    """Log-likelihood of a row with `ones` of d entries requested when the
    assigned patterns cover n11 requested and n10 unrequested entries;
    logs is _model's first item."""
    match1, match0, miss1, miss0 = logs
    return (n11 * match1 + (d - ones - n10) * match0
            + (ones - n11) * miss1 + n10 * miss0)


def _bound(x: int, touching: list, ones: int, d: int, logs) -> float:
    """An upper bound on the log-likelihood of any set of patterns for the
    row x, whose touching patterns, as (index, bit set, requested count,
    unrequested count) tuples, are touching.  A clean pattern holds no
    unrequested entry; c counts the requested entries the clean patterns
    cover.  A dirty entry is a requested one that a touching pattern covers
    and no clean one does; its mu is the fewest unrequested entries of a
    touching pattern that covers it, at least 1.  A set whose largest mu
    among the dirty entries it covers is t (0 if none) holds a pattern with
    at least t unrequested entries, so n10 >= t, and covers at most c
    requested entries plus the dirty ones of mu <= t; patterns that touch
    no requested entry only add to n10.  _set_ll rises with n11 and falls
    with n10, so the bound is its largest value at those counts over t in 0
    and the mu values."""
    clean, by_extra = 0, {}
    for _, p, _, extra in touching:
        if extra:
            by_extra[extra] = by_extra.get(extra, 0) | (p & x)
        else:
            clean |= p
    bound = _set_ll(clean.bit_count(), 0, ones, d, logs)
    reached = clean
    for t in sorted(by_extra):
        # the dirty entries of mu t are those t's patterns add to reached
        grown = reached | by_extra[t]
        if grown != reached:
            reached = grown
            bound = max(bound, _set_ll(reached.bit_count(), t, ones, d, logs))
    return bound


def _search(x: int, pats: tuple, d: int, logs) -> list:
    """assign_patterns' search for the row whose d entries are the bit set
    x, against the patterns pats and the entry logs of _model: the indices
    of the chosen patterns, ascending.  Every count is a popcount of Python
    ints, so a row costs a few hundred integer operations, and a set's
    value is _set_ll of its integer counts n11 and n10."""
    ones = x.bit_count()
    # An add candidate that covers no still-uncovered requested entry (m1 =
    # 0) cannot be kept, so only patterns that touch x are scanned.  It
    # would score the current value minus m0 * (match0 - miss0), where m0
    # counts the unrequested entries it newly covers, and with r and
    # epsilon clipped to [1e-6, 1 - 1e-6], match0 - miss0 = log(1 + (1 -
    # eps) / (eps * (1 - r))) >= about 1e-6, far above the rounding of the
    # two values (a few ulps of |ll| <= 28 * D, about 1e-12 at D = 130).  So
    # with m0 >= 1 it is strictly worse than the current value, with m0 = 0
    # it ties it, and the scan keeps neither.  Selected patterns have m1 = 0
    # too, so they need no mask.  Each touching pattern comes with its
    # counts of requested and unrequested entries, which are _bound's input
    # and, against an empty cover, an add candidate's m1 and m0.
    unrequested = ~x
    touching = [(j, p, (p & x).bit_count(), (p & unrequested).bit_count())
                for j, p in enumerate(pats) if p & x]
    # A later start ends at some set, and against _bound's term at that
    # set's t the set has the same counts, and so the same value to the
    # bit, or fewer in n11 or more in n10, and so a value at least about
    # 1e-6 lower, as above.  Either way it scores at most the bound and is
    # not kept, so the scan ends once a kept value reaches the bound; a
    # perfect cover always does, at the bound's t = 0 term.  The margin is
    # 1e-6, so the exit is exact while |ll| is below about 1e8.
    bound = _bound(x, touching, ones, d, logs)
    best, chosen = -np.inf, []
    for start in range(-1, len(pats)):
        sel = [start] if start >= 0 else []
        covered = pats[start] if start >= 0 else 0
        n11 = (covered & x).bit_count()
        n10 = covered.bit_count() - n11
        ll = _set_ll(n11, n10, ones, d, logs)
        while True:                 # add
            if covered:             # else the scan takes touching's counts
                need, free = x & ~covered, ~(x | covered)
            pick, top = -1, ll
            for j, p, m1, m0 in touching:
                if covered:
                    m1 = (p & need).bit_count()
                    if not m1:
                        continue
                    m0 = (p & free).bit_count()
                v = _set_ll(n11 + m1, n10 + m0, ones, d, logs)
                if v > top + 1e-12:
                    pick, top, g1, g0 = j, v, m1, m0
            if pick < 0:
                break
            sel.append(pick)
            covered |= pats[pick]
            n11, n10, ll = n11 + g1, n10 + g0, top
        sel.sort()
        # With n10 = 0 a removal uncovers only requested entries, m0 = 0, and
        # scores the same counts or loses m1 * (match1 - miss1): never kept
        while n10:                  # prune, candidates in index order
            seen = twice = 0
            for j in sel:
                twice |= seen & pats[j]
                seen |= pats[j]
            once = seen & ~twice    # entries exactly one selected pattern covers
            pick, top = -1, ll
            for j in sel:
                lost = pats[j] & once
                m1 = (lost & x).bit_count()
                m0 = lost.bit_count() - m1
                v = _set_ll(n11 - m1, n10 - m0, ones, d, logs)
                if v > top + 1e-12:
                    pick, top, g1, g0 = j, v, m1, m0
            if pick < 0:
                break
            sel.remove(pick)
            n11, n10, ll = n11 - g1, n10 - g0, top
        if ll > best + 1e-12:
            best, chosen = ll, sel
            if ll >= bound:
                break
    return chosen


def assign_patterns(x_row: np.ndarray, u: BinaryMatrix,
                    r: float, epsilon: float) -> np.ndarray:
    """Greedy maximum-likelihood pattern assignment for a single row.

    Runs the add-then-prune greedy from the empty set and, to escape
    single-pattern traps, from each pattern's singleton in index order; the
    highest-likelihood result wins.  The starts stop once a kept result
    scores _bound's upper bound on the row's log-likelihood, which a
    perfect cover (every requested entry covered and no other) always
    does; that changes no result while the rounding of the log-likelihood
    stays below about 1e-6.  Deterministic; ties go to the earliest start
    and lowest pattern index: a greedy step scans the candidates by index
    and keeps one only when it beats the best so far by more than 1e-12,
    and the starts are scanned the same way.

    The row is packed into a Python int bit set, big-endian and padded to
    whole bytes as _model packs the patterns once per model, and searched
    by _search against the patterns' bit sets; assign_matrix runs the same
    search on each distinct row.
    """
    x_row = np.asarray(x_row)
    if x_row.shape != (u.cols,):
        raise DimensionError(f"row length {x_row.shape} != D={u.cols}")
    check_binary(x_row)
    logs, pats = _model(u, r, epsilon)
    # the row's bytes, one an entry, as ASCII digits read in base 2 and
    # shifted to whole bytes; wider entries are compared to 1 first, and
    # the leading 0 reads a row of no columns as 0
    if x_row.itemsize != 1:
        x_row = x_row == 1
    x = int(b"0" + x_row.tobytes().translate(_DIGITS), 2) << (-u.cols % 8)
    out = np.zeros(len(pats), dtype=np.uint8)
    for j in _search(x, pats, u.cols, logs):
        out[j] = 1
    return out


def assign_matrix(x: BinaryMatrix, u: BinaryMatrix,
                  r: float, epsilon: float) -> BinaryMatrix:
    """assign_patterns applied to every row of x: the distinct rows are
    packed into bit sets together, _search runs once on each, and each
    row of x takes its distinct row's assignment."""
    if x.cols != u.cols:
        raise DimensionError(f"row length {x.cols} != D={u.cols}")
    first, group = _group(_keys(x.data))
    logs, pats = _model(u, r, epsilon)
    k, width = u.rows, (u.cols + 7) // 8
    rows = np.packbits(x.data[first], axis=1).tobytes()
    out = bytearray(first.size * k)
    for i in range(first.size):
        row = int.from_bytes(rows[i * width:(i + 1) * width], "big")
        for j in _search(row, pats, u.cols, logs):
            out[i * k + j] = 1
    return BinaryMatrix(np.frombuffer(out, dtype=np.uint8)
                        .reshape(first.size, k)[group])
