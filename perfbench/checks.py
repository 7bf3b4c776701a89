"""Correctness checks computed apart from the program under test.

Each check returns a list of problems; an empty list means the outputs are
right.  The checks read the files the CLI wrote, or the values the library
returned, and compare them with numpy computations on the generated corpus
or with properties the method guarantees, never with stored outputs.
"""
from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import statistics
from pathlib import Path

import numpy as np

# slack for float comparisons of log-likelihoods
LL_SLACK = 1e-9
# relative slack between a fit's reported log-likelihood and the
# benchmark's; the fitted beta is written rounded to 12 decimals
FIT_LL_RTOL = 1e-6
# the paper's reputation property: low-reputation apps fit the patterns
# at least this much worse than the training apps
MIN_LOW_OVER_TRAIN = 2.0
# a run's median fitted epsilon, as a multiple of the planted one; the
# fitter underestimates it (0.05-0.5 x on these corpora), and its initial
# value is 25 x
EPSILON_BAND = (0.02, 2.0)
# the lowest instability at the planted K over a run's rounds; uniformly
# random assignments score 1 at every K
MAX_PLANTED_K_INSTABILITY = 0.5


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _manifest(out_dir) -> dict:
    with open(Path(out_dir) / "manifest.json") as fh:
        return json.load(fh)


def _digest_problems(out_dir, input_path) -> list[str]:
    digests = _manifest(out_dir)["input_digests"]
    if digests.get(str(input_path)) != _sha256(input_path):
        return [f"manifest digest of {input_path} is not its SHA-256"]
    return []


def matched_hamming(planted: np.ndarray, fitted: np.ndarray) -> int:
    """Smallest total Hamming distance over all pairings of pattern rows."""
    k = planted.shape[0]
    cost = np.abs(planted[:, None, :].astype(int)
                  - fitted[None, :, :].astype(int)).sum(axis=2)
    return min(sum(int(cost[i, p[i]]) for i in range(k))
               for p in itertools.permutations(range(k)))


def fit_log_likelihood_bound(x: np.ndarray, beta: np.ndarray, r: float,
                             epsilon: float) -> tuple[float, np.ndarray]:
    """Largest mixture log-likelihood of x over all assignments z, for fixed
    (beta, r, epsilon), and the pattern counts of the maximizing z.

    An entry is noise with probability epsilon (requested with probability
    r) and signal otherwise; the signal leaves it unrequested with
    probability q = prod of beta[k, d] over the patterns k assigned to the
    row.  Every row is maximized over all 2^K assignments, so no z can give
    more than the returned total.
    """
    k = beta.shape[0]
    options = np.array(list(itertools.product((0, 1), repeat=k)), dtype=bool)
    best = np.full(x.shape[0], -np.inf)
    best_z = np.zeros((x.shape[0], k), dtype=bool)
    requested = x.astype(bool)
    p_noise = np.where(requested, r, 1.0 - r)
    for z in options:
        q = np.prod(beta[z], axis=0)        # an empty product is 1
        p_signal = np.where(requested, 1.0 - q, q)
        with np.errstate(divide="ignore"):
            ll = np.log(epsilon * p_noise + (1.0 - epsilon) * p_signal).sum(axis=1)
        better = ll > best
        best = np.where(better, ll, best)
        best_z[better] = z
    return float(best.sum()), best_z.sum(axis=0)


def reputation_tiers(corpus) -> tuple[np.ndarray, np.ndarray]:
    """High (rating >= 4 and >= 100 ratings) and low (< 10 ratings) masks."""
    rated = np.array([rating != "" for rating in corpus.ratings])
    rating = np.array([float(v) if v else 0.0 for v in corpus.ratings])
    high = rated & (rating >= 4.0) & (corpus.counts >= 100)
    low = np.where(rated, corpus.counts, 0) < 10
    return high, low


def mine(out_dir, corpus, input_path) -> tuple[list[str], dict]:
    """Problems of one ``mine`` output, plus how well it recovered the
    planted model; ``mine_run`` gates the recovery over a whole run."""
    out_dir = Path(out_dir)
    problems = _digest_problems(out_dir, input_path)
    with open(out_dir / "factorization.json") as fh:
        fact = json.load(fh)
    k = corpus.u.shape[0]
    fitted = np.array(fact["u"], dtype=np.uint8)
    beta = np.array(fact["beta"], dtype=float)
    if fitted.shape != corpus.u.shape or beta.shape != corpus.u.shape:
        return problems + [f"fitted patterns have shape {fitted.shape}"], {}
    if not np.array_equal(fitted, (beta < 0.5).astype(np.uint8)):
        problems.append("patterns are not beta < 0.5")
    if not 0.0 < fact["epsilon"] < 1.0:
        return problems + [f"epsilon {fact['epsilon']} is not a share"], {}

    high, low = reputation_tiers(corpus)
    with open(out_dir / "residuals.json") as fh:
        residuals = json.load(fh)
    for tag, want in (("train", int(high.sum())), ("test_low", int(low.sum()))):
        got = residuals.get(tag, {}).get("n")
        if got != want:
            problems.append(f"{tag} has {got} apps, the corpus has {want}")
    counts = fact["z_counts"]
    if len(counts) != k or not all(0 <= c <= high.sum() for c in counts):
        problems.append(f"z_counts {counts} do not fit {high.sum()} apps")
    pattern_rows = _read_csv(out_dir / "pattern_summary.csv")
    if len(pattern_rows) != k:
        problems.append(f"pattern_summary.csv has {len(pattern_rows)} rows")

    bound, best_counts = fit_log_likelihood_bound(
        corpus.x[high], beta, fact["r"], fact["epsilon"])
    ll = fact["log_likelihood"]
    slack = FIT_LL_RTOL * abs(bound) + FIT_LL_RTOL
    if ll > bound + slack:
        problems.append(f"log-likelihood {ll} exceeds {bound}, the most any "
                        "assignment gives under the fitted parameters")
    if problems or "test_low" not in residuals:
        return problems, {}
    train = residuals["train"]["mean_fn"] + residuals["train"]["mean_fp"]
    low_res = residuals["test_low"]["mean_fn"] + residuals["test_low"]["mean_fp"]
    return problems, {
        "pattern_bits": matched_hamming(corpus.u, fitted),
        "low_over_train": low_res / train if train > 0 else float("inf"),
        "epsilon_ratio": fact["epsilon"] / corpus.epsilon,
        # the fitter's z is the best assignment of every training row
        "z_optimal": (abs(ll - bound) <= slack
                      and list(best_counts) == list(counts)),
    }


def recovered(quality: dict) -> bool:
    """The fit found the planted patterns, every training row's best
    assignment, and a test-low residual at least twice the train one."""
    return (quality["pattern_bits"] == 0 and quality["z_optimal"]
            and quality["low_over_train"] >= MIN_LOW_OVER_TRAIN)


def mine_run(qualities: list[dict]) -> list[str]:
    """Fit quality over a run's ``mine`` rounds.

    The fitter ends in a local optimum (two planted patterns merged, one
    left empty) on a share of its inputs, up to a fifth on some seeds, so
    any one round may miss; a fitter that misses on every round is broken.
    """
    if not qualities:
        return []
    problems = []
    if not any(map(recovered, qualities)):
        problems.append(f"none of {len(qualities)} fits recovered the "
                        "planted patterns")
    ratio = statistics.median(q["epsilon_ratio"] for q in qualities)
    if not EPSILON_BAND[0] <= ratio <= EPSILON_BAND[1]:
        problems.append(f"median fitted epsilon is {ratio:.3g} x the planted "
                        f"one, outside {EPSILON_BAND}")
    return problems


def select_k(out_dir, input_path, planted_k: int, k_range: range,
             repetitions: int) -> tuple[list[str], dict]:
    """Problems of one ``select-k`` output, plus its instability at the
    planted K and the distance of the selected K from the planted one;
    ``select_k_run`` gates the instability over a whole run."""
    out_dir = Path(out_dir)
    problems = _digest_problems(out_dir, input_path)
    config = _manifest(out_dir)["config"]
    if config["failed_k"]:
        problems.append(f"failed K values: {config['failed_k']}")
    rows = _read_csv(out_dir / "instability.csv")
    scores: dict[int, list[float]] = {}
    for row in rows:
        scores.setdefault(int(row["K"]), []).append(float(row["s"]))
    if sorted(scores) != list(k_range) or len(rows) != len(k_range) * repetitions:
        return problems + [f"instability.csv covers K={sorted(scores)} "
                           f"with {len(rows)} rows"], {}
    for k, values in scores.items():
        if not all(0.0 <= s <= 2.0 ** k / (2.0 ** k - 1.0) for s in values):
            problems.append(f"K={k}: a score lies outside [0, 2^K/(2^K-1)]")
    medians = {k: float(np.median(values)) for k, values in scores.items()}
    best = min(medians, key=lambda k: (medians[k], k))
    if config["selected_k"] != best:
        problems.append(f"selected K={config['selected_k']}, smallest "
                        f"median instability at K={best}")
    return problems, {"selected_k_error": abs(config["selected_k"] - planted_k),
                      "planted_k_instability": medians[planted_k]}


def select_k_run(qualities: list[dict]) -> list[str]:
    """Instability at the planted K over a run's ``select-k`` rounds.

    When both halves are fitted well it is near 0.  A local optimum in a
    half (see ``mine_run``) raises it to 0.2-0.7 in about a quarter of the
    rounds, and then another K is often the selected one, so neither the
    selected K nor a single round is gated: the run passes when at least
    one of its rounds fitted both halves alike.
    """
    if not qualities:
        return []
    best = min(q["planted_k_instability"] for q in qualities)
    if best > MAX_PLANTED_K_INSTABILITY:
        return [f"instability at the planted K is {best:.3g} or more in all "
                f"{len(qualities)} rounds, above {MAX_PLANTED_K_INSTABILITY}"]
    return []


def stats(out_dir, x: np.ndarray, permissions, prices) -> list[str]:
    """Frequencies and the price curve against numpy on the written rows."""
    out_dir = Path(out_dir)
    n = x.shape[0]
    problems = []
    own = dict(zip(permissions, (x.sum(axis=0) / n).tolist()))
    own = {p: f for p, f in own.items() if f > 0}
    got = {row["permission"]: float(row["fraction"])
           for row in _read_csv(out_dir / "permission_frequencies.csv")}
    if got.keys() != own.keys():
        problems.append(f"{len(got)} permissions listed, {len(own)} requested")
    elif any(not math.isclose(got[p], own[p], rel_tol=1e-12) for p in own):
        problems.append("permission frequencies differ from column means")
    values, counts = np.unique(np.array([float(p) for p in prices]),
                               return_counts=True)
    own_curve = np.cumsum(counts) / n
    rows = _read_csv(out_dir / "price_cumulative.csv")
    got_price = np.array([float(row["price"]) for row in rows])
    got_frac = np.array([float(row["cumulative_fraction"]) for row in rows])
    if got_price.shape != values.shape or not np.array_equal(got_price, values):
        problems.append(f"price curve has {len(rows)} points, "
                        f"{values.size} distinct prices")
    elif not np.allclose(got_frac, own_curve, rtol=1e-12, atol=0.0):
        problems.append("price curve differs from the sorted-price fractions")
    return problems


def simulate(out_dir, x: np.ndarray) -> list[str]:
    out_dir = Path(out_dir)
    problems = []
    with open(out_dir / "pcp_summary.json") as fh:
        summary = json.load(fh)
    if not summary["average_pcp_real"] > summary["average_pcp_simulated"]:
        problems.append("real average PCP does not exceed the simulated one")
    d = int(np.count_nonzero(x.any(axis=0)))
    rows = _read_csv(out_dir / "pcp_histogram.csv")
    for column in ("count_real", "count_sim"):
        total = sum(int(row[column]) for row in rows)
        if total != d * (d - 1):
            problems.append(f"{column} sums to {total}, not D(D-1)={d * (d - 1)}")
    return problems


def _row_log_likelihood(x_row, z_rows, u, r, epsilon) -> np.ndarray:
    """Mixture log-likelihood of one app under each assignment in z_rows.

    An entry covered by an assigned pattern is requested with probability
    (1 - epsilon) + epsilon * r, an uncovered one with epsilon * r.
    """
    covered = (z_rows.astype(np.int64) @ u.astype(np.int64)) > 0
    p_one = np.where(covered, (1.0 - epsilon) + epsilon * r, epsilon * r)
    p_obs = np.where(x_row[None, :] == 1, p_one, 1.0 - p_one)
    return np.log(p_obs).sum(axis=1)


def scoring(x: np.ndarray, z_single: np.ndarray, batch_rows: np.ndarray,
            z_batch: np.ndarray, u: np.ndarray, r: float, epsilon: float,
            rates) -> list[str]:
    """Local optimality of each assignment, batch == single, fn+fp totals."""
    problems = []
    k = u.shape[0]
    eye = np.eye(k, dtype=np.uint8)
    for i, (row, z) in enumerate(zip(x, z_single)):
        removals = np.array([z ^ eye[j] for j in np.flatnonzero(z)],
                            dtype=np.uint8).reshape(-1, k)
        candidates = np.vstack([z[None, :], np.zeros((1, k), np.uint8), eye,
                                removals])
        ll = _row_log_likelihood(row, candidates, u, r, epsilon)
        if (ll[1:] > ll[0] + LL_SLACK).any():
            problems.append(f"scored app {i}: empty set, a singleton or a "
                            "single removal has a higher likelihood")
    if not np.array_equal(z_batch, z_single[batch_rows]):
        problems.append("batch assignments differ from single-app results")
    recon = (z_single.astype(np.int64) @ u.astype(np.int64)) > 0
    hamming = int(np.count_nonzero(recon != x.astype(bool)))
    total = int(np.sum(rates.fn_per_app) + np.sum(rates.fp_per_app))
    if total != hamming:
        problems.append(f"error_rates fn+fp total {total} != Hamming {hamming}")
    return problems
