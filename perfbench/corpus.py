"""Synthetic app corpora drawn from the paper's generative model.

Every app requests the union of the permission patterns assigned to it
(an OR of ANDs); each matrix entry is then, with probability ``epsilon``,
replaced by a Bernoulli(``r``) noise draw.  The generator is written
against numpy alone so that the benchmark never asks the program under
test to make its own inputs.  The same seed always gives the same corpus.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FACEBOOK_PERMISSIONS = (
    "ads_management", "create_event", "email", "friends_about_me",
    "friends_birthday", "friends_checkins", "friends_events",
    "friends_likes", "friends_location", "friends_photos", "friends_status",
    "manage_friendlists", "manage_notifications", "manage_pages",
    "offline_access", "photo_upload", "publish_actions", "publish_checkins",
    "publish_stream", "read_friendlists", "read_insights", "read_mailbox",
    "read_requests", "read_stream", "rsvp_event", "share_item", "sms",
    "status_update", "user_about_me", "user_activities", "user_birthday",
    "user_checkins", "user_education_history", "user_events", "user_groups",
    "user_hometown", "user_interests", "user_likes", "user_location",
    "user_photos",
)

FACEBOOK_CATEGORIES = ("Games", "Entertainment", "Lifestyle", "Utilities",
                       "Education", "Sports", "Business", "Just For Fun")

FACEBOOK_EPSILON, FACEBOOK_R = 0.02, 0.5

ANDROID_D = 130
ANDROID_K = 30
ANDROID_CATEGORIES = 30
ANDROID_EPSILON, ANDROID_R = 0.02, 0.02
# power-law pattern popularity: the long tail of permission frequencies
ANDROID_POPULARITY = 0.16 / np.arange(1, ANDROID_K + 1) ** 0.6
# 250 distinct paid price points from $0.49 to about $200, plus free
ANDROID_PRICES = tuple(
    sorted({round(float(p), 2) for p in
            np.round(np.geomspace(0.49, 199.99, 250), 2)})
)


@dataclass(frozen=True)
class Corpus:
    """One generated dataset, with the truth it was drawn from."""

    x: np.ndarray            # (N, D) uint8 observed requests
    u: np.ndarray            # (K, D) uint8 planted patterns
    permissions: tuple       # column names, in column order
    categories: tuple        # per app
    prices: tuple            # per app, as written to the file (str)
    ratings: tuple           # per app avg rating (str, "" when unrated)
    counts: np.ndarray       # per app number of ratings
    epsilon: float           # planted noise share of high-reputation apps
    r: float                 # planted noise request rate


def _planted_patterns(rng, sizes, d: int, max_overlap: int) -> np.ndarray:
    """Patterns of the given sizes, any two sharing <= max_overlap.

    Sizes are fixed rather than drawn so that the cost of fitting and
    scoring varies less from seed to seed.
    """
    u = np.zeros((len(sizes), d), dtype=np.uint8)
    for row, size in enumerate(sizes):
        while True:
            cand = np.zeros(d, dtype=np.uint8)
            cand[rng.choice(d, size=size, replace=False)] = 1
            if all(int((cand & u[j]).sum()) <= max_overlap for j in range(row)):
                u[row] = cand
                break
    return u


def _or_of_ands(z: np.ndarray, u: np.ndarray) -> np.ndarray:
    # float32 sums of at most K ones are exact
    return ((z.astype(np.float32) @ u.astype(np.float32)) > 0).astype(np.uint8)


def _noisy(rng, clean: np.ndarray, epsilon: float, r: float) -> np.ndarray:
    mask = rng.random(clean.shape) < epsilon
    noise = (rng.random(clean.shape) < r).astype(np.uint8)
    return np.where(mask, noise, clean).astype(np.uint8)


def _facebook_requests(rng, u: np.ndarray, n: int) -> np.ndarray:
    z = (rng.random((n, u.shape[0])) < 0.3).astype(np.uint8)
    return _noisy(rng, _or_of_ands(z, u), FACEBOOK_EPSILON, FACEBOOK_R)


def facebook(seed, n: int, k: int = 5,
             tiers: tuple = (0.4, 0.4, 0.2)) -> Corpus:
    """Facebook-shaped corpus: 40 permissions, K disjoint planted patterns.

    ``tiers`` gives the shares of high-reputation (rating >= 4, >= 100
    ratings), low-reputation (< 10 ratings) and in-between apps.  Each app
    takes each pattern with probability 0.3.  All apps carry epsilon = 0.02
    noise with r = 0.5; low-reputation apps also request each off-pattern
    permission with probability 0.08.
    """
    rng = np.random.default_rng(seed)
    d = len(FACEBOOK_PERMISSIONS)
    u = _planted_patterns(rng, [4 + i % 4 for i in range(k)], d, max_overlap=0)
    x = _facebook_requests(rng, u, n)
    tier = rng.choice(3, size=n, p=tiers)   # 0 high, 1 low, 2 mid
    extra = (rng.random((n, d)) < 0.08).astype(np.uint8)
    x = np.where((tier == 1)[:, None], x | extra, x).astype(np.uint8)

    counts = np.empty(n, dtype=np.int64)
    ratings = np.empty(n, dtype=float)
    high, low, mid = tier == 0, tier == 1, tier == 2
    counts[high] = 100 + rng.lognormal(5.0, 1.5, high.sum()).astype(np.int64)
    ratings[high] = rng.uniform(4.0, 5.0, high.sum())
    counts[low] = rng.integers(0, 10, low.sum())
    ratings[low] = rng.uniform(1.0, 5.0, low.sum())
    counts[mid] = rng.integers(10, 5000, mid.sum())
    ratings[mid] = rng.uniform(1.0, 3.95, mid.sum())
    cats = rng.choice(len(FACEBOOK_CATEGORIES), size=n)
    return Corpus(
        x=x, u=u, permissions=FACEBOOK_PERMISSIONS,
        categories=tuple(FACEBOOK_CATEGORIES[c] for c in cats.tolist()),
        prices=("0",) * n,
        ratings=tuple("" if c == 0 else f"{v:.2f}"
                      for c, v in zip(counts.tolist(), ratings.tolist())),
        counts=counts, epsilon=FACEBOOK_EPSILON, r=FACEBOOK_R,
    )


def facebook_apps(seed, u: np.ndarray, n: int) -> np.ndarray:
    """``n`` more high-reputation apps drawn from the patterns ``u`` of a
    Facebook corpus."""
    return _facebook_requests(np.random.default_rng(seed), u, n)


def _android_requests(rng, u: np.ndarray, n: int) -> np.ndarray:
    z = (rng.random((n, ANDROID_K)) < ANDROID_POPULARITY).astype(np.uint8)
    return _noisy(rng, _or_of_ands(z, u), ANDROID_EPSILON, ANDROID_R)


def android_apps(seed, u: np.ndarray, n: int) -> np.ndarray:
    """``n`` more apps drawn from the patterns ``u`` of an Android corpus."""
    return _android_requests(np.random.default_rng(seed), u, n)


def android(seed, n: int = 188_389) -> Corpus:
    """Android-shaped corpus at the paper's scale.

    130 permissions and 30 sparse planted patterns of 2..6 permissions each;
    pattern k is taken by an app with probability 0.16 / k^0.6, so apps hold
    1.3 patterns on average and permission frequencies have a long tail.
    70 % of apps are free and the rest draw one of 250 price points; rating
    counts are log-normal with a 25 % mass of unrated apps; 30 categories.
    """
    rng = np.random.default_rng(seed)
    d, k = ANDROID_D, ANDROID_K
    u = _planted_patterns(rng, [2 + i % 5 for i in range(k)], d, max_overlap=2)
    x = _android_requests(rng, u, n)
    # every permission is requested by some app, so D is always 130
    x[rng.choice(n, size=d, replace=False), np.arange(d)] = 1

    paid = rng.random(n) < 0.3
    price_idx = rng.integers(0, len(ANDROID_PRICES), n)
    labels = [f"{p:.2f}" for p in ANDROID_PRICES]
    prices = tuple(labels[i] if p else "0"
                   for p, i in zip(paid.tolist(), price_idx.tolist()))
    counts = np.where(rng.random(n) < 0.25, 0,
                      rng.lognormal(3.0, 2.0, n).astype(np.int64) + 1)
    rating_vals = np.clip(rng.normal(3.9, 0.6, n), 1.0, 5.0)
    cats = rng.integers(0, ANDROID_CATEGORIES, n)
    return Corpus(
        x=x, u=u,
        permissions=tuple(f"android.permission.P{j:03d}" for j in range(d)),
        categories=tuple(f"CATEGORY_{c:02d}" for c in cats.tolist()),
        prices=prices,
        ratings=tuple("" if c == 0 else f"{v:.2f}"
                      for c, v in zip(counts.tolist(), rating_vals.tolist())),
        counts=counts, epsilon=ANDROID_EPSILON, r=ANDROID_R,
    )


def round_seed(seed: int, index: int) -> int:
    """The ``--seed`` the CLI gets in round ``index`` of a run: the rounds'
    fits start from unrelated initial states."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def write_csv(corpus: Corpus, path) -> None:
    """Write the corpus in the program's CSV input schema."""
    x = corpus.x
    rows, cols = np.nonzero(x)
    flat = [corpus.permissions[j] for j in cols.tolist()]
    bounds = np.searchsorted(rows, np.arange(x.shape[0] + 1)).tolist()
    perms = [";".join(flat[a:b]) for a, b in zip(bounds, bounds[1:])]
    lines = ["id,name,category,price,avg_rating,num_ratings,permissions"]
    lines += [f"app{i:06d},App {i},{cat},{price},{rating},{count},{p}"
              for i, (cat, price, rating, count, p) in enumerate(zip(
                  corpus.categories, corpus.prices, corpus.ratings,
                  corpus.counts.tolist(), perms))]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
