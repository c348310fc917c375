"""Seeded synthetic ratings in the MovieLens `user::item::rating::timestamp` form.

The benchmark owns this generator so that the program under test sees
nothing but the text file, exactly as `diffcf prepare` would. Per-user
activity is log-normal (clipped below, as MovieLens keeps only users
with at least 20 ratings), item popularity follows a Zipf law over a
random ranking of the catalog, and each user's items are drawn without
replacement in proportion to popularity (Gumbel top-n). Raw ids are
sparse integers, so the parser's remapping does real work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

# Star-rating mix of the ML-1M release, 1..5 stars.
_RATING_P = (0.056, 0.108, 0.261, 0.349, 0.226)
_CHUNK = 256


@dataclass(frozen=True)
class Shape:
    users: int
    items: int
    median_items: float  # median interactions per user
    sigma: float         # log-normal spread of per-user activity
    min_items: int
    max_share: float     # cap on a user's share of the catalog
    zipf: float          # popularity exponent over item rank


def user_counts(shape: Shape) -> np.ndarray:
    """Log-normal activity taken at evenly spaced quantiles and dealt to
    users in an order fixed by the shape. Every seed gets the same activity
    per user, so sizes, losses and costs do not drift with the seed; the
    seed decides what each user rates."""
    levels = ndtri((np.arange(shape.users) + 0.5) / shape.users)
    raw = shape.median_items * np.exp(shape.sigma * levels)
    cap = max(shape.min_items, int(shape.max_share * shape.items))
    counts = np.clip(np.rint(raw), shape.min_items, cap).astype(np.int64)
    return np.random.default_rng([shape.users, shape.items]).permutation(counts)


def draw(shape: Shape, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(user index, item index) pairs, grouped by user, no duplicates."""
    rng = np.random.default_rng([seed, shape.users, shape.items])
    counts = user_counts(shape)
    rank = rng.permutation(shape.items)
    # Smallest keys win: -log(popularity) minus Gumbel noise.
    cost = shape.zipf * np.log1p(rank.astype(np.float64))
    per_user = []
    for lo in range(0, shape.users, _CHUNK):
        n = counts[lo:lo + _CHUNK]
        keys = cost - rng.gumbel(size=(n.size, shape.items))
        top = np.argpartition(keys, n.max() - 1, axis=1)[:, :n.max()]
        for row, k in enumerate(n):
            cand = top[row]
            per_user.append(cand[np.argsort(keys[row, cand], kind="stable")[:k]])
    # Every catalog item is rated at least once: unseen items are dealt to
    # users in turn, so the long tail holds single ratings spread evenly.
    seen = np.zeros(shape.items, dtype=bool)
    for items in per_user:
        seen[items] = True
    unseen = np.flatnonzero(~seen)
    for user in range(min(shape.users, unseen.size)):
        per_user[user] = np.append(per_user[user], unseen[user::shape.users])
    counts = np.array([items.size for items in per_user])
    users = np.repeat(np.arange(shape.users), counts)
    return users, np.concatenate(per_user)


def write_ratings(path, shape: Shape, seed: int) -> int:
    """Write the ratings file for `seed`; returns the number of lines."""
    users, items = draw(shape, seed)
    rng = np.random.default_rng([seed, 1])
    user_ids = 1 + rng.permutation(shape.users)
    item_ids = 1 + np.sort(rng.choice(int(shape.items * 1.07) + 1, shape.items,
                                      replace=False))
    ratings = 1 + rng.choice(5, size=users.size, p=_RATING_P)
    start = rng.integers(956_703_932, 1_046_454_590, size=shape.users)
    stamps = start[users] + rng.integers(0, 86_400 * 30, size=users.size)
    lines = map("{}::{}::{}::{}".format, user_ids[users].tolist(),
                item_ids[items].tolist(), ratings.tolist(), stamps.tolist())
    with open(path, "w", encoding="ascii") as f:
        f.write("\n".join(lines))
        f.write("\n")
    return int(users.size)
