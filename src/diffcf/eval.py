"""Inference and full-ranking evaluation.

Scoring corrupts each user's observed row T' steps forward, then walks
the reverse chain substituting the denoiser's reconstruction at every
step (no resampling unless explicitly asked). The final reconstruction
scores every item; observed inputs are masked out and the remainder is
ranked. Recall@K divides hits by min(K, #held-out); NDCG@K uses the
standard 1/log2(rank+1) gains against the ideal prefix. Users with no
held-out items are skipped. Ties in scores break toward the smaller
item id, deterministically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import camae
from .dataset import (InteractionMatrix, TAG_TRAIN, TAG_VAL, TAG_TEST, dense_rows,
                      item_popularity, users_with_tag)
from .errors import ContractError, NumericError
from .graph import HopContexts
from .schedule import NoiseSchedule, diffuse_to

_SPLIT_TAGS = {"val": TAG_VAL, "test": TAG_TEST}


def denoise_infer(params: dict, config: camae.CamAeConfig, sched: NoiseSchedule,
                  u_obs: np.ndarray, contexts: dict[int, np.ndarray],
                  infer_steps: int, rng: np.random.Generator | None = None,
                  stochastic: bool = False) -> np.ndarray:
    """Corrupt-then-denoise scores for a batch of observed rows.

    infer_steps = 0 skips corruption entirely and runs one denoiser pass
    at t = 1 on the clean input.
    """
    if not 0 <= infer_steps <= sched.T:
        raise ContractError(f"infer_steps must lie in 0..{sched.T}, got {infer_steps}")

    def denoise(u: np.ndarray, t: int) -> np.ndarray:
        _, _, out = camae.run_batch(params, config, u, contexts, t)
        return out.value

    if infer_steps == 0:
        scores = denoise(u_obs, 1)
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        noise = rng.standard_normal(u_obs.shape).astype(u_obs.dtype)
        u = diffuse_to(u_obs, infer_steps, sched, noise)
        for t in range(infer_steps, 0, -1):
            u = denoise(u, t)
            if stochastic and t >= 2:
                eps = rng.standard_normal(u.shape).astype(u.dtype)
                u = u + np.sqrt(sched.betas[t - 1]).astype(u.dtype) * eps
        scores = u
    if not np.isfinite(scores).all():
        raise NumericError("denoise_infer: non-finite scores")
    return scores


def rank_topk(scores: np.ndarray, exclude: np.ndarray, k: int) -> np.ndarray:
    """Top-k item ids per row after masking `exclude` (a bool matrix).
    Equal scores rank by item id, and masked items fill a short row last,
    in id order.

    Only the top k are sorted: a partition finds each row's k-th best
    score, the items at or above it are kept (dropping the highest ids
    among those tied with it when there are too many), and a stable sort
    on negated scores orders them."""
    if scores.shape != exclude.shape:
        raise ContractError(f"scores {scores.shape} vs exclude {exclude.shape}")
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    masked = scores.astype(np.float64, copy=True)
    if np.isnan(masked).any():
        raise ContractError("rank_topk: scores contain NaN")
    masked[exclude] = -np.inf
    width = masked.shape[1]
    k = min(k, width)
    kth = np.partition(masked, width - k, axis=1)[:, width - k]
    take = masked >= kth[:, None]
    excess = take.sum(axis=1) - k
    for row in np.flatnonzero(excess):
        tied = np.flatnonzero(masked[row] == kth[row])
        take[row, tied[tied.size - excess[row]:]] = False
    ids = np.nonzero(take)[1].reshape(-1, k)
    order = np.argsort(-np.take_along_axis(masked, ids, axis=1), axis=1, kind="stable")
    return np.take_along_axis(ids, order, axis=1).astype(np.int64)


def ranking_metrics(topk: np.ndarray, relevant: list[np.ndarray], k: int):
    """Per-user recall and NDCG at k. Users with empty `relevant` get NaN
    and are excluded by the caller's averaging."""
    if topk.shape[0] != len(relevant):
        raise ContractError(f"{topk.shape[0]} ranked rows vs {len(relevant)} users")
    k = min(k, topk.shape[1])
    gains = 1.0 / np.log2(np.arange(2, k + 2))
    ideal = np.concatenate([[0.0], np.cumsum(gains)])
    recall = np.full(len(relevant), np.nan)
    ndcg = np.full(len(relevant), np.nan)
    for row, rel in enumerate(relevant):
        if len(rel) == 0:
            continue
        hits = np.isin(topk[row, :k], rel)
        recall[row] = hits.sum() / min(k, len(rel))
        ndcg[row] = gains[hits].sum() / ideal[min(k, len(rel))]
    return recall, ndcg


@dataclass
class MetricsReport:
    split: str
    num_users: int        # users actually scored (held-out non-empty)
    ks: tuple[int, ...]
    recall: dict[int, float]
    ndcg: dict[int, float]
    scorer: str = "model"

    def to_json(self) -> str:
        return json.dumps({
            "split": self.split,
            "scorer": self.scorer,
            "num_users": self.num_users,
            "recall": {str(k): self.recall[k] for k in self.ks},
            "ndcg": {str(k): self.ndcg[k] for k in self.ks},
        }, sort_keys=True)

    def format_text(self) -> str:
        lines = [f"{self.scorer} on {self.split} ({self.num_users} users)"]
        header = f"{'k':>6} {'recall':>10} {'ndcg':>10}"
        lines.append(header)
        for k in self.ks:
            lines.append(f"{k:>6} {self.recall[k]:>10.4f} {self.ndcg[k]:>10.4f}")
        return "\n".join(lines)


def _input_tags(split: str, include_val: bool):
    if split == "test":
        return (TAG_TRAIN, TAG_VAL) if include_val else (TAG_TRAIN,)
    return (TAG_TRAIN,)


def evaluate_scores(score_fn, matrix: InteractionMatrix, split: str,
                    ks: tuple[int, ...], include_val: bool = True,
                    batch_size: int = 128, scorer: str = "model") -> MetricsReport:
    """Shared ranking loop: `score_fn(users, u_obs)` returns score rows."""
    if split not in _SPLIT_TAGS:
        raise ContractError(f"split must be val or test, got {split!r}")
    if not ks or min(ks) < 1:
        raise ContractError(f"cutoffs must be positive: {ks}")
    target = _SPLIT_TAGS[split]
    tags_in = _input_tags(split, include_val)
    users = users_with_tag(matrix, target)
    if users.size == 0:
        raise ContractError(f"no users hold {split} items")
    kmax = max(ks)
    sums = {k: np.zeros(2) for k in ks}
    counted = 0
    for lo in range(0, users.size, batch_size):
        batch = users[lo:lo + batch_size]
        u_obs = dense_rows(matrix, batch, tags=tags_in)
        scores = score_fn(batch, u_obs)
        top = rank_topk(scores, u_obs > 0, kmax)
        relevant = [matrix.user_items(u, target) for u in batch]
        for k in ks:
            recall, ndcg = ranking_metrics(top, relevant, k)
            keep = ~np.isnan(recall)
            sums[k] += (recall[keep].sum(), ndcg[keep].sum())
        counted += sum(1 for r in relevant if len(r))
    return MetricsReport(
        split=split, num_users=counted, ks=tuple(ks),
        recall={k: float(sums[k][0] / counted) for k in ks},
        ndcg={k: float(sums[k][1] / counted) for k in ks},
        scorer=scorer)


def evaluate(params: dict, config: camae.CamAeConfig, sched: NoiseSchedule,
             matrix: InteractionMatrix, contexts: HopContexts, split: str = "test",
             ks: tuple[int, ...] = (10, 20), infer_steps: int = 10,
             infer_seed: int = 0, stochastic: bool = False,
             include_val: bool = True, batch_size: int = 128) -> MetricsReport:
    """Full-ranking metrics for the trained denoiser on a held-out split."""

    def score_fn(users: np.ndarray, u_obs: np.ndarray) -> np.ndarray:
        ctx = {h: contexts.batch_rows(users, h) for h in config.hop_list}
        rng = np.random.default_rng([infer_seed, int(users[0])])
        return denoise_infer(params, config, sched, u_obs, ctx,
                             infer_steps, rng=rng, stochastic=stochastic)

    return evaluate_scores(score_fn, matrix, split, ks, include_val, batch_size)


def popularity_report(matrix: InteractionMatrix, split: str = "test",
                      ks: tuple[int, ...] = (10, 20), include_val: bool = True,
                      batch_size: int = 128) -> MetricsReport:
    """Rank items by train-set interaction count: the floor any learned
    scorer has to clear."""
    pop = item_popularity(matrix).astype(np.float64)

    def score_fn(users: np.ndarray, u_obs: np.ndarray) -> np.ndarray:
        return np.broadcast_to(pop, (len(users), pop.size)).copy()

    return evaluate_scores(score_fn, matrix, split, ks, include_val,
                           batch_size, scorer="popularity")
