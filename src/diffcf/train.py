"""Training: denoising objective, epoch loop, and the fit driver.

Each step draws one timestep per user uniformly from 1..T, corrupts the
user's clean interaction row to that step in closed form, and regresses
the denoiser's reconstruction onto the exact reverse-posterior mean
(which collapses to the clean row itself at t = 1). The "vlb" weighting
scales each t >= 2 user's squared error by 1/(2 beta_t); "simple" leaves
every term at weight 1. The batch loss is the mean of the per-user
terms, implemented by row-scaling both sides with sqrt(weight/batch)
before a single sum-of-squares node.

Reproducibility: every epoch reseeds from (train_seed, epoch), so a
resumed run continues bit-for-bit identically to an uninterrupted one.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import camae, eval as evaluation, ndtensor as nd
from .dataset import InteractionMatrix, dense_rows
from .errors import ContractError, NumericError
from .graph import HopContexts
from .schedule import NoiseSchedule, _check_t, diffuse_with_target

WEIGHTINGS = ("vlb", "simple")


def step_weights(t: np.ndarray, sched: NoiseSchedule, weighting: str) -> np.ndarray:
    """Per-user loss weights for a vector of sampled timesteps."""
    if weighting not in WEIGHTINGS:
        raise ContractError(f"weighting must be one of {WEIGHTINGS}, got {weighting!r}")
    w = np.ones(t.shape, dtype=np.float64)
    if weighting == "vlb":
        ge2 = t >= 2
        w[ge2] = 1.0 / (2.0 * sched.betas[t[ge2] - 1])
    return w


@dataclass
class TrainConfig:
    batch_size: int = 128
    lr: float = 3e-4
    epochs: int = 200
    weighting: str = "vlb"
    seed: int = 0
    eval_every: int = 5
    patience: int = 10
    max_hours: float = 0.0
    infer_steps: int = 10
    infer_seed: int = 0
    stochastic_infer: bool = False
    eval_batch: int = 128
    monitor_k: int = 10

    def __post_init__(self):
        if min(self.batch_size, self.epochs, self.patience, self.eval_batch) < 1:
            raise ContractError("batch_size, epochs, patience, eval_batch must be >= 1")
        if self.lr <= 0:
            raise ContractError(f"lr must be positive, got {self.lr}")
        if self.weighting not in WEIGHTINGS:
            raise ContractError(f"weighting must be one of {WEIGHTINGS}")
        if self.eval_every < 1:
            raise ContractError("eval_every must be >= 1")
        if not self.max_hours >= 0:
            raise ContractError(f"max_hours must be >= 0, got {self.max_hours}")


def batch_loss(tape: nd.Tape, leaves: dict[str, nd.Node], model_cfg: camae.CamAeConfig,
               sched: NoiseSchedule, weighting: str, u0: np.ndarray,
               contexts: dict[int, np.ndarray], t: np.ndarray,
               noise: np.ndarray) -> nd.Node:
    """Record the denoising loss of one batch on `tape`, with the model's
    parameters bound as `leaves`; returns the scalar loss node."""
    batch = u0.shape[0]
    t = _check_t(t, sched.T)
    scale = np.sqrt(step_weights(t, sched, weighting) / batch).astype(u0.dtype)
    # target is the posterior mean (u0 exactly at t = 1), scaled like mu
    u_t, target = diffuse_with_target(u0, t, sched, noise, scale)
    mu = camae.camae_forward(tape, leaves, model_cfg, u_t, contexts, t)
    mu_scaled = tape.record("scale", mu, factor=scale[:, None])
    return tape.record("mse", mu_scaled, tape.leaf(target))


def train_step(params: dict, adam: nd.AdamState, model_cfg: camae.CamAeConfig,
               sched: NoiseSchedule, weighting: str, u0: np.ndarray,
               contexts: dict[int, np.ndarray], t: np.ndarray,
               noise: np.ndarray) -> float:
    """One optimization step on a prepared batch; returns the batch loss."""
    tape = nd.Tape()
    leaves = {name: tape.leaf(value, trainable=True) for name, value in params.items()}
    loss_node = batch_loss(tape, leaves, model_cfg, sched, weighting, u0, contexts, t, noise)

    loss = float(loss_node.value)
    if not np.isfinite(loss):
        raise NumericError(f"train_step: non-finite loss {loss}")
    grads_by_leaf = tape.backward(loss_node)
    grads = {name: grads_by_leaf[leaf] for name, leaf in leaves.items()}
    nd.adam_step(params, grads, adam)
    return loss


@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    batches: int
    seconds: float


def _gather_batch(matrix: InteractionMatrix, contexts: HopContexts,
                  model_cfg: camae.CamAeConfig, users: np.ndarray):
    u0 = dense_rows(matrix, users)
    ctx = {h: contexts.batch_rows(users, h) for h in model_cfg.hop_list}
    return u0, ctx


def train_epoch(params: dict, adam: nd.AdamState, model_cfg: camae.CamAeConfig,
                train_cfg: TrainConfig, sched: NoiseSchedule,
                matrix: InteractionMatrix, contexts: HopContexts,
                epoch: int) -> EpochStats:
    """One pass over all users in shuffled batches. Timesteps are sampled
    uniformly from 1..T per user; noise is fresh per (seed, epoch)."""
    rng = np.random.default_rng([train_cfg.seed, epoch])
    order = rng.permutation(matrix.num_users)
    total = 0.0
    batches = 0
    started = time.perf_counter()
    for lo in range(0, order.size, train_cfg.batch_size):
        users = order[lo:lo + train_cfg.batch_size]
        u0, ctx = _gather_batch(matrix, contexts, model_cfg, users)
        t = rng.integers(1, sched.T + 1, size=users.size)
        noise = rng.standard_normal(u0.shape).astype(u0.dtype)
        total += train_step(params, adam, model_cfg, sched, train_cfg.weighting,
                            u0, ctx, t, noise)
        batches += 1
    return EpochStats(epoch, total / batches, batches, time.perf_counter() - started)


def gradcheck_case(model_cfg: camae.CamAeConfig, sched: NoiseSchedule,
                   weighting: str = "vlb", batch: int = 6, data_seed: int = 0,
                   eps: float = 1e-3, max_entries: int = 200) -> nd.GradCheckReport:
    """Finite-difference check of the full training loss on a small random
    batch. Data and targets are float64 constants; parameters are cast to
    float64 inside the checker. t = 1 and t = T are always represented so
    both loss branches get exercised."""
    if batch < 1:
        raise ContractError(f"gradcheck: batch must be >= 1, got {batch}")
    rng = np.random.default_rng(data_seed)
    items = model_cfg.num_items
    u0 = (rng.random((batch, items)) < 0.4).astype(np.float64)
    for row in np.flatnonzero(u0.sum(axis=1) == 0):
        u0[row, rng.integers(items)] = 1.0
    contexts = {}
    for h in model_cfg.hop_list:
        raw = rng.random((batch, model_cfg.hop_dim(h))) + 0.05
        contexts[h] = raw / raw.sum(axis=1, keepdims=True)
    t = rng.integers(1, sched.T + 1, size=batch)
    if batch >= 2:
        t[0], t[1] = 1, sched.T
    noise = rng.standard_normal(u0.shape)
    params = camae.init_params(model_cfg, seed=data_seed)

    def build(tape: nd.Tape, leaves: dict[str, nd.Node]) -> nd.Node:
        return batch_loss(tape, leaves, model_cfg, sched, weighting, u0, contexts, t, noise)

    return nd.gradient_check(build, params, eps=eps, max_entries=max_entries,
                             seed=data_seed)


@dataclass
class FitResult:
    history: list[dict] = field(default_factory=list)
    best_epoch: int = 0
    best_metric: float = -np.inf
    stopped_reason: str = ""
    checkpoint_path: str | None = None
    last_path: str | None = None


def fit(params: dict, model_cfg: camae.CamAeConfig, train_cfg: TrainConfig,
        sched: NoiseSchedule, matrix: InteractionMatrix, contexts: HopContexts,
        config_text: str = "", checkpoint_path=None, log_path=None,
        adam: nd.AdamState | None = None, start_epoch: int = 1,
        quiet: bool = True, fit_state: dict[str, float] | None = None) -> FitResult:
    """Epoch loop with periodic validation, early stopping on NDCG@k, an
    optional wall-clock budget, and best-checkpoint saving. After every
    epoch the parameters, Adam state and fit state go to `last.cfck`
    beside the checkpoint, so a run that is killed loses at most the epoch
    it was in, and one that ends keeps its final state. A resumed run passes
    the `fit_state` saved with its checkpoint (`nd.load_fit_state`), so it
    beats the stored best before it overwrites the checkpoint, and patience
    counts on from where it stopped. The log at `log_path` gets one line
    per epoch; a run that starts at epoch 1 replaces it, a resumed one
    appends to it."""
    if not 0 <= train_cfg.infer_steps <= sched.T:
        raise ContractError(
            f"infer_steps must lie in 0..{sched.T}, got {train_cfg.infer_steps}")
    if adam is None:
        adam = nd.init_adam(params, lr=train_cfg.lr)
    result = FitResult()
    stale = 0
    if fit_state is not None:
        result.best_metric = fit_state["best_metric"]
        result.best_epoch = int(fit_state["best_epoch"])
        stale = int(fit_state["stale"])
    log_f = open(log_path, "a" if start_epoch > 1 else "w",
                 encoding="utf-8") if log_path else None
    deadline = time.monotonic() + train_cfg.max_hours * 3600.0 \
        if train_cfg.max_hours > 0 else None

    def save(path) -> str:
        nd.save_checkpoint(path, params, config_text, sched.fields(), adam=adam,
                           fit={"best_metric": result.best_metric,
                                "best_epoch": result.best_epoch, "stale": stale})
        return str(path)

    try:
        for epoch in range(start_epoch, train_cfg.epochs + 1):
            stats = train_epoch(params, adam, model_cfg, train_cfg, sched,
                                matrix, contexts, epoch)
            record = {"epoch": epoch, "loss": stats.mean_loss,
                      "seconds": round(stats.seconds, 3)}
            run_eval = (epoch % train_cfg.eval_every == 0) or epoch == train_cfg.epochs
            if deadline is not None and time.monotonic() >= deadline:
                run_eval = True
            if run_eval:
                report = evaluation.evaluate(
                    params, model_cfg, sched, matrix, contexts, split="val",
                    ks=(train_cfg.monitor_k,), infer_steps=train_cfg.infer_steps,
                    infer_seed=train_cfg.infer_seed, stochastic=train_cfg.stochastic_infer,
                    batch_size=train_cfg.eval_batch, include_val=False)
                metric = report.ndcg[train_cfg.monitor_k]
                record[f"val_ndcg@{train_cfg.monitor_k}"] = metric
                if metric > result.best_metric:
                    result.best_metric = metric
                    result.best_epoch = epoch
                    stale = 0
                    if checkpoint_path is not None:
                        result.checkpoint_path = save(checkpoint_path)
                else:
                    stale += 1
            result.history.append(record)
            if log_f:
                log_f.write(json.dumps(record, sort_keys=True) + "\n")
                log_f.flush()
            if not quiet:
                print(json.dumps(record, sort_keys=True))
            if checkpoint_path is not None:
                result.last_path = save(Path(checkpoint_path).with_name("last.cfck"))
            if stale >= train_cfg.patience:
                result.stopped_reason = f"no val improvement in {stale} evals"
                break
            if deadline is not None and time.monotonic() >= deadline:
                result.stopped_reason = f"hit {train_cfg.max_hours}h budget"
                break
        else:
            result.stopped_reason = "completed all epochs"
    finally:
        if log_f:
            log_f.close()
    return result
