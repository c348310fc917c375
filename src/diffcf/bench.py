"""Empirical probes for the two scalability claims.

1. Training cost should grow linearly in max(num_users, num_items): the
   only layers touching catalog-sized axes are the encoders/decoder, and
   everything inside attention runs at the fixed compressed size. The
   scaling bench times optimization steps on synthetic data across a
   size sweep, fits a line (reporting R^2), and fits a quadratic to show
   its second-order coefficient is statistically indistinguishable from
   zero.

2. Attention survives low-rank compression: projecting the softmax
   output and the value matrix through a shared k x n Gaussian map
   preserves their products. Per trial we compare one attention entry
   (softmax row dot value column) computed exactly against the same
   contraction through the projection, normalized by the operand norms.
   Projections are nested across k (rows of one Gaussian draw, rescaled)
   so the error curves are directly comparable per trial.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass

import numpy as np
from scipy import stats as sps

from . import camae, ndtensor as nd
from .dataset import InteractionMatrix, dense_rows
from .errors import ContractError
from .graph import build_contexts
from .schedule import build_schedule
from .train import TrainConfig, train_step


def synth_interactions(num_users: int, num_items: int, sparsity: float,
                       seed: int = 0) -> InteractionMatrix:
    """Random bipartite interactions: each (user, item) pair is present
    independently with probability 1 - sparsity. Users that come up empty
    are redrawn once; still-empty users are dropped (with renumbering)."""
    if not 0.0 <= sparsity < 1.0:
        raise ContractError(f"sparsity must lie in [0, 1), got {sparsity}")
    if num_users < 1 or num_items < 1:
        raise ContractError("need at least one user and one item")
    rng = np.random.default_rng(seed)
    p = 1.0 - sparsity
    rows: list[np.ndarray] = []
    for _ in range(num_users):
        n = rng.binomial(num_items, p)
        if n == 0:
            n = rng.binomial(num_items, p)
        if n == 0:
            continue
        rows.append(np.sort(rng.choice(num_items, size=n, replace=False)))
    if not rows:
        raise ContractError("all synthetic users were empty; lower the sparsity")
    indptr = np.zeros(len(rows) + 1, dtype=np.uint64)
    np.cumsum([len(r) for r in rows], out=indptr[1:])
    indices = np.concatenate(rows).astype(np.uint32)
    return InteractionMatrix(len(rows), num_items, indptr, indices,
                             np.zeros(indices.size, dtype=np.uint8))


# ------------------------------------------------------------- time scaling


@dataclass
class FitLine:
    slope: float
    intercept: float
    r2: float


@dataclass
class QuadFit:
    coef: float       # second-order coefficient on size/max(size)
    ci_low: float
    ci_high: float

    @property
    def indistinguishable_from_zero(self) -> bool:
        return self.ci_low <= 0.0 <= self.ci_high


@dataclass
class ScalingRun:
    axis: str
    sizes: tuple[int, ...]
    medians: list[float]
    samples: list[list[float]]
    linear: FitLine
    quadratic: QuadFit

    def to_csv(self) -> str:
        lines = ["size,median_seconds_per_iter," +
                 ",".join(f"iter{i}" for i in range(len(self.samples[0])))]
        for size, med, times in zip(self.sizes, self.medians, self.samples):
            lines.append(f"{size},{med:.6f}," + ",".join(f"{t:.6f}" for t in times))
        lines.append(f"# linear slope={self.linear.slope:.6e} "
                     f"intercept={self.linear.intercept:.6e} r2={self.linear.r2:.6f}")
        lines.append(f"# quadratic coef={self.quadratic.coef:.6e} "
                     f"ci=[{self.quadratic.ci_low:.6e},{self.quadratic.ci_high:.6e}]")
        return "\n".join(lines) + "\n"


def fit_line(x: np.ndarray, y: np.ndarray) -> FitLine:
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return FitLine(float(slope), float(intercept), r2)


def fit_quadratic_ci(x: np.ndarray, y: np.ndarray, confidence: float = 0.95) -> QuadFit:
    """Least-squares quadratic with a t-interval on the x^2 coefficient.
    x is rescaled to [0, 1] for conditioning; containment of zero is
    invariant under that rescaling."""
    if x.size < 4:
        raise ContractError("need at least 4 points to test the quadratic term")
    xs = x / x.max()
    design = np.stack([np.ones_like(xs), xs, xs * xs], axis=1)
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ beta
    dof = x.size - 3
    sigma2 = float(resid @ resid) / dof
    cov = sigma2 * np.linalg.inv(design.T @ design)
    se = math.sqrt(cov[2, 2])
    tcrit = float(sps.t.ppf(0.5 + confidence / 2.0, dof))
    return QuadFit(float(beta[2]), float(beta[2] - tcrit * se), float(beta[2] + tcrit * se))


_BENCH_MODEL = dict(latent_dim=64, attn_dim=8, layers=1, hops=3,
                    hop_weights=(0.7, 0.3))


def time_scaling(axis: str, sizes: tuple[int, ...], fixed_dim: int = 2048,
                 sparsity: float = 0.99, iters: int = 20, warmup: int = 3,
                 batch_size: int = 64, seed: int = 0,
                 model_overrides: dict | None = None) -> ScalingRun:
    """Median seconds per optimization step across a user- or item-count
    sweep, plus the linear/quadratic fits over the medians.

    All sizes are prepared first (graph, params, pre-materialized batches)
    and then timed together in interleaved rounds. Timing one size right
    after its own multi-second build phase lets slow machine-speed drift
    (frequency scaling, allocator state) line up with size and masquerade
    as curvature; interleaving confines the whole measurement to one short
    window that drift hits uniformly."""
    if axis not in ("users", "items"):
        raise ContractError(f"axis must be users or items, got {axis!r}")
    if len(sizes) < 2:
        raise ContractError("need at least two sizes to fit a line")
    if iters < 5 or warmup < 1:
        raise ContractError("need iters >= 5 and warmup >= 1")
    overrides = dict(_BENCH_MODEL)
    if model_overrides:
        overrides.update(model_overrides)
    sched = build_schedule(T=100)
    # Prepare largest-first so the big hop tables (freed once their batches
    # are materialized) never coexist with every other size's batches.
    prepared: dict[int, tuple] = {}
    for size in sorted(sizes, reverse=True):
        num_users, num_items = (size, fixed_dim) if axis == "users" else (fixed_dim, size)
        matrix = synth_interactions(num_users, num_items, sparsity, seed=seed)
        contexts = build_contexts(matrix, H=overrides["hops"])
        model_cfg = camae.CamAeConfig(num_users=matrix.num_users,
                                      num_items=num_items, **overrides)
        params = camae.init_params(model_cfg, seed=seed)
        adam = nd.init_adam(params, lr=1e-4)
        rng = np.random.default_rng([seed, size])
        batches = []
        for it in range(warmup + iters):
            users = rng.integers(0, matrix.num_users, size=batch_size)
            u0 = dense_rows(matrix, users)
            ctx = {h: contexts.batch_rows(users, h) for h in model_cfg.hop_list}
            t = rng.integers(1, sched.T + 1, size=batch_size)
            noise = rng.standard_normal(u0.shape).astype(np.float32)
            batches.append((u0, ctx, t, noise))
        del contexts
        prepared[size] = (model_cfg, params, adam, batches)
    per_size: dict[int, list[float]] = {size: [] for size in sizes}
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        for it in range(warmup + iters):
            for size in sizes:
                model_cfg, params, adam, batches = prepared[size]
                u0, ctx, t, noise = batches[it]
                start = time.perf_counter()
                train_step(params, adam, model_cfg, sched, "vlb",
                           u0, ctx, t, noise)
                elapsed = time.perf_counter() - start
                if it >= warmup:
                    per_size[size].append(elapsed)
    finally:
        if gc_was_on:
            gc.enable()
    medians = [float(np.median(per_size[size])) for size in sizes]
    samples = [per_size[size] for size in sizes]
    x = np.asarray(sizes, dtype=np.float64)
    y = np.asarray(medians)
    return ScalingRun(axis, tuple(sizes), medians, samples,
                      fit_line(x, y), fit_quadratic_ci(x, y))


# ------------------------------------------------- attention low-rank probe


@dataclass
class ProbeResult:
    n: int
    d: int
    ks: tuple[int, ...]
    deviations: dict[int, np.ndarray]   # k -> per-trial deviations
    bound_k: int
    bound_eps: float
    bound_deviations: np.ndarray

    @property
    def medians(self) -> dict[int, float]:
        return {k: float(np.median(v)) for k, v in self.deviations.items()}

    @property
    def frac_within_bound(self) -> float:
        return float((self.bound_deviations <= self.bound_eps).mean())

    def to_csv(self) -> str:
        lines = ["k,median_deviation,frac_within_eps"]
        for k in self.ks:
            dev = self.deviations[k]
            lines.append(f"{k},{np.median(dev):.6f},{(dev <= self.bound_eps).mean():.4f}")
        lines.append(f"{self.bound_k},{np.median(self.bound_deviations):.6f},"
                     f"{self.frac_within_bound:.4f}")
        lines.append(f"# bound_k={self.bound_k} eps={self.bound_eps} n={self.n} d={self.d}")
        return "\n".join(lines) + "\n"


def projection_bound_k(n: int, eps: float) -> int:
    """Projection size at which a (1 +- eps) contraction guarantee kicks in:
    5 ln(n) / (eps^2 - eps^3)."""
    if n < 2 or not 0 < eps < 1:
        raise ContractError(f"need n >= 2 and eps in (0, 1), got n={n}, eps={eps}")
    return math.ceil(5.0 * math.log(n) / (eps * eps - eps ** 3))


def attention_approx_probe(n: int = 2048, d: int = 16,
                           ks: tuple[int, ...] = (32, 64, 128, 256),
                           trials: int = 50, eps: float = 0.5,
                           seed: int = 0) -> ProbeResult:
    """Per trial: draw attention inputs, take one softmax row p and one
    value column v, and measure |(Gp).(Gv) - p.v| / (|p| |v|) for nested
    Gaussian projections G of each requested size plus the bound size."""
    if min(ks) < 1 or trials < 1:
        raise ContractError("ks must be positive and trials >= 1")
    if d < 1:
        raise ContractError(f"need d >= 1, got d={d}")
    bound_k = projection_bound_k(n, eps)
    all_ks = tuple(sorted(set(ks)))
    kmax = max(max(all_ks), bound_k)
    rng = np.random.default_rng(seed)
    devs = {k: np.empty(trials) for k in all_ks}
    bound_devs = np.empty(trials)
    for trial in range(trials):
        q = rng.standard_normal((n, d))
        k_mat = rng.standard_normal((n, d))
        v = rng.standard_normal((n, d))
        logits = (q @ k_mat.T) / math.sqrt(d)
        row = logits[0]
        p = np.exp(row - row.max())
        p /= p.sum()
        col = v[:, 0]
        exact = float(p @ col)
        norm = float(np.linalg.norm(p) * np.linalg.norm(col))
        g = rng.standard_normal((kmax, n))
        gp = g @ p
        gv = g @ col
        prods = np.cumsum(gp * gv)  # prefix k rows => nested projections
        for k in all_ks:
            devs[k][trial] = abs(prods[k - 1] / k - exact) / norm
        bound_devs[trial] = abs(prods[bound_k - 1] / bound_k - exact) / norm
    return ProbeResult(n, d, all_ks, devs, bound_k, eps, bound_devs)
