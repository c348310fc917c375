"""Gaussian corruption schedule and its closed-form marginals.

The forward chain multiplies signal by sqrt(1 - beta_t) and adds
sqrt(beta_t) noise at each step t = 1..T. All tables are float64;
outputs are cast back to the input dtype so float32 model code stays
float32. Timestep indices are 1-based everywhere (t = 0 is the clean
signal), and `alpha_bars[t]` is the cumulative product through step t
with the convenience entry alpha_bars[0] = 1. The betas run linearly from
scale * beta_min to scale * beta_max: as in DiffRec, the noise scale
multiplies both ends.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericError


@dataclass(frozen=True)
class NoiseSchedule:
    T: int
    beta_min: float
    beta_max: float
    scale: float
    betas: np.ndarray       # shape (T,), betas[t-1] is step t
    alphas: np.ndarray      # 1 - betas
    alpha_bars: np.ndarray  # shape (T+1,), cumulative alphas, [0] = 1

    def fields(self) -> tuple[int, float, float, float]:
        return (self.T, self.beta_min, self.beta_max, self.scale)


def build_schedule(T: int, beta_min: float = 1e-4, beta_max: float = 0.02,
                   scale: float = 1.0) -> NoiseSchedule:
    if T < 1:
        raise ContractError(f"schedule needs T >= 1, got {T}")
    lo, hi = scale * beta_min, scale * beta_max
    if not (0.0 < lo <= hi < 1.0):
        raise ContractError(f"betas must satisfy 0 < {lo} <= {hi} < 1")
    betas = np.linspace(lo, hi, T, dtype=np.float64)
    alphas = 1.0 - betas
    alpha_bars = np.concatenate([[1.0], np.cumprod(alphas)])
    betas.setflags(write=False)
    alphas.setflags(write=False)
    alpha_bars.setflags(write=False)
    return NoiseSchedule(T, beta_min, beta_max, scale, betas, alphas, alpha_bars)


def _check_t(t, T: int) -> np.ndarray:
    t = np.asarray(t, dtype=np.int64)
    if t.ndim > 1:
        raise ContractError(f"t must be a scalar or 1-D vector, got shape {t.shape}")
    if (t < 1).any() or (t > T).any():
        raise ContractError(f"t out of range 1..{T}: {t}")
    return t


def _cols(coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Shape a per-timestep coefficient so it scales rows of a batch."""
    if coef.ndim == 0 or x.ndim == 1:
        return coef
    return coef.reshape(-1, 1)


def diffuse_to(u0: np.ndarray, t, sched: NoiseSchedule,
               noise: np.ndarray) -> np.ndarray:
    """Jump straight to step t: sqrt(abar_t) * u0 + sqrt(1-abar_t) * eps."""
    u0 = np.asarray(u0)
    t = _check_t(t, sched.T)
    ab = sched.alpha_bars[t]
    out = _cols(np.sqrt(ab), u0) * u0 + _cols(np.sqrt(1.0 - ab), u0) * noise
    return out.astype(u0.dtype)


def _posterior_coefs(t: np.ndarray, sched: NoiseSchedule):
    denom = 1.0 - sched.alpha_bars[t]
    if np.any(denom < 1e-12):
        raise NumericError(f"posterior_mean: 1 - abar_t vanishes at t={t}")
    b = sched.betas[t - 1]
    c0 = np.sqrt(sched.alpha_bars[t - 1]) * b / denom
    c1 = np.sqrt(sched.alphas[t - 1]) * (1.0 - sched.alpha_bars[t - 1]) / denom
    return c0, c1


def posterior_mean(u_t: np.ndarray, u0: np.ndarray, t,
                   sched: NoiseSchedule) -> np.ndarray:
    """Mean of the exact reverse conditional given the clean signal.

    (sqrt(abar_{t-1}) * beta_t * u0 + sqrt(alpha_t) * (1 - abar_{t-1}) * u_t)
    divided by (1 - abar_t). At t = 1 this collapses to u0 exactly.
    """
    u_t = np.asarray(u_t)
    c0, c1 = _posterior_coefs(_check_t(t, sched.T), sched)
    out = _cols(c0, u_t) * np.asarray(u0) + _cols(c1, u_t) * u_t
    return out.astype(u_t.dtype)


def diffuse_with_target(u0: np.ndarray, t, sched: NoiseSchedule, noise: np.ndarray,
                        row_scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`diffuse_to` of a 2-D batch with one timestep per row, and its
    `posterior_mean` with each row multiplied by `row_scale` (of u0's
    dtype): bit for bit (u_t, posterior_mean(u_t, u0, t) * row_scale[:, None]).

    Both are blended one row at a time in float64 through two scratch rows,
    and rounded once, in place of whole-batch float64 temporaries, whose
    cost per element grows with the batch once they leave the cache; so the
    cost of a batch is a part per row plus a part per element at any width,
    and the posterior reads u_t and u0 while they are still in cache."""
    u0, noise, t = np.asarray(u0), np.asarray(noise), _check_t(t, sched.T)
    if u0.ndim != 2 or noise.shape != u0.shape or t.shape != (len(u0),):
        raise ContractError(f"diffuse_with_target: needs a 2-D batch, noise of its shape "
                            f"and one t per row, got {u0.shape}, {noise.shape}, {t.shape}")
    ab = sched.alpha_bars[t]
    d0, d1 = np.sqrt(ab), np.sqrt(1.0 - ab)
    p0, p1 = _posterior_coefs(t, sched)
    a, b = np.empty((2, u0.shape[1]))
    u_t, target = np.empty_like(u0), np.empty_like(u0)
    for r in range(len(u0)):
        np.add(np.multiply(d0[r], u0[r], out=a), np.multiply(d1[r], noise[r], out=b),
               out=u_t[r])
        np.add(np.multiply(p0[r], u0[r], out=a), np.multiply(p1[r], u_t[r], out=b),
               out=target[r])
        target[r] *= row_scale[r]
    return u_t, target
