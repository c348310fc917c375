"""Gaussian corruption schedule and its closed-form marginals.

The forward chain multiplies signal by sqrt(1 - beta_t) and adds
sqrt(beta_t) noise at each step t = 1..T. All tables are float64;
outputs are cast back to the input dtype so float32 model code stays
float32. Timestep indices are 1-based everywhere (t = 0 is the clean
signal), and `alpha_bars[t]` is the cumulative product through step t
with the convenience entry alpha_bars[0] = 1. The betas run linearly from
scale * beta_min to scale * beta_max: as in DiffRec, the noise scale
multiplies both ends.

There is one corruption, `diffuse_to`, and training and inference both go
through it: each row of a batch is blended in float64 and rounded once.
Training's regression target, the reverse-conditional mean, is blended
the same way by `diffuse_with_target`. The whole-batch forms of both,
which the tests hold these to bit for bit, live in tests/conftest.py.
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


def _blend_rows(out: np.ndarray, c0: np.ndarray, x0: np.ndarray, c1: np.ndarray,
                x1: np.ndarray) -> np.ndarray:
    """out[r] = c0[r] * x0[r] + c1[r] * x1[r] for every row r, blended in
    float64 through two scratch rows and rounded once to out's dtype."""
    a, b = np.empty((2, out.shape[1]))
    for r in range(len(out)):
        np.add(np.multiply(c0[r], x0[r], out=a), np.multiply(c1[r], x1[r], out=b), out=out[r])
    return out


def diffuse_to(u0: np.ndarray, t, sched: NoiseSchedule,
               noise: np.ndarray) -> np.ndarray:
    """Jump straight to step t: sqrt(abar_t) * u0 + sqrt(1-abar_t) * eps,
    for a 2-D batch u0, noise of its shape, and one t for every row or one
    per row. Each row is blended on its own (see `_blend_rows`), in place of
    whole-batch float64 temporaries, whose cost per element grows with the
    batch once they leave the cache."""
    u0, noise, t = np.asarray(u0), np.asarray(noise), _check_t(t, sched.T)
    if u0.ndim != 2 or noise.shape != u0.shape or t.shape not in ((), (len(u0),)):
        raise ContractError(f"diffuse_to: needs a 2-D batch, noise of its shape and one t "
                            f"or one per row, got {u0.shape}, {noise.shape}, {t.shape}")
    ab = np.broadcast_to(sched.alpha_bars[t], len(u0))
    return _blend_rows(np.empty(u0.shape, u0.dtype), np.sqrt(ab), u0, np.sqrt(1.0 - ab), noise)


def _posterior_coefs(t: np.ndarray, sched: NoiseSchedule):
    """Coefficients of u0 and u_t in the mean of the exact reverse conditional,
    (sqrt(abar_{t-1}) * beta_t * u0 + sqrt(alpha_t) * (1 - abar_{t-1}) * u_t)
    divided by (1 - abar_t). At t = 1 the mean collapses to u0 exactly."""
    denom = 1.0 - sched.alpha_bars[t]
    if np.any(denom < 1e-12):
        raise NumericError(f"reverse-conditional mean: 1 - abar_t vanishes at t={t}")
    b = sched.betas[t - 1]
    c0 = np.sqrt(sched.alpha_bars[t - 1]) * b / denom
    c1 = np.sqrt(sched.alphas[t - 1]) * (1.0 - sched.alpha_bars[t - 1]) / denom
    return c0, c1


def diffuse_with_target(u0: np.ndarray, t, sched: NoiseSchedule, noise: np.ndarray,
                        row_scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`diffuse_to` of a 2-D batch with one timestep per row, and the mean
    of the reverse conditional at the u_t it returns, blended row by row
    like it and then multiplied by `row_scale` (of u0's dtype) per row."""
    u0, t = np.asarray(u0), _check_t(t, sched.T)
    if u0.ndim != 2 or t.shape != (len(u0),):
        raise ContractError(f"diffuse_with_target: needs a 2-D batch and one t per row, "
                            f"got {u0.shape}, {t.shape}")
    u_t = diffuse_to(u0, t, sched, noise)
    p0, p1 = _posterior_coefs(t, sched)
    target = _blend_rows(np.empty_like(u_t), p0, u0, p1, u_t)
    target *= row_scale[:, None]
    return u_t, target
