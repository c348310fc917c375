"""Gaussian corruption schedule and its closed-form marginals.

The forward chain multiplies signal by sqrt(1 - beta_t) and adds
sqrt(beta_t) noise at each step t = 1..T. All tables are float64;
outputs are cast back to the input dtype so float32 model code stays
float32. Timestep indices are 1-based everywhere (t = 0 is the clean
signal), and `alpha_bars[t]` is the cumulative product through step t
with the convenience entry alpha_bars[0] = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericError

SCHEDULE_KINDS = ("linear", "linear-scaled")


@dataclass(frozen=True)
class NoiseSchedule:
    kind: str
    T: int
    beta_min: float
    beta_max: float
    scale: float
    betas: np.ndarray       # shape (T,), betas[t-1] is step t
    alphas: np.ndarray      # 1 - betas
    alpha_bars: np.ndarray  # shape (T+1,), cumulative alphas, [0] = 1

    def fields(self) -> tuple[int, float, float, str, float]:
        return (self.T, self.beta_min, self.beta_max, self.kind, self.scale)


def build_schedule(T: int, beta_min: float = 1e-4, beta_max: float = 0.02,
                   kind: str = "linear", scale: float = 1.0) -> NoiseSchedule:
    if kind not in SCHEDULE_KINDS:
        raise ContractError(f"schedule kind must be one of {SCHEDULE_KINDS}, got {kind!r}")
    if T < 1:
        raise ContractError(f"schedule needs T >= 1, got {T}")
    lo, hi = (beta_min, beta_max) if kind == "linear" else (scale * beta_min, scale * beta_max)
    if not (0.0 < lo <= hi < 1.0):
        raise ContractError(f"betas must satisfy 0 < {lo} <= {hi} < 1")
    betas = np.linspace(lo, hi, T, dtype=np.float64)
    alphas = 1.0 - betas
    alpha_bars = np.concatenate([[1.0], np.cumprod(alphas)])
    betas.setflags(write=False)
    alphas.setflags(write=False)
    alpha_bars.setflags(write=False)
    return NoiseSchedule(kind, T, beta_min, beta_max, scale, betas, alphas, alpha_bars)


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


def posterior_mean(u_t: np.ndarray, u0: np.ndarray, t,
                   sched: NoiseSchedule) -> np.ndarray:
    """Mean of the exact reverse conditional given the clean signal.

    (sqrt(abar_{t-1}) * beta_t * u0 + sqrt(alpha_t) * (1 - abar_{t-1}) * u_t)
    divided by (1 - abar_t). At t = 1 this collapses to u0 exactly.
    """
    u_t = np.asarray(u_t)
    t = _check_t(t, sched.T)
    denom = 1.0 - sched.alpha_bars[t]
    if np.any(denom < 1e-12):
        raise NumericError(f"posterior_mean: 1 - abar_t vanishes at t={t}")
    b = sched.betas[t - 1]
    c0 = np.sqrt(sched.alpha_bars[t - 1]) * b / denom
    c1 = np.sqrt(sched.alphas[t - 1]) * (1.0 - sched.alpha_bars[t - 1]) / denom
    out = _cols(c0, u_t) * np.asarray(u0) + _cols(c1, u_t) * u_t
    return out.astype(u_t.dtype)
