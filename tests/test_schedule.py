"""Verification suite for the corruption schedule.

The cumulative-product table is checked against a hand-rolled loop and a
frozen literal table, the one-shot corruption against its closed form
and Monte Carlo moments, and training's target, the reverse-conditional
mean, against a grid-integration oracle that knows nothing about the
closed form. The row-wise forms are held bit for bit to the whole-batch
reference in conftest.
"""

import numpy as np
import pytest

import conftest as reference
from diffcf import config, schedule
from diffcf.errors import ContractError, NumericError


def grid_posterior_mean(u_t: float, u0: float, t: int,
                        sched: schedule.NoiseSchedule) -> float:
    """Mean of x ~ p(x) with p(x) proportional to
    N(u_t; sqrt(1-beta_t) x, beta_t) * N(x; sqrt(abar_{t-1}) u0, 1-abar_{t-1}),
    integrated numerically on a wide grid. Only defined for t >= 2 (at
    t = 1 the second factor is a point mass at u0)."""
    assert t >= 2
    beta = sched.betas[t - 1]
    ab_prev = sched.alpha_bars[t - 1]
    x = np.linspace(-12.0, 12.0, 400_001)
    log_w = (-((u_t - np.sqrt(1.0 - beta) * x) ** 2) / (2.0 * beta)
             - ((x - np.sqrt(ab_prev) * u0) ** 2) / (2.0 * (1.0 - ab_prev)))
    w = np.exp(log_w - log_w.max())
    return float((x * w).sum() / w.sum())


def diffuse_step(u_prev, t: int, sched: schedule.NoiseSchedule, noise):
    """One forward corruption step: sqrt(1-beta_t) * u + sqrt(beta_t) * eps."""
    b = sched.betas[t - 1]
    return np.sqrt(1.0 - b) * u_prev + np.sqrt(b) * noise


class TestBuildSchedule:
    def test_endpoints_and_spacing(self):
        s = schedule.build_schedule(10, 1e-4, 0.02)
        assert s.betas[0] == pytest.approx(1e-4)
        assert s.betas[-1] == pytest.approx(0.02)
        assert s.betas.shape == (10,)
        np.testing.assert_allclose(np.diff(s.betas), np.diff(s.betas)[0], rtol=1e-12)

    def test_cumulative_table_matches_loop(self):
        s = schedule.build_schedule(25, 3e-3, 0.4)
        prod = 1.0
        assert s.alpha_bars[0] == 1.0
        for t in range(1, 26):
            prod *= 1.0 - s.betas[t - 1]
            assert s.alpha_bars[t] == pytest.approx(prod, rel=1e-14)

    def test_frozen_literal_table(self):
        # T=5, betas 0.1..0.5: alphas 0.9, 0.8, 0.7, 0.6, 0.5.
        s = schedule.build_schedule(5, 0.1, 0.5)
        expected = [1.0, 0.9, 0.72, 0.504, 0.3024, 0.1512]
        np.testing.assert_allclose(s.alpha_bars, expected, rtol=1e-12)

    def test_alpha_bars_strictly_decreasing(self):
        s = schedule.build_schedule(50)
        assert (np.diff(s.alpha_bars) < 0).all()

    def test_scale_multiplies_endpoints(self):
        s = schedule.build_schedule(4, 1e-3, 0.1, scale=0.5)
        assert s.betas[0] == pytest.approx(5e-4)
        assert s.betas[-1] == pytest.approx(0.05)
        assert s.fields() == (4, 1e-3, 0.1, 0.5)

    def test_schedule_scale_applies_under_the_default_config(self):
        cfg = config.defaults()
        betas = config.schedule_config(cfg).betas
        assert betas.tobytes() == np.linspace(1e-4, 0.02, 100).tobytes()
        scaled = config.schedule_config({**cfg, "schedule_scale": 0.1}).betas
        np.testing.assert_allclose(scaled, 0.1 * betas, rtol=1e-12)
        assert scaled[-1] == pytest.approx(0.002)

    def test_tables_are_write_protected(self):
        s = schedule.build_schedule(5)
        with pytest.raises(ValueError):
            s.betas[0] = 0.5

    def test_invalid_arguments(self):
        with pytest.raises(ContractError):
            schedule.build_schedule(0)
        with pytest.raises(ContractError):
            schedule.build_schedule(5, beta_min=0.0)
        with pytest.raises(ContractError):
            schedule.build_schedule(5, beta_min=0.5, beta_max=0.2)
        with pytest.raises(ContractError):
            schedule.build_schedule(5, beta_max=1.0)
        with pytest.raises(ContractError):
            schedule.build_schedule(5, scale=100.0)


class TestDiffuse:
    def test_one_step_closed_form(self):
        # t single steps with noises eps_1..eps_t land where one jump lands
        # with their combined noise sum_s sqrt(beta_s) prod_{r>s} sqrt(alpha_r)
        # eps_s, rescaled to unit variance by sqrt(1 - abar_t).
        s = schedule.build_schedule(8, 0.01, 0.3)
        rng = np.random.default_rng(0)
        u0 = rng.standard_normal((4, 6))
        for t in (1, 5, 8):
            eps = rng.standard_normal((t, 4, 6))
            u, combined = u0, np.zeros_like(u0)
            for step in range(1, t + 1):
                u = diffuse_step(u, step, s, eps[step - 1])
                combined = np.sqrt(s.alphas[step - 1]) * combined \
                    + np.sqrt(s.betas[step - 1]) * eps[step - 1]
            jump = schedule.diffuse_to(u0, t, s, combined / np.sqrt(1 - s.alpha_bars[t]))
            np.testing.assert_allclose(u, jump, rtol=1e-12, atol=1e-12)

    def test_jump_closed_form(self):
        s = schedule.build_schedule(8, 0.01, 0.3)
        rng = np.random.default_rng(1)
        u0 = rng.standard_normal((4, 6))
        eps = rng.standard_normal((4, 6))
        for t in (1, 4, 8):
            got = schedule.diffuse_to(u0, t, s, eps)
            ab = s.alpha_bars[t]
            np.testing.assert_allclose(got, np.sqrt(ab) * u0 + np.sqrt(1 - ab) * eps,
                                       rtol=1e-12)

    def test_per_row_timesteps_match_scalar_calls(self):
        s = schedule.build_schedule(10)
        rng = np.random.default_rng(2)
        u0 = rng.standard_normal((5, 3))
        eps = rng.standard_normal((5, 3))
        t = np.array([1, 3, 10, 7, 2])
        batched = schedule.diffuse_to(u0, t, s, eps)
        for row in range(5):
            one = slice(row, row + 1)
            single = schedule.diffuse_to(u0[one], int(t[row]), s, eps[one])
            np.testing.assert_array_equal(batched[one], single)

    def test_monte_carlo_moments(self):
        # Empirical mean and variance of the jump marginal against
        # sqrt(abar_t) u0 and 1 - abar_t, within 4 standard errors.
        s = schedule.build_schedule(20, 1e-3, 0.2)
        rng = np.random.default_rng(3)
        n = 100_000
        u0 = np.full((n, 1), 0.7, dtype=np.float64)
        for t in (1, 10, 20):
            draws = schedule.diffuse_to(u0, t, s, rng.standard_normal((n, 1)))
            ab = s.alpha_bars[t]
            var_true = 1.0 - ab
            se_mean = np.sqrt(var_true / n)
            se_var = var_true * np.sqrt(2.0 / (n - 1))
            assert abs(draws.mean() - np.sqrt(ab) * 0.7) < 4 * se_mean
            assert abs(draws.var(ddof=1) - var_true) < 4 * se_var

    def test_dtype_preserved(self):
        s = schedule.build_schedule(5)
        u = np.ones((2, 3), dtype=np.float32)
        eps = np.zeros((2, 3), dtype=np.float32)
        assert schedule.diffuse_to(u, 3, s, eps).dtype == np.float32

    def test_t_out_of_range(self):
        s = schedule.build_schedule(5)
        u = np.ones((2, 3))
        for bad in (0, 6, np.array([1, 9])):
            with pytest.raises(ContractError):
                schedule.diffuse_to(u, bad, s, u)

    def test_needs_a_2d_batch_with_noise_of_its_shape(self):
        s = schedule.build_schedule(5)
        u = np.ones((3, 4))
        for args in ((u[0], 2, u[0]), (u, 2, u[:, :2]), (u, np.array([2, 3]), u)):
            with pytest.raises(ContractError, match="2-D batch"):
                schedule.diffuse_to(args[0], args[1], s, args[2])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("width", [1, 7, 3706, 30000])
def test_row_wise_forms_match_the_whole_batch_reference(dtype, width):
    # Every array as the whole-batch forms give it, bit for bit, under one
    # t for all rows and one per row; and each row as its own one-row batch.
    s = schedule.build_schedule(100)
    rng = np.random.default_rng(width)
    rows = 5
    u0 = (rng.random((rows, width)) < 0.2).astype(dtype)
    eps = rng.standard_normal((rows, width)).astype(dtype)
    t = np.array([1, 2, 37, 99, 100])
    scale = rng.random(rows).astype(dtype)
    shared = schedule.diffuse_to(u0, 37, s, eps)
    assert shared.dtype == dtype
    assert shared.tobytes() == reference.diffuse_to(u0, 37, s, eps).tobytes()
    u_t, target = schedule.diffuse_with_target(u0, t, s, eps, scale)
    want = reference.diffuse_to(u0, t, s, eps)
    assert u_t.dtype == target.dtype == dtype
    assert schedule.diffuse_to(u0, t, s, eps).tobytes() == want.tobytes()
    assert u_t.tobytes() == want.tobytes()
    want_target = reference.posterior_mean(want, u0, t, s) * scale[:, None]
    assert target.tobytes() == want_target.tobytes()
    for row in range(rows):
        one = slice(row, row + 1)
        assert schedule.diffuse_to(u0[one], 37, s, eps[one]).tobytes() == shared[one].tobytes()
        single = schedule.diffuse_with_target(u0[one], t[one], s, eps[one], scale[one])
        assert single[0].tobytes() == u_t[one].tobytes()
        assert single[1].tobytes() == target[one].tobytes()


class TestPosteriorMean:
    """The reverse-conditional mean as training reads it: the target of
    `diffuse_with_target`, here with a row scale of 1."""

    def test_t1_returns_clean_signal_exactly(self):
        s = schedule.build_schedule(10)
        rng = np.random.default_rng(4)
        u0 = rng.standard_normal((3, 4)).astype(np.float32)
        eps = rng.standard_normal((3, 4)).astype(np.float32)
        _, target = schedule.diffuse_with_target(u0, np.ones(3, np.int64), s, eps,
                                                 np.ones(3, np.float32))
        assert np.array_equal(target, u0)

    def test_matches_grid_integration_oracle(self):
        # Checked at the u_t the call returns for the drawn noise.
        s = schedule.build_schedule(30, 1e-3, 0.25)
        rng = np.random.default_rng(5)
        for _ in range(8):
            t = int(rng.integers(2, 31))
            u0 = float(rng.normal(0, 1.5))
            eps = float(rng.normal(0, 1.5))
            u_t, got = schedule.diffuse_with_target(np.array([[u0]]), np.array([t]), s,
                                                    np.array([[eps]]), np.ones(1))
            assert abs(got[0, 0] - grid_posterior_mean(u_t[0, 0], u0, t, s)) < 1e-6

    def test_per_row_timesteps(self):
        s = schedule.build_schedule(10)
        rng = np.random.default_rng(6)
        u0 = rng.standard_normal((4, 3))
        eps = rng.standard_normal((4, 3))
        t = np.array([1, 2, 5, 10])
        _, batched = schedule.diffuse_with_target(u0, t, s, eps, np.ones(4))
        for row in range(4):
            one = slice(row, row + 1)
            _, single = schedule.diffuse_with_target(u0[one], t[one], s, eps[one], np.ones(1))
            np.testing.assert_array_equal(batched[one], single)

    def test_fused_with_diffusion_matches_separate_calls(self):
        s = schedule.build_schedule(100)
        rng = np.random.default_rng(7)
        u0 = (rng.random((6, 50)) < 0.2).astype(np.float32)
        eps = rng.standard_normal((6, 50)).astype(np.float32)
        t = np.array([1, 2, 40, 99, 100, 7])
        scale = rng.random(6).astype(np.float32)
        u_t, target = schedule.diffuse_with_target(u0, t, s, eps, scale)
        want = reference.diffuse_to(u0, t, s, eps)
        assert u_t.dtype == target.dtype == np.float32
        assert u_t.tobytes() == want.tobytes()
        want_target = reference.posterior_mean(want, u0, t, s) * scale[:, None]
        assert target.tobytes() == want_target.tobytes()

    def test_fused_needs_a_2d_batch_with_one_t_per_row(self):
        s = schedule.build_schedule(10)
        u0 = np.ones((3, 4), np.float32)
        scale = np.ones(3, np.float32)
        for args in ((u0[0], 2, u0[0]), (u0, 2, u0), (u0, np.array([2, 3]), u0),
                     (u0, np.array([2, 3, 4]), u0[:, :2])):
            with pytest.raises(ContractError, match="2-D batch"):
                schedule.diffuse_with_target(args[0], args[1], s, args[2], scale)

    def test_degenerate_variance_guarded(self):
        s = schedule.build_schedule(1, 1e-15, 1e-15)
        with pytest.raises(NumericError):
            schedule.diffuse_with_target(np.ones((1, 2)), np.ones(1, np.int64), s,
                                         np.ones((1, 2)), np.ones(1))
