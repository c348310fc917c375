"""Verification suite for the scaling and projection probes."""

import numpy as np
import pytest

from diffcf import bench
from diffcf.errors import ContractError


class TestSynthInteractions:
    def test_deterministic_per_seed(self):
        a = bench.synth_interactions(50, 40, 0.9, seed=5)
        b = bench.synth_interactions(50, 40, 0.9, seed=5)
        c = bench.synth_interactions(50, 40, 0.9, seed=6)
        np.testing.assert_array_equal(a.indptr, b.indptr)
        np.testing.assert_array_equal(a.indices, b.indices)
        assert not (a.indptr.shape == c.indptr.shape
                    and np.array_equal(a.indices, c.indices))

    def test_density_tracks_sparsity(self):
        m = bench.synth_interactions(200, 100, 0.9, seed=0)
        assert 1600 <= m.indices.size <= 2400  # mean 2000, wide window

    def test_rows_non_empty_sorted_in_range(self):
        m = bench.synth_interactions(300, 20, 0.97, seed=1)
        counts = np.diff(m.indptr.astype(np.int64))
        assert counts.min() >= 1
        assert m.indices.max() < 20
        for u in range(m.num_users):
            row = m.indices[int(m.indptr[u]):int(m.indptr[u + 1])]
            assert np.all(np.diff(row.astype(np.int64)) > 0)

    def test_empty_users_dropped_with_renumbering(self):
        m = bench.synth_interactions(400, 5, 0.995, seed=2)
        assert m.num_users < 400
        assert np.diff(m.indptr.astype(np.int64)).min() >= 1

    def test_contracts(self):
        with pytest.raises(ContractError):
            bench.synth_interactions(10, 10, 1.0)
        with pytest.raises(ContractError):
            bench.synth_interactions(10, 10, -0.1)
        with pytest.raises(ContractError):
            bench.synth_interactions(0, 10, 0.5)


class TestFits:
    def test_line_recovers_exact_coefficients(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        fit = bench.fit_line(x, 3.0 * x + 2.0)
        np.testing.assert_allclose([fit.slope, fit.intercept], [3.0, 2.0],
                                   rtol=1e-10)
        assert fit.r2 > 0.999999

    def test_line_constant_data(self):
        fit = bench.fit_line(np.array([1.0, 2.0, 3.0]), np.full(3, 4.0))
        assert fit.r2 == 1.0
        np.testing.assert_allclose(fit.slope, 0.0, atol=1e-12)

    def test_quadratic_ci_contains_zero_for_linear_data(self):
        rng = np.random.default_rng(0)
        x = np.arange(1.0, 9.0)
        y = 2.0 * x + rng.normal(0.0, 0.01, size=x.size)
        fit = bench.fit_quadratic_ci(x, y)
        assert fit.indistinguishable_from_zero
        assert fit.ci_low < fit.ci_high

    def test_quadratic_ci_excludes_zero_for_quadratic_data(self):
        x = np.arange(1.0, 9.0)
        fit = bench.fit_quadratic_ci(x, x * x)
        assert fit.coef > 0.0
        assert not fit.indistinguishable_from_zero

    def test_quadratic_needs_four_points(self):
        x = np.array([1.0, 2.0, 3.0])
        with pytest.raises(ContractError):
            bench.fit_quadratic_ci(x, x)


class TestProjectionBound:
    def test_reference_size(self):
        assert bench.projection_bound_k(2048, 0.5) == 305

    def test_tighter_eps_needs_more_rows(self):
        ks = [bench.projection_bound_k(2048, e) for e in (0.5, 0.3, 0.1)]
        assert ks[0] < ks[1] < ks[2]

    def test_eps_contract(self):
        for eps in (0.0, 1.0, -0.5):
            with pytest.raises(ContractError):
                bench.projection_bound_k(100, eps)


@pytest.fixture(scope="module")
def probe_result():
    return bench.attention_approx_probe(n=64, d=4, ks=(4, 16, 48),
                                        trials=12, eps=0.5, seed=0)


class TestAttentionProbe:

    def test_shape_and_ranges(self, probe_result):
        result = probe_result
        assert result.ks == (4, 16, 48)
        assert result.bound_k == bench.projection_bound_k(64, 0.5)
        for k in result.ks:
            dev = result.deviations[k]
            assert dev.shape == (12,)
            assert np.all(np.isfinite(dev)) and np.all(dev >= 0.0)
        assert 0.0 <= result.frac_within_bound <= 1.0

    def test_more_rows_shrink_the_median(self, probe_result):
        result = probe_result
        meds = [result.medians[k] for k in result.ks]
        assert meds[0] > meds[1] > meds[2]
        assert np.median(result.bound_deviations) < meds[0]

    def test_ks_deduplicated_and_sorted(self):
        r = bench.attention_approx_probe(n=32, d=2, ks=(8, 4, 8), trials=3,
                                         seed=1)
        assert r.ks == (4, 8)

    def test_csv_layout(self, probe_result):
        result = probe_result
        lines = result.to_csv().splitlines()
        assert lines[0] == "k,median_deviation,frac_within_eps"
        assert len(lines) == 1 + len(result.ks) + 1 + 1
        assert lines[-1].startswith("# bound_k=")
        assert lines[1].startswith("4,")

    def test_contracts(self):
        with pytest.raises(ContractError):
            bench.attention_approx_probe(ks=(0, 4), trials=2)
        with pytest.raises(ContractError):
            bench.attention_approx_probe(ks=(4,), trials=0)
        with pytest.raises(ContractError, match="n >= 2"):
            bench.attention_approx_probe(n=1, ks=(4,), trials=2)
        with pytest.raises(ContractError, match="d >= 1"):
            bench.attention_approx_probe(n=32, d=0, ks=(4,), trials=2)


class TestTimeScaling:
    def test_argument_contracts(self):
        with pytest.raises(ContractError):
            bench.time_scaling("rows", (8, 16))
        with pytest.raises(ContractError):
            bench.time_scaling("users", (8,))
        with pytest.raises(ContractError):
            bench.time_scaling("users", (8, 16), iters=4)

    @pytest.mark.parametrize("axis", ["users", "items"])
    def test_smoke_sweep(self, axis):
        run = bench.time_scaling(
            axis, (48, 64, 80, 96), fixed_dim=48, sparsity=0.9, iters=5,
            warmup=1, batch_size=8, seed=0,
            model_overrides=dict(latent_dim=8, attn_dim=4, layers=1,
                                 hops=2, hop_weights=(1.0,)))
        assert run.axis == axis and run.sizes == (48, 64, 80, 96)
        assert len(run.medians) == 4
        assert all(m > 0.0 for m in run.medians)
        assert all(len(s) == 5 for s in run.samples)
        lines = run.to_csv().splitlines()
        assert lines[0] == "size,median_seconds_per_iter,iter0,iter1,iter2,iter3,iter4"
        assert len(lines) == 1 + 4 + 2
        assert lines[-2].startswith("# linear slope=")
        assert lines[-1].startswith("# quadratic coef=")
