"""Verification suite for the denoising objective and fit driver.

The batch-loss oracle recomputes each user's term separately (forward
pass through the public batch runner, closed-form posterior target,
per-term weighting by `vlb_term` below) and averages by hand, so the
fused row-scaled sum-of-squares inside train_step is checked against
first principles.
"""

import dataclasses
import json

import numpy as np
import pytest

from conftest import diffuse_to, inference_forward, make_matrix, posterior_mean
from diffcf import camae, dataset, graph, ndtensor as nd, train
from diffcf.camae import CamAeConfig
from diffcf.errors import ContractError, NumericError
from diffcf.schedule import build_schedule


@pytest.fixture(scope="module")
def world():
    rng = np.random.default_rng(40)
    rows = [sorted(rng.choice(8, size=int(rng.integers(4, 7)),
                              replace=False).tolist()) for _ in range(6)]
    matrix = dataset.split_holdout(make_matrix(rows, num_items=8),
                                   ratios=(0.5, 0.25, 0.25), seed=1)
    contexts = graph.build_contexts(matrix, H=3)
    cfg = CamAeConfig(num_users=6, num_items=8, latent_dim=4, attn_dim=2,
                      layers=1, hops=3, hop_weights=(0.6, 0.4))
    sched = build_schedule(5)
    return matrix, contexts, cfg, sched


def vlb_term(t: int, mu_hat, target, beta_t: float, weighting: str = "vlb") -> float:
    """One user's loss term: squared error against the clean row at t = 1,
    against the posterior mean at t >= 2 (scaled by 1/(2 beta_t) under
    the vlb weighting)."""
    if weighting not in train.WEIGHTINGS:
        raise ContractError(f"weighting must be one of {train.WEIGHTINGS}, got {weighting!r}")
    if t < 1:
        raise ContractError(f"t must be >= 1, got {t}")
    d = np.asarray(mu_hat, dtype=np.float64) - np.asarray(target, dtype=np.float64)
    sq = float(np.dot(d.ravel(), d.ravel()))
    if t == 1 or weighting == "simple":
        return sq
    return sq / (2.0 * beta_t)


def sample_batch(world, batch, seed, dtype=np.float64):
    matrix, contexts, cfg, sched = world
    rng = np.random.default_rng(seed)
    users = rng.choice(matrix.num_users, size=batch, replace=False)
    u0 = dataset.dense_rows(matrix, users, dtype=dtype)
    ctx = {h: contexts.batch_rows(users, h).astype(dtype)
           for h in cfg.hop_list}
    t = rng.integers(1, sched.T + 1, size=batch)
    t[0] = 1  # keep the unweighted branch represented
    noise = rng.standard_normal(u0.shape).astype(dtype)
    return u0, ctx, t, noise


class TestVlbTerm:
    def test_first_step_is_plain_squared_error(self):
        for weighting in train.WEIGHTINGS:
            got = vlb_term(1, [1.0, 2.0], [0.0, 0.0], 0.5, weighting)
            assert got == 5.0

    def test_later_steps_scale_by_half_inverse_beta(self):
        assert vlb_term(2, [1.0, 0.0], [0.0, 0.0], 0.5) == 1.0
        assert vlb_term(3, [1.0, 1.0], [0.0, 0.0], 0.25) == 4.0

    def test_simple_weighting_ignores_beta(self):
        assert vlb_term(5, [2.0], [0.0], 1e-3, "simple") == 4.0

    def test_contracts(self):
        with pytest.raises(ContractError):
            vlb_term(0, [1.0], [0.0], 0.5)
        with pytest.raises(ContractError):
            vlb_term(1, [1.0], [0.0], 0.5, "huber")


class TestStepWeights:
    def test_matches_scalar_terms(self, world):
        _, _, _, sched = world
        t = np.arange(1, sched.T + 1)
        w = train.step_weights(t, sched, "vlb")
        assert w[0] == 1.0
        for i, ti in enumerate(t[1:], start=1):
            assert w[i] == 1.0 / (2.0 * sched.betas[ti - 1])
        np.testing.assert_array_equal(train.step_weights(t, sched, "simple"),
                                      np.ones(sched.T))

    def test_bad_weighting(self, world):
        _, _, _, sched = world
        with pytest.raises(ContractError):
            train.step_weights(np.array([1]), sched, "huber")


class TestTrainStep:
    @pytest.mark.parametrize("weighting", train.WEIGHTINGS)
    def test_loss_matches_per_user_oracle(self, world, weighting):
        _, _, cfg, sched = world
        u0, ctx, t, noise = sample_batch(world, batch=4, seed=50)
        params = {k: v.astype(np.float64)
                  for k, v in camae.init_params(cfg, seed=51).items()}
        frozen = {k: v.copy() for k, v in params.items()}
        adam = nd.init_adam(params, lr=1e-3)
        loss = train.train_step(params, adam, cfg, sched, weighting,
                                u0, ctx, t, noise)

        u_t = diffuse_to(u0, t, sched, noise)
        target = posterior_mean(u_t, u0, t, sched)
        tape, _, out = inference_forward(frozen, cfg, u_t, ctx, t)
        mu = out.value
        want = sum(vlb_term(int(t[i]), mu[i], target[i],
                                  sched.betas[t[i] - 1], weighting)
                   for i in range(4)) / 4.0
        np.testing.assert_allclose(loss, want, rtol=1e-12)

    def test_parameters_move(self, world):
        _, _, cfg, sched = world
        u0, ctx, t, noise = sample_batch(world, batch=4, seed=52)
        params = camae.init_params(cfg, seed=53)
        before = {k: v.copy() for k, v in params.items()}
        train.train_step(params, nd.init_adam(params, lr=1e-2), cfg, sched,
                         "vlb", u0, ctx, t, noise)
        assert all(not np.array_equal(params[k], before[k]) for k in params)

    def test_loss_decreases_on_frozen_batch(self, world):
        _, _, cfg, sched = world
        u0, ctx, t, noise = sample_batch(world, batch=4, seed=54)
        params = camae.init_params(cfg, seed=55)
        adam = nd.init_adam(params, lr=3e-2)
        losses = [train.train_step(params, adam, cfg, sched, "vlb",
                                   u0, ctx, t, noise) for _ in range(40)]
        assert losses[-1] < 0.5 * losses[0]

    def test_non_finite_loss_raises(self, world):
        _, _, cfg, sched = world
        u0, ctx, t, noise = sample_batch(world, batch=4, seed=56)
        params = camae.init_params(cfg, seed=57)
        params["collapse"] = params["collapse"] * np.inf
        with pytest.raises(NumericError):
            train.train_step(params, nd.init_adam(params, lr=1e-3), cfg,
                             sched, "vlb", u0, ctx, t, noise)

    def test_adam_gets_gradients_in_the_layout_of_their_parameters(self, world, monkeypatch):
        # adam_step walks flat views of p, m, v and g: a gradient in another
        # layout than its parameter's would be read through a copy.
        _, _, cfg, sched = world
        u0, ctx, t, noise = sample_batch(world, batch=4, seed=58, dtype=np.float32)
        params = camae.init_params(cfg, seed=59)
        seen, adam_step = [], nd.adam_step

        def spy(params, grads, state):
            seen.append({k: (g.shape, g.flags.c_contiguous) for k, g in grads.items()})
            return adam_step(params, grads, state)

        monkeypatch.setattr(nd, "adam_step", spy)
        train.train_step(params, nd.init_adam(params, lr=1e-3), cfg, sched, "vlb",
                         u0, ctx, t, noise)
        assert seen == [{k: (p.shape, True) for k, p in params.items()}]


class TestTrainEpoch:
    def run_epoch(self, world, epoch, seed=0):
        matrix, contexts, cfg, sched = world
        tc = train.TrainConfig(batch_size=4, lr=1e-3, epochs=1, seed=seed)
        params = camae.init_params(cfg, seed=60)
        adam = nd.init_adam(params, lr=tc.lr)
        stats = train.train_epoch(params, adam, cfg, tc, sched, matrix,
                                  contexts, epoch)
        return params, stats

    def test_seed_epoch_pair_is_deterministic(self, world):
        p1, s1 = self.run_epoch(world, epoch=3)
        p2, s2 = self.run_epoch(world, epoch=3)
        p3, _ = self.run_epoch(world, epoch=4)
        for k in p1:
            np.testing.assert_array_equal(p1[k], p2[k])
        assert s1.mean_loss == s2.mean_loss
        assert any(not np.array_equal(p1[k], p3[k]) for k in p1)

    def test_covers_all_users_in_batches(self, world):
        _, stats = self.run_epoch(world, epoch=1)
        assert stats.batches == 2  # 6 users, batch 4
        assert np.isfinite(stats.mean_loss)
        assert stats.seconds >= 0.0


class TestTrainConfig:
    def test_contracts(self):
        for kwargs in (dict(batch_size=0), dict(lr=0.0), dict(epochs=0),
                       dict(weighting="huber"), dict(eval_every=0),
                       dict(patience=0), dict(eval_batch=0), dict(eval_batch=-3)):
            with pytest.raises(ContractError):
                train.TrainConfig(**kwargs)


class TestGradcheckCase:
    # Every variant: "self-attn" takes its gradients through its own folds
    # and key bias, which "full" does not record.
    @pytest.mark.parametrize("variant", camae.VARIANTS)
    @pytest.mark.parametrize("t_embed", [False, True])
    def test_full_loss_gradients_verify(self, t_embed, variant):
        cfg = CamAeConfig(num_users=6, num_items=8, latent_dim=4, attn_dim=2,
                          layers=1, hops=3, hop_weights=(0.6, 0.4),
                          t_embed=t_embed, variant=variant)
        report = train.gradcheck_case(cfg, build_schedule(20),
                                      max_entries=150)
        assert report.checked > 0
        assert report.max_rel_err <= 1e-4, report.summary()

    def test_residual_stacking_gradients_verify(self):
        cfg = CamAeConfig(num_users=6, num_items=8, latent_dim=4, attn_dim=2,
                          layers=2, hops=3, hop_weights=(0.6, 0.4),
                          residual=True)
        report = train.gradcheck_case(cfg, build_schedule(20),
                                      max_entries=150)
        assert report.max_rel_err <= 1e-4, report.summary()


class TestFit:
    def fit_once(self, world, tmp_path, tag, **overrides):
        matrix, contexts, cfg, sched = world
        kwargs = dict(batch_size=4, lr=1e-3, epochs=3, seed=2, eval_every=2,
                      patience=10, infer_steps=2, monitor_k=3)
        kwargs.update(overrides)
        tc = train.TrainConfig(**kwargs)
        params = camae.init_params(cfg, seed=70)
        ckpt = tmp_path / f"{tag}.cfck"
        log = tmp_path / f"{tag}.jsonl"
        result = train.fit(params, cfg, tc, sched, matrix, contexts,
                           config_text="a = 1\n", checkpoint_path=ckpt,
                           log_path=log)
        return result, ckpt, log

    def test_history_checkpoint_and_log(self, world, tmp_path):
        result, ckpt, log = self.fit_once(world, tmp_path, "smoke")
        assert [r["epoch"] for r in result.history] == [1, 2, 3]
        assert "val_ndcg@3" in result.history[1]  # eval_every = 2
        assert "val_ndcg@3" not in result.history[0]
        assert "val_ndcg@3" in result.history[2]  # final epoch always evaluated
        assert result.stopped_reason == "completed all epochs"
        assert result.best_epoch in (2, 3)
        assert ckpt.exists() and result.checkpoint_path == str(ckpt)
        logged = [json.loads(line) for line in log.read_text().splitlines()]
        assert logged == result.history
        params, adam, fields, text = nd.load_checkpoint(ckpt)
        assert text == "a = 1\n" and fields[0] == 5 and adam is not None

    def test_resumed_run_ends_with_the_bytes_of_an_uninterrupted_one(self, world, tmp_path):
        # Epochs 1..4 in one run, and 1..2 then a resume from last.cfck for
        # 3..4, must leave the same last.cfck: parameters, Adam moments and
        # hyperparameters, and the fit state, bit for bit.
        matrix, contexts, cfg, sched = world
        tc = train.TrainConfig(batch_size=4, lr=1e-3, epochs=4, seed=2, eval_every=2,
                               patience=10, infer_steps=2, monitor_k=3)
        runs = {}
        for tag in ("whole", "first", "resumed"):
            (tmp_path / tag).mkdir()
            runs[tag] = tmp_path / tag / "best.cfck"
        common = dict(config_text="a = 1\n", quiet=True)
        train.fit(camae.init_params(cfg, seed=70), cfg, tc, sched, matrix, contexts,
                  checkpoint_path=runs["whole"], **common)
        train.fit(camae.init_params(cfg, seed=70), cfg, dataclasses.replace(tc, epochs=2),
                  sched, matrix, contexts, checkpoint_path=runs["first"], **common)
        stopped = tmp_path / "first" / "last.cfck"
        params, adam, _, _ = nd.load_checkpoint(stopped)
        assert adam.lr == tc.lr and adam.beta1 == 0.9
        train.fit(params, cfg, tc, sched, matrix, contexts, checkpoint_path=runs["resumed"],
                  adam=adam, start_epoch=3, fit_state=nd.load_fit_state(stopped), **common)
        whole = (tmp_path / "whole" / "last.cfck").read_bytes()
        assert (tmp_path / "resumed" / "last.cfck").read_bytes() == whole

    def test_killed_run_resumes_from_its_last_epoch_to_the_same_bytes(self, world, tmp_path,
                                                                       monkeypatch):
        # A run killed in epoch 2 leaves the last.cfck of epoch 1; resuming
        # from it for 2..4 must end with the last.cfck of an uninterrupted
        # 1..4 run, bit for bit.
        matrix, contexts, cfg, sched = world
        tc = train.TrainConfig(batch_size=4, lr=1e-3, epochs=4, seed=2, eval_every=2,
                               patience=10, infer_steps=2, monitor_k=3)
        runs = {}
        for tag in ("whole", "killed", "resumed"):
            (tmp_path / tag).mkdir()
            runs[tag] = tmp_path / tag / "best.cfck"
        common = dict(config_text="a = 1\n", quiet=True)
        train.fit(camae.init_params(cfg, seed=70), cfg, tc, sched, matrix, contexts,
                  checkpoint_path=runs["whole"], **common)
        epoch_fn = train.train_epoch

        def killed_in_epoch_2(*args):
            if args[-1] == 2:
                raise KeyboardInterrupt
            return epoch_fn(*args)

        with monkeypatch.context() as m:
            m.setattr(train, "train_epoch", killed_in_epoch_2)
            with pytest.raises(KeyboardInterrupt):
                train.fit(camae.init_params(cfg, seed=70), cfg, tc, sched, matrix, contexts,
                          checkpoint_path=runs["killed"], **common)
        stopped = tmp_path / "killed" / "last.cfck"
        params, adam, _, _ = nd.load_checkpoint(stopped)
        assert adam.step == -(-matrix.num_users // tc.batch_size)  # one epoch
        train.fit(params, cfg, tc, sched, matrix, contexts, checkpoint_path=runs["resumed"],
                  adam=adam, start_epoch=2, fit_state=nd.load_fit_state(stopped), **common)
        whole = (tmp_path / "whole" / "last.cfck").read_bytes()
        assert (tmp_path / "resumed" / "last.cfck").read_bytes() == whole

    def test_patience_stops_stale_run(self, world, tmp_path):
        # Vanishing lr freezes the ranking, so the second evaluation cannot
        # beat the first and patience=1 must fire.
        result, _, _ = self.fit_once(world, tmp_path, "stale", lr=1e-12,
                                     epochs=50, eval_every=1, patience=1)
        assert result.stopped_reason == "no val improvement in 1 evals"
        assert result.best_epoch == 1
        assert len(result.history) == 2

    def test_wall_clock_budget_stops_with_final_eval(self, world, tmp_path):
        result, ckpt, _ = self.fit_once(world, tmp_path, "budget",
                                        max_hours=1e-9, epochs=50)
        assert "budget" in result.stopped_reason
        assert len(result.history) == 1
        assert "val_ndcg@3" in result.history[0]
        assert ckpt.exists()
