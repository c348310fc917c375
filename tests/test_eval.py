"""Verification suite for inference and full-ranking evaluation.

The ranking oracle below sorts candidate lists with python tuples
(score desc, item id asc) and accumulates recall/NDCG per user from the
textbook definitions, sharing nothing with the vectorized path.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from conftest import diffuse_to, inference_forward, make_matrix
from diffcf import bench, camae, dataset, eval as evaluation, graph, ndtensor as nd
from diffcf.camae import CamAeConfig
from diffcf.dataset import TAG_TEST, TAG_TRAIN, TAG_VAL
from diffcf.errors import ContractError, NumericError, ShapeError
from diffcf.schedule import build_schedule


def brute_force_report(scores, observed, relevant, k):
    """Mean recall/NDCG over users with held-out items, from first
    principles."""
    recalls, ndcgs = [], []
    for row in range(scores.shape[0]):
        rel = set(int(i) for i in relevant[row])
        if not rel:
            continue
        cands = [i for i in range(scores.shape[1]) if not observed[row, i]]
        ranked = sorted(cands, key=lambda i: (-scores[row, i], i))[:k]
        hits = [i in rel for i in ranked]
        recalls.append(sum(hits) / min(k, len(rel)))
        dcg = sum(1.0 / math.log2(r + 2) for r, h in enumerate(hits) if h)
        idcg = sum(1.0 / math.log2(r + 2) for r in range(min(k, len(rel))))
        ndcgs.append(dcg / idcg)
    return sum(recalls) / len(recalls), sum(ndcgs) / len(ndcgs)


def argsort_topk(scores, exclude, k):
    """`rank_topk` as a full stable argsort over the catalog: the oracle
    for the partitioned version."""
    masked = scores.astype(np.float64, copy=True)
    masked[exclude] = -np.inf
    order = np.argsort(-masked, axis=1, kind="stable")
    return order[:, :k].astype(np.int64)


@pytest.fixture(scope="module")
def tagged_matrix():
    rng = np.random.default_rng(80)
    rows = [sorted(rng.choice(12, size=int(rng.integers(5, 9)),
                              replace=False).tolist()) for _ in range(8)]
    return dataset.split_holdout(make_matrix(rows, num_items=12),
                                 ratios=(0.5, 0.2, 0.3), seed=3)


class TestRankTopk:
    def test_ties_break_toward_smaller_id(self):
        scores = np.array([[1.0, 1.0, 1.0, 2.0]])
        top = evaluation.rank_topk(scores, np.zeros((1, 4), dtype=bool), 3)
        np.testing.assert_array_equal(top, [[3, 0, 1]])

    def test_excluded_items_never_surface(self):
        scores = np.array([[9.0, 1.0, 5.0]])
        exclude = np.array([[True, False, False]])
        top = evaluation.rank_topk(scores, exclude, 2)
        np.testing.assert_array_equal(top, [[2, 1]])

    def test_k_clamped_to_width(self):
        top = evaluation.rank_topk(np.ones((1, 3)), np.zeros((1, 3), bool), 10)
        assert top.shape == (1, 3)

    def test_short_rows_fill_with_masked_items_in_id_order(self):
        scores = np.array([[3.0, 9.0, 1.0, 7.0, 5.0]])
        exclude = np.array([[True, False, True, False, True]])
        top = evaluation.rank_topk(scores, exclude, 5)
        np.testing.assert_array_equal(top, [[1, 3, 0, 2, 4]])

    def test_matches_argsort_oracle_on_tie_heavy_scores(self):
        rng = np.random.default_rng(81)
        for _ in range(200):
            rows, width = int(rng.integers(1, 9)), int(rng.integers(1, 40))
            levels = int(rng.integers(1, 6))
            scores = rng.integers(-levels, levels + 1, size=(rows, width))
            exclude = rng.random((rows, width)) < rng.choice([0.0, 0.3, 0.9])
            for k in (1, int(rng.integers(1, width + 1)), width, width + 3):
                got = evaluation.rank_topk(scores, exclude, k)
                want = argsort_topk(scores, exclude, k)
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)

    def test_matches_argsort_oracle_on_float32_scores(self):
        rng = np.random.default_rng(82)
        scores = rng.standard_normal((16, 500)).astype(np.float32)
        scores[:, ::7] = 0.25
        exclude = rng.random(scores.shape) < 0.1
        for k in (1, 10, 20, 499, 500):
            np.testing.assert_array_equal(evaluation.rank_topk(scores, exclude, k),
                                          argsort_topk(scores, exclude, k))

    def test_float32_scores_rank_as_their_float64_cast(self):
        # Widening float32 is exact and keeps the order, so ranking in the
        # scores' own dtype gives the lists of the float64 cast: with ties
        # (rows of few levels, and at the k-th score), masked items, and
        # rows with fewer candidates than k.
        rng = np.random.default_rng(83)
        scores = (rng.integers(-3, 4, size=(12, 60)) / 7).astype(np.float32)
        scores[:4] = rng.standard_normal((4, 60)).astype(np.float32)
        scores[4, :30] = scores[4, 30:] = np.float32(1 / 3)
        exclude = rng.random(scores.shape) < 0.3
        exclude[5, 2:] = exclude[6] = True
        for k in (1, 3, 10, 45, 60, 70):
            got = evaluation.rank_topk(scores, exclude, k)
            np.testing.assert_array_equal(
                got, evaluation.rank_topk(scores.astype(np.float64), exclude, k))
            np.testing.assert_array_equal(got, argsort_topk(scores, exclude, k))

    def test_contracts(self):
        with pytest.raises(ContractError):
            evaluation.rank_topk(np.ones((1, 3)), np.zeros((1, 4), bool), 2)
        with pytest.raises(ContractError):
            evaluation.rank_topk(np.ones((1, 3)), np.zeros((1, 3), bool), 0)
        with pytest.raises(ContractError):
            evaluation.rank_topk(np.array([[1.0, np.nan]]), np.zeros((1, 2), bool), 1)


class TestRankingMetrics:
    def test_closed_form_values(self):
        top = np.array([[2, 0, 5]])
        recall, ndcg = evaluation.ranking_metrics(top, [np.array([0, 5])], 3)
        assert recall[0] == 1.0
        assert np.isclose(ndcg[0], 0.6934264036172708, rtol=1e-12)

    def test_single_hit_at_rank_one(self):
        recall, ndcg = evaluation.ranking_metrics(
            np.array([[4]]), [np.array([4, 7, 9])], 1)
        assert recall[0] == 1.0 and ndcg[0] == 1.0

    def test_no_targets_yields_nan(self):
        recall, ndcg = evaluation.ranking_metrics(
            np.array([[1, 2]]), [np.array([], dtype=int)], 2)
        assert np.isnan(recall[0]) and np.isnan(ndcg[0])

    def test_row_count_contract(self):
        with pytest.raises(ContractError):
            evaluation.ranking_metrics(np.array([[1]]), [], 1)


class TestEvaluateScores:
    def run_both(self, matrix, scores, split, k, include_val=True):
        def score_fn(users, u_obs):
            return scores[users]

        report = evaluation.evaluate_scores(score_fn, matrix, split, (k,),
                                            include_val=include_val,
                                            batch_size=3)
        tags_in = (TAG_TRAIN, TAG_VAL) if (split == "test" and include_val) \
            else (TAG_TRAIN,)
        observed = dataset.dense_rows(matrix, np.arange(matrix.num_users),
                                      tags=tags_in) > 0
        target = TAG_VAL if split == "val" else TAG_TEST
        relevant = [matrix.user_items(u, target)
                    for u in range(matrix.num_users)]
        want = brute_force_report(scores, observed, relevant, k)
        return report, want

    @pytest.mark.parametrize("split", ["val", "test"])
    @pytest.mark.parametrize("k", [3, 5])
    def test_matches_brute_force(self, tagged_matrix, split, k):
        rng = np.random.default_rng(81)
        scores = rng.normal(size=(tagged_matrix.num_users,
                                  tagged_matrix.num_items))
        report, (want_recall, want_ndcg) = self.run_both(
            tagged_matrix, scores, split, k)
        np.testing.assert_allclose(report.recall[k], want_recall, rtol=1e-12)
        np.testing.assert_allclose(report.ndcg[k], want_ndcg, rtol=1e-12)

    def test_without_val_inputs(self, tagged_matrix):
        rng = np.random.default_rng(82)
        scores = rng.normal(size=(tagged_matrix.num_users,
                                  tagged_matrix.num_items))
        report, want = self.run_both(tagged_matrix, scores, "test", 4,
                                     include_val=False)
        np.testing.assert_allclose(report.recall[4], want[0], rtol=1e-12)
        np.testing.assert_allclose(report.ndcg[4], want[1], rtol=1e-12)

    def test_perfect_scorer_maxes_out(self, tagged_matrix):
        m = tagged_matrix
        scores = np.zeros((m.num_users, m.num_items))
        for u in range(m.num_users):
            scores[u, m.user_items(u, TAG_TEST)] = 1.0
        report, _ = self.run_both(m, scores, "test", 12)
        assert report.recall[12] == 1.0 and report.ndcg[12] == 1.0

    def test_observed_scores_are_irrelevant(self, tagged_matrix):
        rng = np.random.default_rng(83)
        m = tagged_matrix
        scores = rng.normal(size=(m.num_users, m.num_items))
        observed = dataset.dense_rows(m, np.arange(m.num_users),
                                      tags=(TAG_TRAIN, TAG_VAL)) > 0
        mutated = scores.copy()
        mutated[observed] = 1e9
        a, _ = self.run_both(m, scores, "test", 5)
        b, _ = self.run_both(m, mutated, "test", 5)
        assert a.to_json() == b.to_json()

    def test_monotone_transform_invariance(self, tagged_matrix):
        rng = np.random.default_rng(84)
        scores = rng.normal(size=(tagged_matrix.num_users,
                                  tagged_matrix.num_items))
        a, _ = self.run_both(tagged_matrix, scores, "test", 5)
        b, _ = self.run_both(tagged_matrix, 2.0 * scores + 7.0, "test", 5)
        assert a.to_json() == b.to_json()

    def test_counts_only_users_with_targets(self):
        m = make_matrix([[0, 1], [0, 1], [0]], num_items=2,
                        tags=[[TAG_TRAIN, TAG_TEST], [TAG_TRAIN, TAG_TEST],
                              [TAG_TRAIN]])
        report = evaluation.evaluate_scores(
            lambda users, u_obs: np.ones((len(users), 2)), m, "test", (1,))
        assert report.num_users == 2

    def test_contracts(self, tagged_matrix):
        fn = lambda users, u_obs: np.ones((len(users),
                                           tagged_matrix.num_items))
        with pytest.raises(ContractError):
            evaluation.evaluate_scores(fn, tagged_matrix, "train", (5,))
        with pytest.raises(ContractError):
            evaluation.evaluate_scores(fn, tagged_matrix, "test", ())
        all_train = make_matrix([[0, 1]], num_items=2)
        with pytest.raises(ContractError):
            evaluation.evaluate_scores(fn, all_train, "test", (5,))

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_batch_size_must_be_positive(self, tagged_matrix, batch_size):
        # 0 used to stop range() with a ValueError, and a negative size
        # ranked no user and reported NaN metrics.
        fn = lambda users, u_obs: np.ones((len(users), tagged_matrix.num_items))
        with pytest.raises(ContractError, match="batch_size"):
            evaluation.evaluate_scores(fn, tagged_matrix, "test", (5,), batch_size=batch_size)


def row_rngs(seed: int, rows: int) -> list[np.random.Generator]:
    return [np.random.default_rng([seed, i]) for i in range(rows)]


def row_draws(rngs: list[np.random.Generator], width: int) -> np.ndarray:
    """Noise as `denoise_infer` draws it: one float32 row of `width`
    standard normals from each generator, in turn."""
    return np.stack([g.standard_normal(width) for g in rngs]).astype(np.float32)


def latent_walk(params, cfg, sched, u_obs, contexts, steps, seed, stochastic=False,
                trainable=False):
    """The reverse walk of `denoise_infer` spelled out from the camae pieces,
    each step on a tape of its own: encode the corrupted rows once, run the
    latent core, carry y_t (D E) to the next step, with the encoded
    re-noise sigma_t (eps_t E) added when `stochastic`, and decode the last
    step. Noise comes from `row_rngs(seed, ...)`. Returns the scores and
    the tape of each step."""
    rngs, width = row_rngs(seed, len(u_obs)), u_obs.shape[1]

    def bind():
        tape = nd.Tape()
        return tape, {name: tape.leaf(v, trainable=trainable) for name, v in params.items()}

    u = u_obs if steps == 0 else diffuse_to(u_obs, steps, sched, row_draws(rngs, width))
    z = camae.encode_interactions(*bind(), cfg, u).value
    tapes = []
    for t in range(max(steps, 1), 0, -1):
        tape, leaves = bind()
        tapes.append(tape)
        latents = camae.condition(tape, leaves, cfg, contexts)
        y = camae.denoise(tape, leaves, cfg, tape.leaf(z), latents, np.full(len(u_obs), t))
        if t == 1:
            return camae.decode(tape, leaves, cfg, y).value, tapes
        z = tape.record("matmul", y, camae.encode_interactions(
            tape, leaves, cfg, camae.decoder(tape, leaves, cfg).value))
        if stochastic:
            eps = camae.encode_interactions(tape, leaves, cfg, row_draws(rngs, width))
            sigma = np.float32(np.sqrt(sched.betas[t - 1]))
            z = tape.record("add", z, tape.record("scale", eps, factor=sigma))
        z = z.value


def item_space_walk(params, cfg, sched, u_obs, contexts, steps, seed, stochastic=False):
    """The reverse walk that decodes every step: the whole denoiser reads
    the last step's item rows, re-noised in item space when `stochastic`.
    Noise comes from `row_rngs(seed, ...)`, as in `latent_walk`."""
    rngs, width = row_rngs(seed, len(u_obs)), u_obs.shape[1]
    u = u_obs if steps == 0 else diffuse_to(u_obs, steps, sched, row_draws(rngs, width))
    for t in range(max(steps, 1), 0, -1):
        u = inference_forward(params, cfg, u, contexts, t)[2].value
        if stochastic and t >= 2:
            u = u + np.float32(np.sqrt(sched.betas[t - 1])) * row_draws(rngs, width)
    return u


@pytest.fixture(scope="module")
def model_world():
    cfg = CamAeConfig(num_users=6, num_items=8, latent_dim=4, attn_dim=2,
                      layers=1, hops=3, hop_weights=(0.6, 0.4))
    params = camae.init_params(cfg, seed=90)
    sched = build_schedule(6)
    rng = np.random.default_rng(91)
    u_obs = (rng.random((4, 8)) < 0.4).astype(np.float32)
    contexts = {h: rng.random((4, cfg.hop_dim(h))).astype(np.float32)
                for h in cfg.hop_list}
    return params, cfg, sched, u_obs, contexts


class TestDenoiseInfer:
    def test_zero_steps_is_single_clean_pass(self, model_world):
        params, cfg, sched, u_obs, contexts = model_world
        got = evaluation.denoise_infer(params, cfg, sched, u_obs, contexts, 0)
        tape, _, out = inference_forward(params, cfg, u_obs, contexts, 1)
        np.testing.assert_array_equal(got, out.value)

    def test_matches_manual_reverse_walk(self, model_world):
        # Inference conditions once per batch and builds D E once per call;
        # the oracle records every step on a tape of its own. Same bits, in
        # every variant, with and without re-noise.
        _, cfg, sched, u_obs, contexts = model_world
        for variant in camae.VARIANTS:
            vcfg = dataclasses.replace(cfg, variant=variant)
            params = camae.init_params(vcfg, seed=90)
            for steps in (0, 1, 3):
                for stochastic in (False, True):
                    got = evaluation.denoise_infer(params, vcfg, sched, u_obs, contexts, steps,
                                                   rngs=row_rngs(7, len(u_obs)),
                                                   stochastic=stochastic)
                    want, tapes = latent_walk(params, vcfg, sched, u_obs, contexts, steps, 7,
                                              stochastic)
                    assert len(tapes) == max(steps, 1)
                    np.testing.assert_array_equal(got, want,
                                                  err_msg=f"{variant} {steps} {stochastic}")

    def test_item_space_walk_agrees(self):
        # Decoding every step and encoding it again gives the same scores
        # up to the rounding of the reassociated products, and the bits
        # themselves when no step is carried over.
        m = dataset.split_holdout(bench.synth_interactions(160, 300, 0.95, seed=12), seed=6)
        cfg = CamAeConfig(num_users=m.num_users, num_items=m.num_items, latent_dim=48,
                          attn_dim=8, layers=2, hops=3, hop_weights=(0.7, 0.3))
        ctx = graph.build_contexts(m, H=3)
        users = np.arange(128)
        u_obs = dataset.dense_rows(m, users, tags=(TAG_TRAIN,))
        contexts = {h: ctx.batch_rows(users, h) for h in cfg.hop_list}
        sched = build_schedule(20)
        for variant in camae.VARIANTS:
            vcfg = dataclasses.replace(cfg, variant=variant)
            params = camae.init_params(vcfg, seed=13)
            for steps in (0, 1, 10):
                for stochastic in (False, True):
                    got = evaluation.denoise_infer(params, vcfg, sched, u_obs, contexts, steps,
                                                   rngs=row_rngs(5, len(u_obs)),
                                                   stochastic=stochastic)
                    want = item_space_walk(params, vcfg, sched, u_obs, contexts, steps, 5,
                                           stochastic)
                    msg = f"{variant} {steps} {stochastic}"
                    if steps < 2:
                        np.testing.assert_array_equal(got, want, err_msg=msg)
                        continue
                    np.testing.assert_allclose(got, want, rtol=0, err_msg=msg,
                                               atol=32 * np.finfo(np.float32).eps
                                               * np.abs(want).max())
                    observed = u_obs > 0
                    np.testing.assert_array_equal(evaluation.rank_topk(got, observed, 10),
                                                  evaluation.rank_topk(want, observed, 10),
                                                  err_msg=msg)

    @pytest.mark.parametrize("stochastic", [False, True])
    def test_item_wide_products_do_not_grow_with_the_steps(self, model_world, monkeypatch,
                                                           stochastic):
        # Products with an |items|-wide operand: the hop-3 encoder, the
        # encoder of the corrupted rows, D E and the last decoder, whatever
        # the step count; a stochastic walk adds the encoder of each step's
        # re-noise. "no-ae" attends at full width, so its core reads |items|
        # in every step. The catalog width is one no other axis has.
        _, cfg, sched, u_obs, contexts = model_world
        cfg = dataclasses.replace(cfg, num_items=13)
        u_obs = np.resize(u_obs, (len(u_obs), 13))
        contexts = {**contexts, 3: np.resize(contexts[3], (len(u_obs), 13))}
        record, wide = nd.Tape.record, []

        def spy(tape, op, *inputs, **const):
            wide.append(op == "matmul" and any(13 in n.value.shape for n in inputs))
            return record(tape, op, *inputs, **const)

        monkeypatch.setattr(nd.Tape, "record", spy)
        for variant in ("full", "self-attn", "no-cross-attn"):
            vcfg = dataclasses.replace(cfg, variant=variant)
            params = camae.init_params(vcfg, seed=90)
            counts = {}
            for steps in (2, 3, 6):
                wide.clear()
                evaluation.denoise_infer(params, vcfg, sched, u_obs, contexts, steps,
                                         rngs=row_rngs(7, len(u_obs)), stochastic=stochastic)
                counts[steps] = sum(wide)
            hop3 = variant == "full"
            assert counts == {s: hop3 + 3 + stochastic * (s - 1) for s in counts}, variant

    @pytest.mark.parametrize("steps", [0, 3])
    def test_wide_rows_raise_before_any_product(self, model_world, monkeypatch, steps):
        params, cfg, sched, u_obs, contexts = model_world
        wide = np.concatenate([u_obs, u_obs[:, :1]], axis=1)
        ops = []
        monkeypatch.setattr(nd.Tape, "record", lambda tape, op, *a, **c: ops.append(op))
        monkeypatch.setattr(nd, "matmul", lambda *a: ops.append("matmul"))
        with pytest.raises(ShapeError, match=f"must be \\(B, {cfg.num_items}\\)"):
            evaluation.denoise_infer(params, cfg, sched, wide, contexts, steps,
                                     rngs=row_rngs(7, len(wide)))
        assert ops == []

    @pytest.mark.parametrize("steps", [0, 1, 5])
    def test_hop_encoders_run_once_per_call(self, model_world, monkeypatch, steps):
        # Products that read a hop context: one per hop and call, whatever
        # the step count, and none where attention takes no hop queries.
        _, cfg, sched, u_obs, contexts = model_world
        record = nd.Tape.record
        reads = []

        def spy(tape, op, *inputs, **const):
            reads.extend(h for h, c in contexts.items()
                         if any(node.value is c for node in inputs))
            return record(tape, op, *inputs, **const)

        monkeypatch.setattr(nd.Tape, "record", spy)
        for variant in camae.VARIANTS:
            vcfg = dataclasses.replace(cfg, variant=variant)
            reads.clear()
            evaluation.denoise_infer(camae.init_params(vcfg, seed=90), vcfg, sched, u_obs,
                                     contexts, steps, rngs=row_rngs(7, len(u_obs)))
            hop_queries = variant in ("full", "no-ae")
            assert sorted(reads) == (list(cfg.hop_list) if hop_queries else []), variant

    def test_deterministic_given_rng_seed(self, model_world):
        params, cfg, sched, u_obs, contexts = model_world
        runs = [evaluation.denoise_infer(params, cfg, sched, u_obs, contexts,
                                         4, rngs=row_rngs(11, len(u_obs)))
                for _ in range(2)]
        np.testing.assert_array_equal(runs[0], runs[1])
        other = evaluation.denoise_infer(params, cfg, sched, u_obs, contexts,
                                         4, rngs=row_rngs(12, len(u_obs)))
        assert not np.array_equal(runs[0], other)

    def test_one_generator_per_row(self, model_world):
        # A walk with steps has no default generators: seeding them by
        # batch position would tie a row's noise to its batch mates.
        params, cfg, sched, u_obs, contexts = model_world
        with pytest.raises(ContractError, match="0 noise generators"):
            evaluation.denoise_infer(params, cfg, sched, u_obs, contexts, 4)
        for n in (len(u_obs) - 1, len(u_obs) + 1):
            with pytest.raises(ContractError, match="noise generators"):
                evaluation.denoise_infer(params, cfg, sched, u_obs, contexts,
                                         4, rngs=row_rngs(11, n))

    def test_stochastic_walk_differs(self, model_world):
        params, cfg, sched, u_obs, contexts = model_world
        plain = evaluation.denoise_infer(params, cfg, sched, u_obs, contexts,
                                         4, rngs=row_rngs(13, len(u_obs)))
        noisy = evaluation.denoise_infer(params, cfg, sched, u_obs, contexts,
                                         4, rngs=row_rngs(13, len(u_obs)),
                                         stochastic=True)
        assert not np.array_equal(plain, noisy)

    def test_steps_range_contract(self, model_world):
        params, cfg, sched, u_obs, contexts = model_world
        for bad in (-1, sched.T + 1):
            with pytest.raises(ContractError):
                evaluation.denoise_infer(params, cfg, sched, u_obs, contexts,
                                         bad)

    @pytest.mark.parametrize("steps", [0, 10])
    def test_inference_keeps_no_gradient_state(self, monkeypatch, steps):
        cfg = CamAeConfig(num_users=9, num_items=11, latent_dim=7, attn_dim=3,
                          layers=2, hops=3, hop_weights=(0.6, 0.4))
        params = camae.init_params(cfg, seed=92)
        sched = build_schedule(12)
        rng = np.random.default_rng(93)
        u_obs = (rng.random((5, 11)) < 0.4).astype(np.float32)
        contexts = {h: rng.random((5, cfg.hop_dim(h))).astype(np.float32)
                    for h in cfg.hop_list}
        tapes, outs = [], []
        denoise = camae.denoise

        def spy(tape, *args, **kwargs):
            tapes.append(tape)
            outs.append(denoise(tape, *args, **kwargs))
            return outs[-1]

        monkeypatch.setattr(camae, "denoise", spy)
        got = evaluation.denoise_infer(params, cfg, sched, u_obs, contexts, steps,
                                       rngs=row_rngs(94, len(u_obs)))
        monkeypatch.undo()
        assert len(tapes) == max(steps, 1)
        for tape, out in zip(tapes, outs):
            assert not tape.nodes
            assert out.inputs == () and not out.ctx and not out.requires_grad

        # The same walk through trainable leaves gives the same bits.
        # Attention keeps one log-sum-exp per query row for its backward,
        # and no (k, k) score block.
        want, trained = latent_walk(params, cfg, sched, u_obs, contexts, steps, 94,
                                    trainable=True)
        for tape in trained:
            kept = [n.ctx for n in tape.nodes if n.op == "cross_attention"]
            assert kept and all({name: a.shape for name, a in ctx.items()}
                                == {"lse": (len(u_obs), cfg.seq_len)} for ctx in kept)
        assert np.array_equal(got, want)

    def test_non_finite_scores_raise(self, model_world):
        params, cfg, sched, u_obs, contexts = model_world
        broken = dict(params, collapse=params["collapse"] * np.inf)
        with pytest.raises(NumericError):
            evaluation.denoise_infer(broken, cfg, sched, u_obs, contexts, 0)


class TestEvaluateEndToEnd:
    def test_model_report_is_well_formed(self, tagged_matrix):
        m = tagged_matrix
        cfg = CamAeConfig(num_users=m.num_users, num_items=m.num_items,
                          latent_dim=4, attn_dim=2, layers=1, hops=3,
                          hop_weights=(0.6, 0.4))
        params = camae.init_params(cfg, seed=92)
        contexts = graph.build_contexts(m, H=3)
        report = evaluation.evaluate(params, cfg, build_schedule(6), m,
                                     contexts, split="test", ks=(3, 5),
                                     infer_steps=2, batch_size=3)
        assert report.ks == (3, 5) and report.scorer == "model"
        assert 0 < report.num_users <= m.num_users
        for k in (3, 5):
            assert 0.0 <= report.recall[k] <= 1.0
            assert 0.0 <= report.ndcg[k] <= 1.0

    @pytest.mark.parametrize("stochastic", [False, True])
    def test_rankings_do_not_depend_on_the_batch_size(self, monkeypatch, stochastic):
        # Each user's noise comes from [infer_seed, user], so each step's
        # latent core input rows and the top-k lists are the same at any
        # batch size. Values may differ in the last bits, since BLAS sums a
        # product of another shape in another order, so they are compared
        # within a tolerance.
        rng = np.random.default_rng(95)
        rows = [sorted(rng.choice(30, size=int(rng.integers(4, 12)), replace=False).tolist())
                for _ in range(70)]
        m = dataset.split_holdout(make_matrix(rows, num_items=30), seed=4)
        cfg = CamAeConfig(num_users=m.num_users, num_items=m.num_items, latent_dim=6,
                          attn_dim=4, layers=2, hops=3, hop_weights=(0.6, 0.4))
        params = camae.init_params(cfg, seed=96)
        contexts = graph.build_contexts(m, H=3)
        rank_topk, denoise = evaluation.rank_topk, camae.denoise
        lists, inputs = [], []
        monkeypatch.setattr(evaluation, "rank_topk",
                            lambda *a: lists.append(rank_topk(*a)) or lists[-1])
        monkeypatch.setattr(camae, "denoise", lambda tape, leaves, config, z, *rest:
                            inputs.append(z.value) or denoise(tape, leaves, config, z, *rest))
        tops, walks = [], []
        for batch_size in (7, 64, m.num_users):
            lists.clear()
            inputs.clear()
            evaluation.evaluate(params, cfg, build_schedule(8), m, contexts, ks=(5,),
                                infer_steps=4, infer_seed=3, stochastic=stochastic,
                                batch_size=batch_size)
            tops.append(np.concatenate(lists))
            walks.append(np.concatenate([np.stack(inputs[at:at + 4])
                                         for at in range(0, len(inputs), 4)], axis=1))
        assert len(lists) == 1 and walks[2].shape == (4, m.num_users, cfg.latent_dim)
        for top, walk in zip(tops[:2], walks[:2]):
            np.testing.assert_array_equal(top, tops[2])
            np.testing.assert_allclose(walk, walks[2], rtol=0, atol=1e-5)

    def test_interpolated_scores_do_not_depend_on_the_batch_size(self, monkeypatch):
        # At latent_dim 64 every attention of this model interpolates: its
        # node interval and count come from each user's own row, so a
        # user's scores, and its top-10, are the same alone, among 7 and
        # among 128.
        rng = np.random.default_rng(97)
        rows = [sorted(rng.choice(80, size=int(rng.integers(5, 16)), replace=False).tolist())
                for _ in range(150)]
        m = dataset.split_holdout(make_matrix(rows, num_items=80), seed=5)
        cfg = CamAeConfig(num_users=m.num_users, num_items=m.num_items, latent_dim=64,
                          attn_dim=8, layers=2, hops=3, hop_weights=(0.6, 0.4))
        params = camae.init_params(cfg, seed=98)
        contexts = graph.build_contexts(m, H=3)
        rank_topk, plan = evaluation.rank_topk, nd._plan
        scores, lists, nodes = [], [], []
        monkeypatch.setattr(evaluation, "rank_topk", lambda s, *rest: scores.append(s)
                            or lists.append(rank_topk(s, *rest)) or lists[-1])
        monkeypatch.setattr(nd, "_plan", lambda *args: nodes.append(plan(*args)[1])
                            or plan(*args))
        runs = []
        for batch_size in (1, 7, 128):
            scores.clear()
            lists.clear()
            evaluation.evaluate(params, cfg, build_schedule(8), m, contexts, ks=(10,),
                                infer_steps=3, infer_seed=2, batch_size=batch_size)
            runs.append((np.concatenate(scores), np.concatenate(lists)))
        assert np.concatenate(nodes).min() > 0
        assert len(runs[2][0]) > 128
        for got, top in runs[:2]:
            np.testing.assert_array_equal(top, runs[2][1])
            np.testing.assert_allclose(got, runs[2][0], rtol=1e-5,
                                       atol=1e-6 * np.abs(runs[2][0]).max())

    def test_include_val_controls_scorer_inputs(self, tagged_matrix):
        m = tagged_matrix
        seen = {}

        def capture(tag):
            def fn(users, u_obs):
                seen[tag] = seen.get(tag, 0.0) + float(u_obs.sum())
                return np.ones((len(users), m.num_items))
            return fn

        evaluation.evaluate_scores(capture("with"), m, "test", (3,),
                                   include_val=True)
        evaluation.evaluate_scores(capture("without"), m, "test", (3,),
                                   include_val=False)
        val_count = sum(len(m.user_items(u, TAG_VAL))
                        for u in range(m.num_users))
        assert val_count > 0
        assert seen["with"] == seen["without"] + val_count


class TestReports:
    def test_json_and_text_rendering(self):
        report = evaluation.MetricsReport(
            split="test", num_users=5, ks=(1, 3),
            recall={1: 0.5, 3: 0.75}, ndcg={1: 0.5, 3: 0.6})
        blob = json.loads(report.to_json())
        assert blob["recall"] == {"1": 0.5, "3": 0.75}
        assert blob["num_users"] == 5 and blob["scorer"] == "model"
        text = report.format_text()
        assert "model on test (5 users)" in text
        assert len(text.splitlines()) == 4  # title, header, one row per k


class TestPopularityBaseline:
    def test_hand_worked_counts(self):
        m = make_matrix(
            [[0, 1, 2], [0, 1], [1, 2, 3]], num_items=4,
            tags=[[TAG_TRAIN, TAG_TRAIN, TAG_TEST], [TAG_TEST, TAG_TRAIN],
                  [TAG_TRAIN, TAG_TRAIN, TAG_TEST]])
        # Train counts per item: [1, 3, 1, 0]. Per user at k = 1:
        # user0 picks item 2 (hit), user1 picks item 0 on the 1-vs-1 tie
        # with item 2 (hit), user2 picks item 0 (miss on target 3).
        report = evaluation.popularity_report(m, split="test", ks=(1,))
        assert report.scorer == "popularity"
        np.testing.assert_allclose(report.recall[1], 2.0 / 3.0, rtol=1e-12)
        np.testing.assert_allclose(report.ndcg[1], 2.0 / 3.0, rtol=1e-12)
