"""Verification suite for inference and full-ranking evaluation.

The ranking oracle below sorts candidate lists with python tuples
(score desc, item id asc) and accumulates recall/NDCG per user from the
textbook definitions, sharing nothing with the vectorized path.
"""

import json
import math

import numpy as np
import pytest

from conftest import make_matrix
from diffcf import camae, dataset, eval as evaluation, graph
from diffcf.camae import CamAeConfig
from diffcf.dataset import TAG_TEST, TAG_TRAIN, TAG_VAL
from diffcf.errors import ContractError, NumericError
from diffcf.schedule import build_schedule, diffuse_to


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
        tape, _, out = camae.run_batch(params, cfg, u_obs, contexts, 1)
        np.testing.assert_array_equal(got, tape.value(out))

    def test_matches_manual_reverse_walk(self, model_world):
        params, cfg, sched, u_obs, contexts = model_world
        got = evaluation.denoise_infer(params, cfg, sched, u_obs, contexts, 3,
                                       rng=np.random.default_rng(7))
        rng = np.random.default_rng(7)
        noise = rng.standard_normal(u_obs.shape).astype(u_obs.dtype)
        u = diffuse_to(u_obs, 3, sched, noise)
        for t in (3, 2, 1):
            tape, _, out = camae.run_batch(params, cfg, u, contexts, t)
            u = tape.value(out)
        np.testing.assert_array_equal(got, u)

    def test_deterministic_given_rng_seed(self, model_world):
        params, cfg, sched, u_obs, contexts = model_world
        runs = [evaluation.denoise_infer(params, cfg, sched, u_obs, contexts,
                                         4, rng=np.random.default_rng(11))
                for _ in range(2)]
        np.testing.assert_array_equal(runs[0], runs[1])
        other = evaluation.denoise_infer(params, cfg, sched, u_obs, contexts,
                                         4, rng=np.random.default_rng(12))
        assert not np.array_equal(runs[0], other)

    def test_stochastic_walk_differs(self, model_world):
        params, cfg, sched, u_obs, contexts = model_world
        plain = evaluation.denoise_infer(params, cfg, sched, u_obs, contexts,
                                         4, rng=np.random.default_rng(13))
        noisy = evaluation.denoise_infer(params, cfg, sched, u_obs, contexts,
                                         4, rng=np.random.default_rng(13),
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
        tapes = []
        forward = camae.camae_forward

        def spy(tape, *args, **kwargs):
            tapes.append(tape)
            return forward(tape, *args, **kwargs)

        monkeypatch.setattr(camae, "camae_forward", spy)
        got = evaluation.denoise_infer(params, cfg, sched, u_obs, contexts, steps,
                                       rng=np.random.default_rng(94))
        monkeypatch.undo()
        assert len(tapes) == max(steps, 1)
        k = cfg.latent_dim
        for tape in tapes:
            assert any(n.op == "cross_attention" for n in tape.nodes)
            for node in tape.nodes:
                assert not node.requires_grad
                assert "softmax" not in node.ctx
                assert np.shape(node.value)[-2:] != (k, k)

        # The same walk through trainable leaves gives the same bits.
        if steps == 0:
            tape, _, out = camae.run_batch(params, cfg, u_obs, contexts, 1)
            want = tape.value(out)
        else:
            noise = np.random.default_rng(94).standard_normal(u_obs.shape)
            want = diffuse_to(u_obs, steps, sched, noise.astype(u_obs.dtype))
            for t in range(steps, 0, -1):
                tape, _, out = camae.run_batch(params, cfg, want, contexts, t)
                assert any("softmax" in n.ctx for n in tape.nodes)
                want = tape.value(out)
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
