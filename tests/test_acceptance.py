"""Shipping gate: the eight release criteria, one test per criterion.

Every test prints a single verdict line ([n] PASS/FAIL/SKIP with the
measured numbers) through conftest.record_acceptance, replayed in the
terminal summary. Oracles are duplicated in this file on purpose: the
gate must not lean on helpers from the unit suites. The whole-batch
schedule forms it reads come from conftest, as the reference for all.

Criteria 4 and 5 need the MovieLens-1M ratings file. This sandbox has
no network access, so when the file is absent (env DIFFCF_ML1M unset
and no copy at a known path) those tests skip with an explicit reason
rather than silently passing; point DIFFCF_ML1M at ratings.dat to run
them. DIFFCF_ML1M_HOURS / DIFFCF_ML1M_ABLATION_HOURS cap the training
budgets (defaults 2.0 and 0.4 wall-clock hours).
"""

import functools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import conftest as reference
from conftest import inference_forward, make_matrix, record_acceptance
from diffcf import bench, camae, cli, dataset, eval as evaluation, graph
from diffcf import ndtensor as nd, train
from diffcf.camae import CamAeConfig
from diffcf.schedule import build_schedule, diffuse_to, diffuse_with_target

ML1M_ENV = "DIFFCF_ML1M"
ML1M_FALLBACKS = ("/root/pkg/data/ml-1m/ratings.dat",
                  "/root/data/ml-1m/ratings.dat")


def verdict(n: int, ok: bool, detail: str) -> None:
    record_acceptance(f"[{n}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def skip(n: int, reason: str) -> None:
    record_acceptance(f"[{n}] SKIP - {reason}")
    pytest.skip(reason)


def criterion(n: int):
    """Guarantee a verdict line even when a test dies before verdict()."""

    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except AssertionError:
                raise
            except Exception as exc:
                record_acceptance(f"[{n}] FAIL - unexpected "
                                  f"{type(exc).__name__}: {exc}")
                raise
        return inner

    return wrap


def ml1m_path() -> Path | None:
    candidates = [os.environ.get(ML1M_ENV)] + list(ML1M_FALLBACKS)
    for cand in candidates:
        if cand and Path(cand).is_file():
            return Path(cand)
    return None


# --------------------------------------------------------------- criterion 1


def dense_hop_oracle(mat: np.ndarray, user: int, h: int) -> np.ndarray:
    """Path-layer enumeration on an explicit dense adjacency: nodes at
    shortest-path distance h, scored by their edge count back into the
    distance-(h-1) layer, normalized in float64 and rounded once."""
    num_users, num_items = mat.shape
    n = num_users + num_items
    adj = np.zeros((n, n), dtype=bool)
    adj[:num_users, num_users:] = mat > 0
    adj[num_users:, :num_users] = mat.T > 0
    dist = np.full(n, -1, dtype=np.int64)
    dist[user] = 0
    frontier = np.zeros(n, dtype=bool)
    frontier[user] = True
    for depth in range(1, h + 1):
        reach = adj[frontier].any(axis=0)
        frontier = reach & (dist < 0)
        dist[frontier] = depth
    prev = dist == h - 1
    level = np.flatnonzero(dist == h)
    counts = adj[level][:, prev].sum(axis=1).astype(np.float64)
    side = num_items if h % 2 == 1 else num_users
    offset = num_users if h % 2 == 1 else 0
    out = np.zeros(side, dtype=np.float32)
    total = counts.sum()
    if total:
        out[level - offset] = (counts / total).astype(np.float32)
    return out


@criterion(1)
def test_01_hop_encoding_matches_enumeration_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(123)
    mismatches = 0
    graphs = 0
    for _ in range(100):
        users = int(rng.integers(1, 51))
        items = int(rng.integers(1, 51))
        dense = rng.random((users, items)) < 0.1
        rows = [np.flatnonzero(dense[u]).tolist() for u in range(users)]
        ctxs = graph.build_contexts(make_matrix(rows, num_items=items), H=4)
        graphs += 1
        everyone = np.arange(users)
        for h in (2, 3, 4):
            got = ctxs.batch_rows(everyone, h)
            for u in range(users):
                if not np.array_equal(got[u], dense_hop_oracle(dense, u, h)):
                    mismatches += 1

    worked = make_matrix([[0, 1, 4], [1, 2, 3], [1, 3, 4]], num_items=5)
    cw = graph.build_contexts(worked, H=3)
    two = cw.batch_rows(np.array([0]), 2)[0]
    three = cw.batch_rows(np.array([0]), 3)[0]
    example_ok = (np.array_equal(two, np.array([0, 1 / 3, 2 / 3],
                                               dtype=np.float32))
                  and np.array_equal(three, np.array([0, 0, 1 / 3, 2 / 3, 0],
                                                     dtype=np.float32)))
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and example_ok and elapsed < 10.0
    verdict(1, ok, f"build_contexts vs enumeration oracle: {mismatches} "
                   f"mismatches over {graphs} graphs x hops 2..4, worked "
                   f"example {'ok' if example_ok else 'WRONG'}, "
                   f"{elapsed:.1f}s (limit 10s)")


# --------------------------------------------------------------- criterion 2


@criterion(2)
def test_02_reverse_mode_gradients_match_finite_differences():
    started = time.perf_counter()
    sched = build_schedule(100)
    worst = ("", 0.0)
    checked = 0
    for layers in (1, 2):
        for t_embed in (False, True):
            cfg = CamAeConfig(num_users=6, num_items=8, latent_dim=8,
                              attn_dim=4, layers=layers, hops=3,
                              hop_weights=(0.7, 0.3), t_embed=t_embed)
            report = train.gradcheck_case(cfg, sched, max_entries=2000)
            checked += report.checked
            for name, rel in report.per_param.items():
                if rel > worst[1]:
                    worst = (f"N={layers} t_embed={t_embed} {name}", rel)
    elapsed = time.perf_counter() - started
    ok = worst[1] <= 1e-4 and elapsed < 60.0
    verdict(2, ok, f"gradients vs central differences: worst tensor "
                   f"{worst[0]} rel_err={worst[1]:.2e} (tol 1e-4), "
                   f"{checked} entries exhaustive over 4 configs, "
                   f"{elapsed:.1f}s (limit 60s)")


# --------------------------------------------------------------- criterion 3


def grid_posterior_mean(u_t: float, u0: float, t: int, sched) -> float:
    """Numerical integration of the reverse conditional on a fine grid."""
    grid = np.linspace(-12.0, 12.0, 400001)
    beta = sched.betas[t - 1]
    abar_prev = sched.alpha_bars[t - 1]
    log_w = (-(u_t - math.sqrt(1.0 - beta) * grid) ** 2 / (2.0 * beta)
             - (grid - math.sqrt(abar_prev) * u0) ** 2
             / (2.0 * (1.0 - abar_prev)))
    w = np.exp(log_w - log_w.max())
    return float((grid * w).sum() / w.sum())


@criterion(3)
def test_03_corruption_moments_and_posterior_oracle():
    sched = build_schedule(100)
    rng = np.random.default_rng(3)
    u0 = rng.random(8)
    draws = 100_000
    max_sigmas = 0.0
    for t in (1, 50, 100):
        noise = rng.standard_normal((draws, 8))
        u_t = diffuse_to(np.broadcast_to(u0, (draws, 8)), t, sched, noise)
        abar = sched.alpha_bars[t]
        mean_se = math.sqrt((1.0 - abar) / draws)
        mean_dev = np.abs(u_t.mean(axis=0) - math.sqrt(abar) * u0).max()
        var = u_t.var(axis=0, ddof=1)
        var_se = (1.0 - abar) * math.sqrt(2.0 / (draws - 1))
        var_dev = np.abs(var - (1.0 - abar)).max()
        max_sigmas = max(max_sigmas, mean_dev / mean_se, var_dev / var_se)

    # The posterior is read where training reads it: the target of
    # diffuse_with_target, checked at the u_t that call returns.
    max_post_err = 0.0
    for _ in range(20):
        t = int(rng.integers(2, sched.T + 1))
        u0s = float(rng.normal())
        eps = float(rng.normal())
        u_t, target = diffuse_with_target(np.array([[u0s]]), np.array([t]), sched,
                                          np.array([[eps]]), np.ones(1))
        uts, got = float(u_t[0, 0]), float(target[0, 0])
        max_post_err = max(max_post_err,
                           abs(got - grid_posterior_mean(uts, u0s, t, sched)))

    ok = max_sigmas <= 4.0 and max_post_err <= 1e-6
    verdict(3, ok, f"corruption moments within {max_sigmas:.2f} standard "
                   f"errors (limit 4) over 1e5 draws at t=1,50,100; "
                   f"training target vs grid integral max err {max_post_err:.2e} "
                   f"(tol 1e-6) at 20 random (t,u0,eps) triples")


# ------------------------------------------------------------ criteria 4 & 5


def _prepare_ml1m(path: Path):
    matrix = dataset.parse_interactions(path, fmt="movielens-dat")
    matrix = dataset.split_holdout(matrix, (0.7, 0.1, 0.2), seed=0)
    contexts = graph.build_contexts(matrix, H=3)
    return matrix, contexts


def _pivot_config(matrix, variant="full") -> CamAeConfig:
    return CamAeConfig(num_users=matrix.num_users, num_items=matrix.num_items,
                       latent_dim=500, attn_dim=16, layers=2, hops=3,
                       hop_weights=(0.7, 0.3), variant=variant)


def _fit_and_score(matrix, contexts, variant, seed, hours, tmp_path, tag):
    cfg = _pivot_config(matrix, variant)
    sched = build_schedule(100)
    tc = train.TrainConfig(batch_size=128, lr=3e-4, epochs=1000,
                           weighting="vlb", seed=seed, eval_every=2,
                           patience=10, max_hours=hours, infer_steps=10,
                           eval_batch=128, monitor_k=10)
    params = camae.init_params(cfg, seed=seed)
    ckpt = tmp_path / f"{tag}.cfck"
    train.fit(params, cfg, tc, sched, matrix, contexts, config_text=tag,
              checkpoint_path=ckpt, log_path=tmp_path / f"{tag}.jsonl")
    best, _, _, _ = nd.load_checkpoint(ckpt)
    report = evaluation.evaluate(best, cfg, sched, matrix, contexts,
                                 split="test", ks=(10,), infer_steps=10)
    return report


@criterion(4)
def test_04_benchmark_quality_on_movielens(tmp_path):
    path = ml1m_path()
    if path is None:
        skip(4, "MovieLens-1M ratings.dat not found and this sandbox has no "
                f"network access; set {ML1M_ENV} to run the 2 CPU-hour "
                "quality benchmark (targets: NDCG@10 >= 0.080, Recall@10 "
                ">= 0.095, >= 1.3x popularity NDCG@10)")
    hours = float(os.environ.get("DIFFCF_ML1M_HOURS", "2.0"))
    matrix, contexts = _prepare_ml1m(path)
    report = _fit_and_score(matrix, contexts, "full", 0, hours, tmp_path,
                            "pivot")
    pop = evaluation.popularity_report(matrix, split="test", ks=(10,))
    lift = report.ndcg[10] / pop.ndcg[10] if pop.ndcg[10] > 0 else math.inf
    ok = (report.ndcg[10] >= 0.080 and report.recall[10] >= 0.095
          and lift >= 1.3)
    verdict(4, ok, f"NDCG@10={report.ndcg[10]:.4f} (>=0.080), "
                   f"Recall@10={report.recall[10]:.4f} (>=0.095), "
                   f"popularity lift {lift:.2f}x (>=1.30x) "
                   f"within {hours:.2f}h budget")


@criterion(5)
def test_05_ablation_ordering_on_movielens(tmp_path):
    path = ml1m_path()
    if path is None:
        skip(5, "MovieLens-1M ratings.dat not found and this sandbox has no "
                f"network access; set {ML1M_ENV} to run the 3-seed ablation "
                "ordering (full >= query-from-state >= no-attention, with "
                ">= 1 pooled SD between the ends)")
    hours = float(os.environ.get("DIFFCF_ML1M_ABLATION_HOURS", "0.4"))
    matrix, contexts = _prepare_ml1m(path)
    scores = {}
    for variant in ("full", "self-attn", "no-cross-attn"):
        scores[variant] = [
            _fit_and_score(matrix, contexts, variant, seed, hours, tmp_path,
                           f"{variant}-s{seed}").ndcg[10]
            for seed in (0, 1, 2)]
    means = {v: float(np.mean(s)) for v, s in scores.items()}
    sds = {v: float(np.std(s, ddof=1)) for v, s in scores.items()}
    pooled = math.sqrt((sds["full"] ** 2 + sds["no-cross-attn"] ** 2) / 2.0)
    ordered = means["full"] >= means["self-attn"] >= means["no-cross-attn"]
    separated = (means["full"] - means["no-cross-attn"]) >= pooled
    verdict(5, ordered and separated,
            f"mean NDCG@10 full={means['full']:.4f} >= "
            f"self-attn={means['self-attn']:.4f} >= "
            f"no-cross-attn={means['no-cross-attn']:.4f}: {ordered}; "
            f"full vs no-cross-attn gap {means['full'] - means['no-cross-attn']:.4f} "
            f">= pooled SD {pooled:.4f}: {separated}")


# --------------------------------------------------------------- criterion 6


_SWEEP_SNIPPET = """
import json, sys
from diffcf import bench
run = bench.time_scaling(sys.argv[1], (2048, 4096, 8192, 16384, 32768),
                         fixed_dim=2048, sparsity=0.99, iters=12, warmup=3,
                         batch_size=64, seed=int(sys.argv[2]))
print(json.dumps(run.medians))
"""


def _sweep_medians(axis: str, seed: int) -> list[float]:
    """One sweep in a pristine subprocess. Step timings are sensitive to
    allocator history (a prior large workload in the same process makes
    mid-size temporaries arena-cached while the largest still page-fault,
    which reads as spurious curvature), so each replicate gets a fresh
    interpreter. The child imports the same `diffcf` as this process,
    whether or not PYTHONPATH names it."""
    src = str(Path(bench.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", _SWEEP_SNIPPET, axis,
                           str(seed)], capture_output=True, text=True,
                          timeout=540, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"sweep subprocess failed: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


@criterion(6)
def test_06_step_time_scales_linearly():
    # Per axis: three isolated replicate sweeps, then the per-size median
    # across replicates feeds the fits, so one machine hiccup in a single
    # replicate cannot tilt the curve.
    sizes = (2048, 4096, 8192, 16384, 32768)
    x = np.array(sizes, dtype=np.float64)
    details = []
    ok = True
    for axis in ("users", "items"):
        per_size = np.array([_sweep_medians(axis, rep) for rep in range(3)])
        y = np.median(per_size, axis=0)
        line = bench.fit_line(x, y)
        quad = bench.fit_quadratic_ci(x, y)
        good = line.r2 >= 0.98 and quad.indistinguishable_from_zero
        ok = ok and good
        details.append(
            f"{axis}: R2={line.r2:.4f} (>=0.98), quad coef {quad.coef:.2e} "
            f"in [{quad.ci_low:.2e},{quad.ci_high:.2e}] contains 0: "
            f"{quad.indistinguishable_from_zero}")
    verdict(6, ok, "seconds/step across " + str(list(sizes))
            + ", median of 3 isolated sweeps per axis - " + "; ".join(details))


# --------------------------------------------------------------- criterion 7


@criterion(7)
def test_07_low_rank_projection_probe():
    result = bench.attention_approx_probe(n=2048, d=16,
                                          ks=(32, 64, 128, 256),
                                          trials=50, eps=0.5, seed=0)
    meds = [result.medians[k] for k in result.ks]
    monotone = all(meds[i] >= meds[i + 1] for i in range(len(meds) - 1))
    frac = result.frac_within_bound
    ok = monotone and frac >= 0.95
    verdict(7, ok, f"median deviation over k=32/64/128/256: "
                   + "/".join(f"{m:.3f}" for m in meds)
                   + f" non-increasing: {monotone}; at bound k="
                   f"{result.bound_k} share within 0.5: {frac:.2f} (>=0.95)")


# --------------------------------------------------------------- criterion 8


def _det_world():
    matrix = dataset.split_holdout(
        bench.synth_interactions(64, 48, 0.85, seed=5),
        ratios=(0.6, 0.2, 0.2), seed=0)
    contexts = graph.build_contexts(matrix, H=3)
    cfg = CamAeConfig(num_users=matrix.num_users, num_items=48,
                      latent_dim=16, attn_dim=4, layers=1, hops=3,
                      hop_weights=(0.7, 0.3))
    return matrix, contexts, cfg, build_schedule(10)


def _frozen_batch_loss(params, cfg, sched, matrix, contexts) -> float:
    rng = np.random.default_rng(8)
    users = np.arange(min(16, matrix.num_users))
    u0 = dataset.dense_rows(matrix, users)
    ctx = {h: contexts.batch_rows(users, h) for h in cfg.hop_list}
    t = rng.integers(1, sched.T + 1, size=users.size)
    noise = rng.standard_normal(u0.shape).astype(np.float32)
    u_t = reference.diffuse_to(u0, t, sched, noise)
    target = reference.posterior_mean(u_t, u0, t, sched)
    scale = np.sqrt(train.step_weights(t, sched, "vlb") / users.size) \
        .astype(np.float32)
    tape, _, out = inference_forward(params, cfg, u_t, ctx, t)
    scaled = tape.record("scale", out, factor=scale[:, None])
    loss = tape.record("mse", scaled, tape.leaf(target * scale[:, None]))
    return float(loss.value)


@criterion(8)
def test_08_determinism_and_round_trips(tmp_path, monkeypatch):
    monkeypatch.delenv("DIFFCF_CACHE_DIR", raising=False)
    matrix, contexts, cfg, sched = _det_world()

    def two_epochs(tag):
        params = camae.init_params(cfg, seed=0)
        tc = train.TrainConfig(batch_size=16, lr=1e-3, epochs=2, seed=0,
                               eval_every=1, patience=50, infer_steps=2,
                               eval_batch=32, monitor_k=5)
        ckpt = tmp_path / f"{tag}.cfck"
        train.fit(params, cfg, tc, sched, matrix, contexts,
                  config_text="det", checkpoint_path=ckpt)
        return params, ckpt

    params_a, ckpt_a = two_epochs("a")
    params_b, ckpt_b = two_epochs("b")
    trains_identical = ckpt_a.read_bytes() == ckpt_b.read_bytes()

    loss_before = _frozen_batch_loss(params_a, cfg, sched, matrix, contexts)
    rt = tmp_path / "roundtrip.cfck"
    nd.save_checkpoint(rt, params_a, "det", sched.fields())
    loaded, _, _, _ = nd.load_checkpoint(rt)
    loss_after = _frozen_batch_loss(loaded, cfg, sched, matrix, contexts)
    loss_identical = loss_before == loss_after

    rng = np.random.default_rng(9)
    lines = []
    for u in range(10):
        for i in rng.choice(20, size=int(rng.integers(6, 10)), replace=False):
            lines.append(f"{u}\t{i}\t5")
    ratings = tmp_path / "ratings.tsv"
    ratings.write_text("\n".join(lines) + "\n")
    outs = []
    for tag in ("p1", "p2"):
        out = tmp_path / tag
        assert cli.main(["prepare", "--input", str(ratings),
                         "--out-dir", str(out)]) == 0
        outs.append(out)
    cache = cli.context_cache_path(outs[0] / "matrix.cfdm", 3).name
    prepare_identical = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("matrix.cfdm", cache))

    ok = trains_identical and loss_identical and prepare_identical
    verdict(8, ok, f"two seeded 2-epoch runs byte-identical: "
                   f"{trains_identical}; frozen-batch loss bitwise across "
                   f"save/load: {loss_identical} ({loss_before!r}); prepare "
                   f"idempotent bytes: {prepare_identical}")
