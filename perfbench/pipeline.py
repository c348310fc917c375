"""The three workloads and the closed loop that drives diffcf through them.

One caller runs the real pipeline through the package's public functions:
parse -> split -> build/save contexts (what `diffcf prepare` pays), load
(what every `train` or `evaluate` start pays), then rounds of training
steps and a validation pass, the way `train.fit` alternates them. Each
step starts when the previous one returns. Every output is checked, and a
check that does not hold counts as a failed operation.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from diffcf import camae, config, dataset, graph, ndtensor as nd, train
from diffcf import eval as evaluation
from diffcf.errors import DiffcfError

import gen

MONITOR_K = 10
# Prepare and load each repeat for this many seconds before the timed loop
# (at least once) and again after it, and their medians are reported: CPU
# speed on a shared host drifts over seconds, and samples spread across the
# run steady the median.
REPEAT_S = 1.5


@dataclass(frozen=True)
class Workload:
    name: str
    shape: gen.Shape
    overrides: dict
    steps_per_round: int  # training steps per round; 0 means one full epoch
    eval_users: int       # the validation pass scores users 0..n-1; 0 means all
    checkpoint: bool      # setup writes a checkpoint that the run resumes from


# ML-1M activity: median 96 ratings per user, log-normal spread, at least 20.
_ML1M_ACTIVITY = dict(median_items=96, sigma=1.04, min_items=20, max_share=0.62, zipf=0.6)

WORKLOADS = {w.name: w for w in (
    Workload(
        "ml1m_train",
        gen.Shape(users=6040, items=3706, **_ML1M_ACTIVITY),
        overrides={}, steps_per_round=5, eval_users=32,
        checkpoint=False),
    Workload(
        "ml1m_eval",
        gen.Shape(users=128, items=3706, **_ML1M_ACTIVITY),
        overrides={}, steps_per_round=2, eval_users=0,
        checkpoint=True),
    Workload(
        "wide_fit",
        gen.Shape(users=1200, items=30000, median_items=15, sigma=0.6, min_items=8,
                  max_share=0.01, zipf=0.6),
        overrides={"latent_dim": 128}, steps_per_round=0, eval_users=128,
        checkpoint=False),
)}


# ------------------------------------------------------------------ checks


@dataclass
class Checks:
    """Operations attempted and failed, and the time spent checking them."""
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    seconds: float = 0.0

    def record(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{what}: {detail}" if detail else what)
        return ok


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.data)
    return h.hexdigest()


def contexts_digest(ctxs: graph.HopContexts) -> str:
    parts = [np.asarray([ctxs.num_users, ctxs.num_items])]
    for h in ctxs.hop_list:
        a = ctxs.hops[h]
        parts += [np.asarray(a.shape), a.indptr.astype(np.int64),
                  a.indices.astype(np.int32), a.data.astype(np.float32)]
    return digest(*parts)


def params_digest(params: dict) -> str:
    return digest(*(params[k].astype(np.float32) for k in sorted(params)))


def bad_context_rows(ctxs: graph.HopContexts) -> int:
    """Rows of any hop whose values do not sum to 1 (or are all zero)."""
    bad = 0
    for a in ctxs.hops.values():
        full = np.diff(a.indptr) > 0
        sums = np.add.reduceat(a.data, a.indptr[:-1][full], dtype=np.float64) \
            if full.any() else np.zeros(0)
        bad += int((np.abs(sums - 1.0) > 1e-5).sum())
    return bad


def same_matrix(a: dataset.InteractionMatrix, b: dataset.InteractionMatrix) -> bool:
    return (a.num_users, a.num_items) == (b.num_users, b.num_items) and all(
        np.array_equal(getattr(a, f), getattr(b, f)) for f in ("indptr", "indices", "tags"))


class RankingCapture:
    """Keeps each (top-k, excluded) pair `eval.rank_topk` returns, so that a
    pass's rankings can be checked and digested after it ends."""

    def __init__(self):
        self.calls: list[tuple[np.ndarray, np.ndarray]] = []
        self._original = None

    def install(self) -> None:
        self._original = original = evaluation.rank_topk
        calls = self.calls

        def capture(scores, exclude, k):
            top = original(scores, exclude, k)
            calls.append((top, exclude))
            return top

        evaluation.rank_topk = capture

    def uninstall(self) -> None:
        if self._original is not None:
            evaluation.rank_topk = self._original

    def check(self, checks: Checks, what: str, report) -> str:
        """Checks one pass and returns the digest of its top-k lists."""
        rows = sum(top.shape[0] for top, _ in self.calls)
        bad = 0
        for top, exclude in self.calls:
            observed = np.take_along_axis(exclude, top, axis=1).any(axis=1)
            s = np.sort(top, axis=1)
            dup = (s[:, 1:] == s[:, :-1]).any(axis=1)
            bad += int((observed | dup).sum())
        in_range = all(0.0 <= m[k] <= 1.0 for m in (report.recall, report.ndcg)
                       for k in report.ks)
        checks.record(what, rows == report.num_users and bad == 0 and in_range,
                      f"{rows} lists for {report.num_users} users, {bad} with an observed "
                      f"item or a duplicate, metrics in [0,1]: {in_range}")
        out = digest(*(top for top, _ in self.calls)) if self.calls else ""
        self.calls.clear()
        return out


# ---------------------------------------------------------------- pipeline


def scored_subset(matrix: dataset.InteractionMatrix, n: int) -> dataset.InteractionMatrix:
    """The matrix with validation items of users n.. retagged as test, so a
    validation pass scores users 0..n-1 only; model inputs are unchanged."""
    if not n:
        return matrix
    owner = np.repeat(np.arange(matrix.num_users), np.diff(matrix.indptr.astype(np.int64)))
    tags = matrix.tags.copy()
    tags[(owner >= n) & (tags == dataset.TAG_VAL)] = dataset.TAG_TEST
    return replace(matrix, tags=tags)


def batch_stream(matrix, contexts, model_cfg, sched, seed: int, batch_size: int,
                 epoch: int):
    """Training batches drawn exactly as `train.train_epoch` draws them.
    Yields (users in batch, last batch of its epoch, train_step arguments)."""
    while True:
        rng = np.random.default_rng([seed, epoch])
        order = rng.permutation(matrix.num_users)
        for lo in range(0, order.size, batch_size):
            users = order[lo:lo + batch_size]
            u0 = dataset.dense_rows(matrix, users)
            ctx = {h: contexts.batch_rows(users, h) for h in model_cfg.hop_list}
            t = rng.integers(1, sched.T + 1, size=users.size)
            noise = rng.standard_normal(u0.shape).astype(u0.dtype)
            yield users.size, lo + batch_size >= order.size, (u0, ctx, t, noise)
        epoch += 1


def repeat(once, times: list[float]) -> None:
    """Call `once` (which appends its duration to `times`) at least once,
    then again while another call is expected to end within REPEAT_S."""
    until = time.perf_counter() + REPEAT_S
    while not times or time.perf_counter() + statistics.median(times) <= until:
        once()


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it, but never below the median: with 20 or fewer
    samples no percentile above the median has ten beyond it, and the
    median is reported."""
    s = sorted(samples)
    q = max(0.5, (len(s) - 10) / len(s))
    return s[math.ceil(q * len(s)) - 1], 100.0 * q


def all_finite(params: dict) -> bool:
    return all(np.isfinite(p).all() for p in params.values())


@dataclass
class Outcome:
    metrics: dict[str, tuple[float, str]]
    record: dict
    checks: Checks


def run(wl: Workload, seed: int, seconds: float, work: Path, started: float) -> Outcome:
    """One closed-loop run of `wl`. `started` is when the process began, so
    set-up includes start-up; files go under `work`."""
    checks = Checks()
    cfg = config.defaults()  # the program's own seeds stay at their defaults
    cfg.update(wl.overrides)
    config_text = config.config_to_text(cfg)
    sched = config.schedule_config(cfg)
    ratings, mpath, cpath = work / "ratings.dat", work / "matrix.cfdm", work / "contexts.cfhc"
    setup_ckpt, run_ckpt = work / "setup.cfck", work / "run.cfck"

    t0 = time.perf_counter()
    lines = gen.write_ratings(ratings, wl.shape, seed)
    gen_s = time.perf_counter() - t0

    prepare_times, load_times, reference, state = [], [], {}, {}

    def prepare() -> None:
        """What `diffcf prepare` pays, checked against the first repeat."""
        t0 = time.perf_counter()
        matrix = dataset.parse_interactions(ratings)
        matrix = dataset.split_holdout(matrix, tuple(cfg["split"]), seed=int(cfg["split_seed"]))
        dataset.save_matrix(mpath, matrix)
        ctxs = graph.build_contexts(matrix, H=int(cfg["hops"]))
        graph.save_contexts(cpath, ctxs)
        t1 = time.perf_counter()
        prepare_times.append(t1 - t0)
        rep = {"matrix": matrix, "contexts": contexts_digest(ctxs),
               "nnz": {h: int(a.nnz) for h, a in ctxs.hops.items()},
               "density": {h: a.nnz / max(1, a.shape[0] * a.shape[1])
                           for h, a in ctxs.hops.items()}}
        bad_rows = bad_context_rows(ctxs)
        del ctxs
        first = reference.setdefault("rep", rep)
        checks.record("prepare", matrix.num_interactions == lines
                      and matrix.num_users == wl.shape.users and bad_rows == 0
                      and rep["contexts"] == first["contexts"]
                      and same_matrix(matrix, first["matrix"]),
                      f"{matrix.num_interactions} of {lines} lines, {matrix.num_users} users, "
                      f"{bad_rows} context rows not summing to 1 or 0, or a repeat differed")
        checks.seconds += time.perf_counter() - t1

    def load() -> None:
        """What every `train` or `evaluate` start pays, checked against
        what was written."""
        state.clear()
        t0 = time.perf_counter()
        loaded = dataset.load_matrix(mpath)
        state["contexts"] = graph.load_contexts(cpath)
        if wl.checkpoint:
            state["ckpt"] = nd.load_checkpoint(setup_ckpt)
        t1 = time.perf_counter()
        load_times.append(t1 - t0)
        ok = (same_matrix(loaded, reference["rep"]["matrix"])
              and contexts_digest(state["contexts"]) == reference["rep"]["contexts"])
        if wl.checkpoint:
            ok = ok and params_digest(state["ckpt"][0]) == saved \
                and state["ckpt"][3] == config_text
        checks.record("load", ok, "a loaded artifact differs from what was written")
        checks.seconds += time.perf_counter() - t1

    repeat(prepare, prepare_times)
    built = reference["rep"]
    matrix = built["matrix"]
    artifacts_bytes = mpath.stat().st_size + cpath.stat().st_size
    model_cfg = config.model_config(cfg, matrix.num_users, matrix.num_items)

    saved = None
    if wl.checkpoint:
        params = camae.init_params(model_cfg, seed=int(cfg["train_seed"]))
        nd.save_checkpoint(setup_ckpt, params, config_text, sched.fields(),
                           adam=nd.init_adam(params, lr=float(cfg["lr"])))
        saved = params_digest(params)
        del params

    repeat(load, load_times)
    contexts = state["contexts"]
    if wl.checkpoint:
        params, adam = state["ckpt"][:2]
    else:
        params = camae.init_params(model_cfg, seed=int(cfg["train_seed"]))
        adam = nd.init_adam(params, lr=float(cfg["lr"]))
    param_bytes = sum(p.nbytes for p in params.values())
    batch, train_seed = int(cfg["batch_size"]), int(cfg["train_seed"])
    eval_matrix = scored_subset(matrix, wl.eval_users)
    step_args = (model_cfg, sched, str(cfg["weighting"]))

    # Warm-up: one step on copies, from a batch the timed loop never sees.
    warm = batch_stream(matrix, contexts, model_cfg, sched, train_seed, batch, epoch=0)
    _, _, args = next(warm)
    loss = train.train_step({k: v.copy() for k, v in params.items()}, copy.deepcopy(adam),
                            *step_args, *args)
    checks.record("warm-up step", bool(np.isfinite(loss)), f"loss {loss}")
    del warm, args

    capture = RankingCapture()
    capture.install()
    try:
        timed_from = time.perf_counter()
        setup_s = (timed_from - started - checks.seconds - sum(prepare_times)
                   - sum(load_times) + statistics.median(prepare_times)
                   + statistics.median(load_times))
        stream = batch_stream(matrix, contexts, model_cfg, sched, train_seed, batch, epoch=1)
        step_times, step_users, losses, rounds = [], 0, [], []
        pass_times, pass_users, pass_digests = [], 0, []
        best, best_digest, aborted = -np.inf, None, False
        while not aborted:
            round_start = time.perf_counter()
            round_losses = []
            while True:
                t0 = time.perf_counter()
                n, last, args = next(stream)
                try:
                    loss = train.train_step(params, adam, *step_args, *args)
                except DiffcfError as e:
                    checks.record("train step", False, repr(e))
                    aborted = True
                    break
                step_times.append(time.perf_counter() - t0)
                step_users += n
                round_losses.append(loss)
                checks.record("train step", bool(np.isfinite(loss)) and all_finite(params),
                              f"loss {loss} or an updated parameter is not finite")
                if len(round_losses) == wl.steps_per_round or (last and not wl.steps_per_round):
                    break
            if aborted:
                break
            losses.append(round_losses)
            t0 = time.perf_counter()
            report = evaluation.evaluate(
                params, model_cfg, sched, eval_matrix, contexts, split="val",
                ks=(MONITOR_K,), infer_steps=int(cfg["infer_steps"]),
                infer_seed=int(cfg["infer_seed"]), stochastic=bool(cfg["stochastic_infer"]),
                include_val=False, batch_size=int(cfg["eval_batch"]))
            pass_times.append(time.perf_counter() - t0)
            pass_users += report.num_users
            pass_digests.append(capture.check(checks, "validation pass", report))
            if report.ndcg[MONITOR_K] > best:  # train.fit's checkpoint rule
                best = report.ndcg[MONITOR_K]
                nd.save_checkpoint(run_ckpt, params, config_text, sched.fields(), adam=adam)
                best_digest = params_digest(params)
            now = time.perf_counter()
            rounds.append(now - round_start)
            if now - timed_from + rounds[-1] > seconds:
                break
        timed_s = time.perf_counter() - timed_from

        floor = evaluation.popularity_report(eval_matrix, split="val", ks=(MONITOR_K,),
                                             include_val=False,
                                             batch_size=int(cfg["eval_batch"]))
        floor_digest = capture.check(checks, "popularity pass", floor)
    finally:
        capture.uninstall()
    if best_digest is not None:
        p2, _, _, text = nd.load_checkpoint(run_ckpt)
        checks.record("checkpoint round trip",
                      params_digest(p2) == best_digest and text == config_text,
                      "the reloaded checkpoint differs from the parameters saved")
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    del stream, contexts  # so a reload does not hold two copies of the contexts
    repeat(prepare, prepare_times)
    repeat(load, load_times)

    tail_s, tail_pct = tail(step_times) if step_times else (float("nan"), 0.0)
    metrics = {
        "setup_s": (setup_s, "s"),
        "prepare_s": (statistics.median(prepare_times), "s"),
        "load_s": (statistics.median(load_times), "s"),
        "artifacts_mb": (artifacts_bytes / 1e6, "MB"),
        "train_users_per_s": (step_users / sum(step_times) if step_times else 0.0, "1/s"),
        "train_step_p50_s": (statistics.median(step_times) if step_times else 0.0, "s"),
        "train_step_tail_s": (tail_s, "s"),
        "eval_users_per_s": (pass_users / sum(pass_times) if pass_times else 0.0, "1/s"),
        "peak_rss_mb": (peak_rss / 1e6, "MB"),
        "train_loss": (float(np.mean(losses[0])) if losses else float("nan"), "loss"),
    }
    counts = {
        "graph.contexts_bytes": (cpath.stat().st_size, "bytes"),
        "graph.hop2_nnz": (built["nnz"].get(2, 0), "count"),
        "graph.hop3_nnz": (built["nnz"].get(3, 0), "count"),
        "camae.param_bytes": (param_bytes, "bytes"),
    }
    first_round = hashlib.sha256(json.dumps(
        [built["contexts"], losses[:1], pass_digests[:1]]).encode()).hexdigest()
    record = {
        "data": {"lines": lines, "users": matrix.num_users, "items": matrix.num_items,
                 "interactions": matrix.num_interactions,
                 "context_nnz": built["nnz"], "context_density": built["density"]},
        "loop": {"rounds": len(rounds), "round_s": rounds, "timed_s": timed_s,
                 "train_steps": len(step_times), "train_users": step_users,
                 "train_step_tail": {"percentile": tail_pct, "samples": len(step_times)},
                 "eval_passes": len(pass_times), "eval_users": pass_users,
                 "prepare_reps_s": prepare_times, "load_reps_s": load_times,
                 "input_generation_s": gen_s, "checking_s": checks.seconds,
                 "step_losses": losses, "topk_digests": pass_digests},
        # Only what every run of one commit and seed computes: later rounds
        # depend on how many fit in the time.
        "exactness": {
            "first_round": first_round,
            "contexts": built["contexts"],
            "matrix": digest(matrix.indptr, matrix.indices, matrix.tags),
            "first_round_losses": losses[:1],
            "first_pass_topk": pass_digests[:1],
            "popularity_topk": floor_digest,
        },
        "counts": {k: v for k, (v, _) in counts.items()},
        "failures": checks.failures,
    }
    return Outcome(metrics | counts, record, checks)
