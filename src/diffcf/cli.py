"""Command-line entry points.

Subcommands: prepare, train, evaluate, bench-scaling, bench-attn,
gradcheck. Every config key is settable from a `key = value` config file
and overridable by a same-named flag; unknown keys and flags are
rejected. Exit codes: 0 success, 1 contract or numeric failure, 2 bad
input (unparsable files, bad flags, missing paths).

Artifacts always include an echo of the effective configuration, and
every byte-producing step is deterministic, so re-running `prepare` on
unchanged input reproduces identical files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import bench, camae, config as cfgmod, dataset, eval as evaluation, graph
from . import ndtensor as nd
from . import train as training
from .errors import ContractError, DiffcfError, FormatError, ParseError, atomic_write

PREP_KEYS = ("min_rating", "split", "split_seed", "hops")
MODEL_KEYS = ("hops", "latent_dim", "attn_dim", "layers", "hop_weights",
              "ff_hidden", "t_embed", "residual", "variant")
SCHED_KEYS = ("steps", "beta_min", "beta_max", "schedule_scale")
TRAIN_KEYS = ("batch_size", "lr", "epochs", "weighting", "train_seed",
              "eval_every", "patience", "max_hours")
EVAL_KEYS = ("topk", "infer_steps", "infer_seed", "stochastic_infer",
             "eval_batch", "include_val")

CACHE_ENV = "DIFFCF_CACHE_DIR"


def _add_config_flags(parser: argparse.ArgumentParser, keys) -> None:
    for key in dict.fromkeys(keys):
        kind, default, help_text = cfgmod.SCHEMA[key]
        flag = "--" + key.replace("_", "-")
        if kind == "bool":
            parser.add_argument(flag, dest=f"cfg_{key}", default=None,
                                action=argparse.BooleanOptionalAction,
                                help=f"{help_text} (default {default})")
        else:
            parser.add_argument(flag, dest=f"cfg_{key}", default=None, metavar="V",
                                help=f"{help_text} (default {default})")


def _int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(part) for part in raw.split(","))


def _seed(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _apply_flags(cfg: dict, args: argparse.Namespace) -> None:
    for name, value in vars(args).items():
        if not name.startswith("cfg_") or value is None:
            continue
        key = name[len("cfg_"):]
        if isinstance(value, bool):
            cfg[key] = value
        else:
            cfgmod.set_value(cfg, key, str(value))


def _effective_config(args: argparse.Namespace) -> dict:
    cfg = cfgmod.defaults()
    if getattr(args, "config", None):
        cfg = cfgmod.load_config_file(args.config, cfg)
    _apply_flags(cfg, args)
    return cfg


def matrix_path(data_dir) -> Path:
    return Path(data_dir) / "matrix.cfdm"


def context_cache_path(mpath: Path, hops: int) -> Path:
    """Cache location for hop contexts, named by the matrix's content so a
    re-prepared matrix never picks up another matrix's contexts: next to
    the matrix, or inside $DIFFCF_CACHE_DIR when that is set."""
    digest = hashlib.sha256(mpath.read_bytes()).hexdigest()[:16]
    return Path(os.environ.get(CACHE_ENV) or mpath.parent) / f"{digest}-h{hops}.cfhc"


def _load_contexts(matrix: dataset.InteractionMatrix, mpath: Path,
                   hops: int) -> graph.HopContexts:
    """Read the cached contexts, or build and cache them when the file is
    missing, does not match the matrix, or cannot be read (a stale format
    version, say)."""
    cpath = context_cache_path(mpath, hops)
    if cpath.exists():
        try:
            ctxs = graph.load_contexts(cpath)
        except FormatError:
            ctxs = None
        if (ctxs is not None and ctxs.num_users == matrix.num_users
                and ctxs.num_items == matrix.num_items
                and set(range(2, hops + 1)) <= set(ctxs.hop_list)):
            return ctxs
    return _build_contexts(matrix, cpath, hops)


def _build_contexts(matrix, cpath: Path, hops: int) -> graph.HopContexts:
    """Build the contexts and write them to the cache file `cpath`."""
    ctxs = graph.build_contexts(matrix, H=hops)
    cpath.parent.mkdir(parents=True, exist_ok=True)
    graph.save_contexts(cpath, ctxs)
    return ctxs


def _check_shapes(path, model_cfg: camae.CamAeConfig, params: dict,
                  adam: nd.AdamState | None = None) -> None:
    """Raises ContractError unless the checkpoint at `path` holds exactly
    the parameters `model_cfg` needs, each in its shape, and Adam moments
    of the same shapes."""
    want = {name: shape for name, (shape, _, _) in camae.param_shapes(model_cfg).items()}
    groups = {"": params} | ({"adam.m.": adam.m, "adam.v.": adam.v} if adam else {})
    for prefix, tensors in groups.items():
        for name in sorted(want.keys() | tensors.keys()):
            if name not in tensors:
                raise ContractError(f"{path}: tensor {prefix + name!r} is missing; "
                                    f"the model needs shape {want[name]}")
            if name not in want:
                raise ContractError(f"{path}: tensor {prefix + name!r} of shape "
                                    f"{tensors[name].shape} is not a model parameter")
            if tensors[name].shape != want[name]:
                raise ContractError(f"{path}: tensor {prefix + name!r} has shape "
                                    f"{tensors[name].shape}; the model needs {want[name]}")


def _write_text(path, text: str) -> None:
    """Replaces `path` with `text`; a failed write leaves the old file."""
    with atomic_write(path, "w") as f:
        f.write(text)


# ------------------------------------------------------------------ prepare


def cmd_prepare(args) -> int:
    cfg = _effective_config(args)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    min_rating = float(cfg["min_rating"]) or None
    matrix = dataset.parse_interactions(args.input, fmt=args.format,
                                        min_rating=min_rating)
    matrix = dataset.split_holdout(matrix, tuple(cfg["split"]), seed=int(cfg["split_seed"]))
    mpath = matrix_path(out)
    dataset.save_matrix(mpath, matrix)
    cpath = context_cache_path(mpath, int(cfg["hops"]))
    _build_contexts(matrix, cpath, int(cfg["hops"]))
    no_test = matrix.num_users - dataset.users_with_tag(matrix, dataset.TAG_TEST).size
    summary = {
        "num_users": matrix.num_users,
        "num_items": matrix.num_items,
        "num_interactions": matrix.num_interactions,
        "tag_counts": matrix.tag_counts(),
        "users_without_test_items": no_test,
        "matrix": str(mpath),
        "contexts": str(cpath),
        "config": {k: cfg[k] for k in PREP_KEYS},
    }
    _write_text(out / "prepare.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(json.dumps(summary, sort_keys=True))
    return 0


# -------------------------------------------------------------------- train


def cmd_train(args) -> int:
    cfg = _effective_config(args)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    mpath = matrix_path(args.data)
    matrix = dataset.load_matrix(mpath)
    contexts = _load_contexts(matrix, mpath, int(cfg["hops"]))
    model_cfg = cfgmod.model_config(cfg, matrix.num_users, matrix.num_items)
    sched = cfgmod.schedule_config(cfg)
    train_cfg = training.TrainConfig(
        batch_size=int(cfg["batch_size"]), lr=float(cfg["lr"]),
        epochs=int(cfg["epochs"]), weighting=str(cfg["weighting"]),
        seed=int(cfg["train_seed"]), eval_every=int(cfg["eval_every"]),
        patience=int(cfg["patience"]), max_hours=float(cfg["max_hours"]),
        infer_steps=int(cfg["infer_steps"]), infer_seed=int(cfg["infer_seed"]),
        stochastic_infer=bool(cfg["stochastic_infer"]), eval_batch=int(cfg["eval_batch"]))
    config_text = cfgmod.config_to_text(cfg)

    params = camae.init_params(model_cfg, seed=int(cfg["train_seed"]))
    adam = fit_state = None
    start_epoch = 1
    if args.resume:
        params, adam, _, old_text = nd.load_checkpoint(args.resume)
        if old_text != config_text:
            raise ContractError("resume: checkpoint config differs from requested config")
        _check_shapes(args.resume, model_cfg, params, adam)
        fit_state = nd.load_fit_state(args.resume)
        if adam is not None:
            batches = -(-matrix.num_users // train_cfg.batch_size)
            start_epoch = adam.step // batches + 1

    ckpt = out / "checkpoint.cfck"
    started = time.perf_counter()
    result = training.fit(params, model_cfg, train_cfg, sched, matrix, contexts,
                          config_text=config_text, checkpoint_path=ckpt,
                          log_path=out / "train_log.jsonl", adam=adam,
                          start_epoch=start_epoch, quiet=args.quiet, fit_state=fit_state)
    summary = {
        "best_epoch": result.best_epoch,
        "best_val_ndcg": result.best_metric if np.isfinite(result.best_metric) else None,
        "epochs_run": len(result.history),
        "stopped": result.stopped_reason,
        "seconds": round(time.perf_counter() - started, 3),
        "checkpoint": result.checkpoint_path,
        "last_checkpoint": result.last_path,
    }
    _write_text(out / "result.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    _write_text(out / "config.echo", config_text)
    print(json.dumps(summary, sort_keys=True))
    return 0


# ----------------------------------------------------------------- evaluate


def cmd_evaluate(args) -> int:
    params, _, sched_fields, config_text = nd.load_checkpoint(args.checkpoint)
    cfg = cfgmod.parse_config_text(config_text)
    _apply_flags(cfg, args)
    sched = cfgmod.schedule_config(cfg)
    if sched.fields() != sched_fields:
        raise FormatError(f"{args.checkpoint}: stored schedule {sched_fields} differs from "
                          f"the {sched.fields()} of its config text")
    mpath = matrix_path(args.data)
    matrix = dataset.load_matrix(mpath)
    contexts = _load_contexts(matrix, mpath, int(cfg["hops"]))
    model_cfg = cfgmod.model_config(cfg, matrix.num_users, matrix.num_items)
    _check_shapes(args.checkpoint, model_cfg, params)
    report = evaluation.evaluate(
        params, model_cfg, sched, matrix, contexts, split=args.split,
        ks=tuple(cfg["topk"]), infer_steps=int(cfg["infer_steps"]),
        infer_seed=int(cfg["infer_seed"]), stochastic=bool(cfg["stochastic_infer"]),
        include_val=bool(cfg["include_val"]), batch_size=int(cfg["eval_batch"]))
    reports = [report]
    if args.baseline:
        reports.append(evaluation.popularity_report(
            matrix, split=args.split, ks=tuple(cfg["topk"]),
            include_val=bool(cfg["include_val"]), batch_size=int(cfg["eval_batch"])))
    for rep in reports:
        print(rep.format_text())
    if args.json:
        _write_text(args.json, "\n".join(rep.to_json() for rep in reports) + "\n")
    return 0


# -------------------------------------------------------------------- bench


def cmd_bench_scaling(args) -> int:
    run = bench.time_scaling(axis=args.axis, sizes=args.sizes, fixed_dim=args.fixed,
                             sparsity=args.sparsity, iters=args.iters,
                             warmup=args.warmup, batch_size=args.batch_size,
                             seed=args.seed)
    csv = run.to_csv()
    if args.out:
        _write_text(args.out, csv)
    print(csv, end="")
    print(f"linear r2={run.linear.r2:.5f} quad_coef_ci="
          f"[{run.quadratic.ci_low:.3e},{run.quadratic.ci_high:.3e}]", file=sys.stderr)
    return 0


def cmd_bench_attn(args) -> int:
    result = bench.attention_approx_probe(n=args.n, d=args.d, ks=args.ks,
                                          trials=args.trials, eps=args.eps,
                                          seed=args.seed)
    csv = result.to_csv()
    if args.out:
        _write_text(args.out, csv)
    print(csv, end="")
    return 0


# ---------------------------------------------------------------- gradcheck


def cmd_gradcheck(args) -> int:
    cfg = _effective_config(args)
    model_cfg = cfgmod.model_config(cfg, args.users, args.items)
    sched = cfgmod.schedule_config(cfg)
    report = training.gradcheck_case(model_cfg, sched, str(cfg["weighting"]),
                                     batch=args.batch, data_seed=args.seed,
                                     eps=args.eps, max_entries=args.max_entries)
    print(report.summary())
    return 0 if report.max_rel_err <= args.tol else 1


# --------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffcf",
        description="Train and evaluate a graph-conditioned diffusion recommender.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="parse, split, and encode a ratings file")
    p.add_argument("--input", required=True, help="interactions file")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--format", default="auto",
                   choices=("auto", "tsv", "csv", "colons", "movielens-dat"))
    p.add_argument("--config", help="key = value config file")
    _add_config_flags(p, PREP_KEYS)
    p.set_defaults(fn=cmd_prepare)

    p = sub.add_parser("train", help="fit the denoiser on prepared data")
    p.add_argument("--data", required=True, help="directory from `prepare`")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--quiet", action=argparse.BooleanOptionalAction, default=True,
                   help="suppress per-epoch lines on stdout")
    _add_config_flags(p, MODEL_KEYS + SCHED_KEYS + TRAIN_KEYS + EVAL_KEYS)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="rank the catalog and report metrics")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test", choices=("val", "test"))
    p.add_argument("--json", help="also write reports as JSON lines to this path")
    p.add_argument("--baseline", action="store_true",
                   help="also report the popularity baseline")
    _add_config_flags(p, EVAL_KEYS)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("bench-scaling", help="time optimization steps across sizes")
    p.add_argument("--axis", required=True, choices=("users", "items"))
    p.add_argument("--sizes", required=True, type=_int_list,
                   help="comma-separated sweep sizes")
    p.add_argument("--fixed", type=int, default=2048, help="size of the other axis")
    p.add_argument("--sparsity", type=float, default=0.99)
    p.add_argument("--iters", type=int, default=20)
    p.add_argument("--warmup", type=int, default=3)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", help="write CSV here")
    p.set_defaults(fn=cmd_bench_scaling)

    p = sub.add_parser("bench-attn", help="probe low-rank attention compression")
    p.add_argument("--n", type=int, default=2048)
    p.add_argument("--d", type=int, default=16)
    p.add_argument("--ks", type=_int_list, default="32,64,128,256")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", help="write CSV here")
    p.set_defaults(fn=cmd_bench_attn)

    p = sub.add_parser("gradcheck", help="finite-difference check of the gradients")
    p.add_argument("--users", type=int, default=6)
    p.add_argument("--items", type=int, default=8)
    p.add_argument("--batch", type=int, default=6)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--max-entries", type=int, default=200)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--config", help="key = value config file")
    _add_config_flags(p, MODEL_KEYS + SCHED_KEYS + ("weighting",))
    p.set_defaults(fn=cmd_gradcheck)

    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


def main(argv=None) -> int:
    try:
        return run(argv)
    except SystemExit as e:  # argparse reports its own errors on stderr
        return int(e.code or 0)
    except (ParseError, FormatError) as e:
        print(f"diffcf: error: {e.category}: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"diffcf: error: io: {e}", file=sys.stderr)
        return 2
    except DiffcfError as e:
        print(f"diffcf: error: {e.category}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
