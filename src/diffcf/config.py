"""Flat run configuration: one schema, three surfaces.

The same key set backs (1) `key = value` config files, (2) auto-generated
CLI flags, and (3) the canonical text stored as an array inside each
checkpoint. Canonical text is sorted and normalized so equal configs
always serialize to identical bytes.
"""

from __future__ import annotations

from .camae import CamAeConfig, VARIANTS
from .errors import ContractError
from .schedule import NoiseSchedule, build_schedule

# name -> (type, default, help). Types: int, float, bool, str, ints, floats.
SCHEMA: dict[str, tuple[str, object, str]] = {
    # data preparation
    "min_rating": ("float", 0.0, "drop interactions below this rating (0 disables)"),
    "split": ("floats", (0.7, 0.1, 0.2), "train/val/test fractions per user"),
    "split_seed": ("int", 0, "seed for the holdout shuffle"),
    "hops": ("int", 3, "deepest connectivity hop (context covers 2..hops)"),
    # model
    "latent_dim": ("int", 500, "compressed sequence length k"),
    "attn_dim": ("int", 16, "token width d inside attention"),
    "layers": ("int", 2, "attention/feedforward rounds"),
    "hop_weights": ("floats", (0.7, 0.3), "mixing weights for hops 2..H, must sum to 1"),
    "ff_hidden": ("int", 0, "feedforward hidden width (0 means 4*attn_dim)"),
    "t_embed": ("bool", True, "add sinusoidal timestep embedding"),
    "residual": ("bool", False, "add each round's input back to its output"),
    "variant": ("str", "full", f"one of {', '.join(VARIANTS)}"),
    # noise schedule
    "steps": ("int", 100, "diffusion steps T"),
    "beta_min": ("float", 1e-4, "first-step noise variance"),
    "beta_max": ("float", 0.02, "last-step noise variance"),
    "schedule_scale": ("float", 1.0, "noise scale: multiplies both beta_min and beta_max"),
    # training
    "batch_size": ("int", 128, "users per optimization step"),
    "lr": ("float", 3e-4, "Adam learning rate"),
    "epochs": ("int", 200, "maximum training epochs"),
    "weighting": ("str", "vlb", "per-step loss weighting: vlb or simple"),
    "train_seed": ("int", 0, "seed for init, shuffling, noise draws"),
    "eval_every": ("int", 5, "epochs between validation evaluations"),
    "patience": ("int", 10, "validation evals without improvement before stopping"),
    "max_hours": ("float", 0.0, "wall-clock training budget in hours (0 disables); "
                  "checked after each epoch, and a run past it validates once more, so "
                  "it can overrun by an epoch and a validation pass"),
    # evaluation
    "topk": ("ints", (10, 20), "cutoffs for recall/ndcg"),
    "infer_steps": ("int", 10, "corruption depth T' used at inference"),
    "infer_seed": ("int", 0, "seed for inference-time corruption noise"),
    "stochastic_infer": ("bool", False, "re-noise between reverse steps"),
    "eval_batch": ("int", 128, "users per inference batch"),
    "include_val": ("bool", True, "feed validation items as inputs at test time"),
}


def defaults() -> dict:
    return {k: v for k, (_, v, _) in SCHEMA.items()}


def _parse_value(key: str, kind: str, raw: str):
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if kind == "ints":
            return tuple(int(p) for p in raw.split(",") if p.strip())
        if kind == "floats":
            return tuple(float(p) for p in raw.split(",") if p.strip())
        return raw
    except ValueError:
        raise ContractError(f"config key {key!r}: cannot parse {raw!r} as {kind}") from None


def _format_value(kind: str, value) -> str:
    if kind == "bool":
        return "true" if value else "false"
    if kind in ("ints", "floats"):
        return ",".join(repr(v) if kind == "floats" else str(v) for v in value)
    if kind == "float":
        return repr(float(value))
    return str(value)


def parse_config_text(text: str, base: dict | None = None) -> dict:
    """Parse `key = value` lines over the defaults (or a given base).
    Unknown keys are rejected so typos cannot silently change a run."""
    cfg = dict(base) if base is not None else defaults()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ContractError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in SCHEMA:
            raise ContractError(f"config line {lineno}: unknown key {key!r}")
        cfg[key] = _parse_value(key, SCHEMA[key][0], value)
    return cfg


def load_config_file(path, base: dict | None = None) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config_text(f.read(), base)


def config_to_text(cfg: dict) -> str:
    unknown = set(cfg) - set(SCHEMA)
    if unknown:
        raise ContractError(f"unknown config keys: {sorted(unknown)}")
    lines = [f"{k} = {_format_value(SCHEMA[k][0], cfg[k])}" for k in sorted(cfg)]
    return "\n".join(lines) + "\n"


def set_value(cfg: dict, key: str, raw: str) -> None:
    if key not in SCHEMA:
        raise ContractError(f"unknown config key {key!r}")
    cfg[key] = _parse_value(key, SCHEMA[key][0], raw)


# --------------------------------------------------------- derived objects


def model_config(cfg: dict, num_users: int, num_items: int) -> CamAeConfig:
    return CamAeConfig(
        num_users=num_users,
        num_items=num_items,
        latent_dim=int(cfg["latent_dim"]),
        attn_dim=int(cfg["attn_dim"]),
        layers=int(cfg["layers"]),
        hops=int(cfg["hops"]),
        hop_weights=tuple(float(w) for w in cfg["hop_weights"]),
        ff_hidden=int(cfg["ff_hidden"]),
        t_embed=bool(cfg["t_embed"]),
        residual=bool(cfg["residual"]),
        variant=str(cfg["variant"]),
    )


def schedule_config(cfg: dict) -> NoiseSchedule:
    return build_schedule(T=int(cfg["steps"]), beta_min=float(cfg["beta_min"]),
                          beta_max=float(cfg["beta_max"]), scale=float(cfg["schedule_scale"]))
