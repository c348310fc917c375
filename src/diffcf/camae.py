"""Cross-attention multi-hop autoencoder: the learned denoiser.

Inputs per user: the noised interaction row u_t, the normalized hop
vectors (hops 2..H), and the timestep t. Everything is first compressed
to a latent of size k (one encoder for the interaction row, one per
hop), then each latent scalar is expanded to a d-wide token so the
latents become k x d token grids. Each of N layers lets every hop
condition the running interaction state through cross-attention (hop
tokens make the queries; the state makes keys and values), pushes the
result through that hop's two-layer ReLU feedforward (one tape op that
keeps no hidden activation for the backward pass), and blends the hop
outputs with fixed mixing weights. Layers stack plainly by default;
the residual flag adds each layer's input back to its blended output.
A learned d -> 1 collapse and a decoder map the final state back to
item space.

Every query token is a latent scalar times a row: `expand_ctx` for a hop,
or `expand_obs` plus the timestep code for "self-attn". The model attends
with the scalars themselves and folds the rows and the query projection
into the key weight, so every attention is width 1 (see `_attention`). In
the first layer the interaction tokens are rank two (latents times
`expand_obs`, plus the timestep code), so in every variant that attends
its keys and values are width 1 as well, and the (B, seq, d) tokens are
recorded only for the residual add and "no-cross-attn". The parameters
are still those of the d-wide tokens.

The forward is recorded in four parts. `condition` reads only the hop
vectors (the hop encoders); `encode_interactions` compresses u_t to the
latents z (B, seq); `denoise`, the latent core, reads z and t and returns
the reconstructed latents y (B, seq); `decode` maps y back to items with
the `decoder` matrix D. Training records all four for each batch through
`camae_forward`. Inference conditions and encodes u_t once per batch and
runs the core once per step: the next step's latents y D E are y F, with
the (seq, seq) F = D E built once by encoding D, so only the last step is
decoded (see `eval.denoise_infer`).

There are no bias terms anywhere; with the timestep embedding disabled,
zero inputs provably map to zero output. The sinusoidal timestep
embedding (on by default) is added to the expanded interaction tokens.

Ablation variants:
- "self-attn": queries come from the expanded interaction tokens rather
  than the hop tokens (hop encoders go unused). They attend as scalars too,
  against width-1 keys with a bias for the timestep code.
- "no-cross-attn": attention is skipped entirely; each hop's feedforward
  reads the running state directly.
- "no-ae": encoders/decoder are frozen identity pads, so attention runs
  at full catalog width. Memory-hungry by construction; meant for small
  studies only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import ndtensor as nd
from .errors import ContractError, ShapeError

VARIANTS = ("full", "self-attn", "no-cross-attn", "no-ae")


@dataclass(frozen=True)
class CamAeConfig:
    num_users: int
    num_items: int
    latent_dim: int = 500          # k: compressed length of every sequence
    attn_dim: int = 16             # d: token width inside attention
    layers: int = 2                # N: attention/feedforward rounds
    hops: int = 3                  # H: deepest hop used (context covers 2..H)
    hop_weights: tuple[float, ...] = (0.7, 0.3)
    ff_hidden: int = 0             # 0 means 4 * attn_dim
    t_embed: bool = True
    residual: bool = False         # add each round's input back to its output
    variant: str = "full"

    def __post_init__(self):
        if self.num_users < 1 or self.num_items < 1:
            raise ContractError("need at least one user and one item")
        if self.latent_dim < 1 or self.attn_dim < 1 or self.layers < 1:
            raise ContractError("latent_dim, attn_dim, layers must be >= 1")
        if self.hops < 2:
            raise ContractError(f"hops must be >= 2, got {self.hops}")
        if self.variant not in VARIANTS:
            raise ContractError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if len(self.hop_weights) != self.hops - 1:
            raise ContractError(
                f"{self.hops - 1} hop weights needed for hops 2..{self.hops}, "
                f"got {len(self.hop_weights)}")
        if any(w < 0 for w in self.hop_weights):
            raise ContractError(f"hop weights must be non-negative: {self.hop_weights}")
        if abs(sum(self.hop_weights) - 1.0) > 1e-6:
            raise ContractError(f"hop weights must sum to 1: {self.hop_weights}")
        if self.ff_hidden < 0:
            raise ContractError(f"ff_hidden must be >= 0, got {self.ff_hidden}")

    @property
    def hop_list(self) -> tuple[int, ...]:
        return tuple(range(2, self.hops + 1))

    @property
    def width(self) -> int:
        return max(self.num_users, self.num_items)

    @property
    def seq_len(self) -> int:
        """Token count inside attention: k, or full width without the AE."""
        return self.width if self.variant == "no-ae" else self.latent_dim

    @property
    def ff_width(self) -> int:
        return self.ff_hidden if self.ff_hidden else 4 * self.attn_dim

    def hop_dim(self, h: int) -> int:
        return self.num_items if h % 2 == 1 else self.num_users


def _xavier(rng: np.random.Generator, shape: tuple[int, int],
            fan_in: int, fan_out: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def param_shapes(config: CamAeConfig) -> dict[str, tuple[tuple[int, int], int, int]]:
    """name -> (shape, fan_in, fan_out), in deterministic creation order."""
    d, hN = config.attn_dim, config.ff_width
    shapes: dict[str, tuple[tuple[int, int], int, int]] = {}
    if config.variant != "no-ae":
        k = config.latent_dim
        shapes["enc_items"] = ((config.num_items, k), config.num_items, k)
        for h in config.hop_list:
            shapes[f"enc_hop{h}"] = ((config.hop_dim(h), k), config.width, k)
        shapes["dec_items"] = ((k, config.num_items), k, config.num_items)
    shapes["expand_obs"] = ((1, d), 1, d)
    shapes["expand_ctx"] = ((1, d), 1, d)
    for layer in range(1, config.layers + 1):
        for h in config.hop_list:
            for role in ("q", "k", "v"):
                shapes[f"attn{layer}_hop{h}_{role}"] = ((d, d), d, d)
    for h in config.hop_list:
        shapes[f"ff_hop{h}_in"] = ((d, hN), d, hN)
        shapes[f"ff_hop{h}_out"] = ((hN, d), hN, d)
    shapes["collapse"] = ((d, 1), d, 1)
    return shapes


def init_params(config: CamAeConfig, seed: int = 0) -> dict[str, np.ndarray]:
    """Xavier-uniform float32 tensors, reproducible for a given seed.

    The encoders and the decoder are stored (inputs, outputs), as their
    products read them, but drawn (outputs, inputs) and transposed, so the
    stream of draws does not depend on the storage layout. A hop encoder is
    drawn (k, width), with fan-in `width`, and cut to the columns of its
    hop, so the stream, and with it every other parameter, does not depend
    on which side (users or items) a hop reads either."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, (shape, fi, fo) in param_shapes(config).items():
        if name.startswith(("enc_", "dec_")):
            n_in, n_out = shape
            drawn = (n_out, config.width if name.startswith("enc_hop") else n_in)
            params[name] = np.ascontiguousarray(_xavier(rng, drawn, fi, fo)[:, :n_in].T)
        else:
            params[name] = _xavier(rng, shape, fi, fo)
    return params


# ------------------------------------------------------------------- forward


def _codec(tape: nd.Tape, leaves: dict[str, nd.Node], config: CamAeConfig, name: str,
           n_in: int, n_out: int) -> nd.Node:
    """The (n_in, n_out) codec matrix `name`: its leaf, or under "no-ae",
    which drops the encoders and the decoder, the identity pad bound as a
    constant."""
    if config.variant != "no-ae":
        return leaves[name]
    pad = np.zeros((n_in, n_out), dtype=leaves["collapse"].value.dtype)
    np.fill_diagonal(pad, 1.0)
    return tape.leaf(pad)


def encode_interactions(tape: nd.Tape, leaves: dict[str, nd.Node],
                        config: CamAeConfig, u_t: np.ndarray) -> nd.Node:
    """Record the interaction encoder: rows `u_t` (B, |items|), bound as a
    leaf in the parameters' dtype, compressed to latents (B, seq)."""
    u_t = np.asarray(u_t)
    if u_t.ndim != 2 or u_t.shape[1] != config.num_items:
        raise ShapeError(f"u_t must be (B, {config.num_items}), got {u_t.shape}")
    dtype = leaves["collapse"].value.dtype
    u = tape.leaf(u_t.astype(dtype, copy=False))
    return tape.record("matmul", u, _codec(tape, leaves, config, "enc_items",
                                           config.num_items, config.width))


def decoder(tape: nd.Tape, leaves: dict[str, nd.Node], config: CamAeConfig) -> nd.Node:
    """The decoder's (seq, |items|) matrix: `dec_items`, or the identity pad."""
    return _codec(tape, leaves, config, "dec_items", config.width, config.num_items)


def decode(tape: nd.Tape, leaves: dict[str, nd.Node], config: CamAeConfig,
           y: nd.Node) -> nd.Node:
    """Record the decoder: latents (B, seq) back to item rows (B, |items|)."""
    return tape.record("matmul", y, decoder(tape, leaves, config))


def condition(tape: nd.Tape, leaves: dict[str, nd.Node], config: CamAeConfig,
              contexts: dict[int, np.ndarray]) -> dict[int, nd.Node]:
    """Record the part of the denoiser that reads only the hop contexts
    `contexts[h]` (B, hop_dim(h)): each hop's encoder. Nothing here depends
    on u_t or t, so inference records it once per batch. Returns {hop:
    latent (B, seq, 1)}, empty for the variants whose attention takes no
    hop queries ("self-attn" draws them from the tokens)."""
    missing = [h for h in config.hop_list if h not in contexts]
    if missing:
        raise ContractError(f"missing contexts for hops {missing}")
    for h in config.hop_list:
        n_h = np.shape(contexts[h])[-1]
        if n_h != config.hop_dim(h):
            raise ShapeError(f"hop {h} context has width {n_h}, expected {config.hop_dim(h)}")
    if config.variant in ("self-attn", "no-cross-attn"):
        return {}

    dtype = leaves["collapse"].value.dtype
    latents: dict[int, nd.Node] = {}
    for h in config.hop_list:
        c = tape.leaf(np.asarray(contexts[h], dtype=dtype))
        z = tape.record("matmul", c, _codec(tape, leaves, config, f"enc_hop{h}",
                                            config.hop_dim(h), config.width))
        latents[h] = tape.record("reshape", z, shape=(len(c.value), config.seq_len, 1))
    return latents


def _folded_key_weight(tape: nd.Tape, leaves: dict[str, nd.Node], config: CamAeConfig,
                       layer: int, h: int, row: nd.Node) -> nd.Node:
    """W_k (r W_q)^T / sqrt(d), (d, 1) or (B, d, 1): hop h's key weight in
    `layer` for the scalar queries z of the tokens z r, with the query row
    r, (1, d) or per user (B, 1, d), and the query projection folded in."""
    e_q = tape.record("reshape", tape.record("matmul", row, leaves[f"attn{layer}_hop{h}_q"]),
                      shape=(*row.value.shape[:-2], config.attn_dim, 1))
    return tape.record("scale", tape.record("matmul", leaves[f"attn{layer}_hop{h}_k"], e_q),
                       factor=1.0 / math.sqrt(config.attn_dim))


def _attention(tape: nd.Tape, leaves: dict[str, nd.Node], config: CamAeConfig,
               layer: int, h: int, query: nd.Node, rows: tuple[nd.Node | None, ...],
               z_obs: nd.Node, emb: nd.Node | None, state: nd.Node | None) -> nd.Node:
    """Hop h's attention in `layer`, with scalar queries throughout.

    The query tokens are the scalars `query` (B, seq, 1) times rows[0], plus
    rows[1] when it is given (the timestep code of "self-attn"). Projected
    by W_q, their logits against the keys state W_k / sqrt(d) are
    query_i b_j + c_j, with the width-1 key b and key bias c the state
    times each row's folded key weight w (see `_folded_key_weight`).

    In layer 1 the state is the rank-two tokens z_obs e_obs + emb(t), whose
    product with w is z_obs (e_obs w) + emb(t) w. The second term adds one
    constant to every logit of a query row, which softmax cancels: the keys
    are z_obs (e_obs w). The rows of the softmax P sum to one, so
    P (tokens W_v) = (P z_obs)(e_obs W_v) + emb(t) W_v: the values are
    z_obs. Later layers read the dense `state` (B, seq, d). Returns the
    attended (B, seq, d)."""
    e_obs, w_v = leaves["expand_obs"], leaves[f"attn{layer}_hop{h}_v"]
    folded = (_folded_key_weight(tape, leaves, config, layer, h, row)
              for row in rows if row is not None)
    if layer > 1:
        keys = [tape.record("matmul", state, w) for w in folded]
        return tape.record("cross_attention", query, keys[0],
                           tape.record("matmul", state, w_v), *keys[1:])
    keys = [tape.record("matmul", z_obs, tape.record("matmul", e_obs, w)) for w in folded]
    attended = tape.record("matmul", tape.record("cross_attention", query, keys[0], z_obs,
                                                 *keys[1:]),
                           tape.record("matmul", e_obs, w_v))
    if emb is None:
        return attended
    return tape.record("add", attended, tape.record("matmul", emb, w_v))


def denoise(tape: nd.Tape, leaves: dict[str, nd.Node], config: CamAeConfig,
            z: nd.Node, latents: dict[int, nd.Node], t: np.ndarray) -> nd.Node:
    """Record the latent core of the denoiser: it reads the encoded rows `z`
    (B, seq) and their B integer timesteps `t`, attends with the hop
    `latents` that `condition` recorded, and returns the node of the
    reconstructed latents (B, seq), which `decode` maps back to items.

    Every variant but "no-cross-attn" attends through `_attention`. A
    hop's queries, its latent z (B, seq, 1) expanded to tokens by
    `expand_ctx` (e) and projected by W_q, are z (e W_q): rank one. So their
    logits against the keys state W_k, scaled by 1/sqrt(d), are those of z
    against the width-1 keys state (W_k (e W_q)^T / sqrt(d)). The
    "self-attn" queries are z_obs in the same way, with a key bias for the
    timestep code. No (B, seq, d) query is made, and W_q and the rows get
    their gradients through the fold. In layer 1 every variant attends at
    width 1 over the rank-two tokens, so they are recorded only where
    something reads them: the residual add and the "no-cross-attn" layers."""
    seq = config.seq_len
    if z.value.ndim != 2 or z.value.shape[1] != seq:
        raise ShapeError(f"z must be (B, {seq}), got {z.value.shape}")
    batch = z.value.shape[0]
    t = np.asarray(t).reshape(-1)
    if t.size != batch:
        raise ShapeError(f"t has {t.size} entries for batch {batch}")

    dtype = leaves["collapse"].value.dtype
    z_obs = tape.record("reshape", z, shape=(batch, seq, 1))
    emb = tape.leaf(nd.sinusoidal_embedding(t, config.attn_dim, dtype)) if config.t_embed else None
    tokens = None
    if config.residual or config.variant == "no-cross-attn":
        tokens = tape.record("matmul", z_obs, leaves["expand_obs"])
        if emb is not None:
            tokens = tape.record("add", tokens, emb)

    if config.variant == "self-attn":
        queries, rows = dict.fromkeys(config.hop_list, z_obs), (leaves["expand_obs"], emb)
    else:
        queries, rows = latents, (leaves["expand_ctx"],)
    state = tokens
    for layer in range(1, config.layers + 1):
        hop_outs = []
        for h in config.hop_list:
            attended = state if config.variant == "no-cross-attn" else _attention(
                tape, leaves, config, layer, h, queries[h], rows, z_obs, emb, state)
            hop_outs.append(tape.record("feedforward", attended, leaves[f"ff_hop{h}_in"],
                                        leaves[f"ff_hop{h}_out"]))
        blended = tape.record("weighted_sum", *hop_outs, weights=config.hop_weights)
        state = tape.record("add", state, blended) if config.residual else blended

    y = tape.record("matmul", state, leaves["collapse"])
    return tape.record("reshape", y, shape=(batch, seq))


def camae_forward(tape: nd.Tape, leaves: dict[str, nd.Node], config: CamAeConfig,
                  u_t: np.ndarray, contexts: dict[int, np.ndarray],
                  t: np.ndarray) -> nd.Node:
    """Record the full denoiser on `tape`: condition, encode, denoise and
    decode, in that order; returns the node of the reconstructed
    interaction rows (B, |items|).

    `u_t` is (B, |items|), `contexts[h]` is (B, hop_dim(h)) for h in 2..H,
    and `t` holds B integer timesteps.
    """
    latents = condition(tape, leaves, config, contexts)
    z = encode_interactions(tape, leaves, config, u_t)
    return decode(tape, leaves, config, denoise(tape, leaves, config, z, latents, t))
