"""Verification suite for the cross-attention denoiser.

The forward oracle below is a straight-line float64 numpy transcription
of the architecture (encoders, token expansion, timestep code, attention
rounds, hop blend, collapse, decoder). It never touches the tape, so
agreement checks the recorded graph end to end.
"""

import math

import numpy as np
import pytest

from conftest import inference_forward, trainable_forward
from diffcf import camae, eval as evaluation, ndtensor as nd, train
from diffcf.camae import CamAeConfig
from diffcf.errors import ContractError, ShapeError
from diffcf.schedule import build_schedule


def small_config(**overrides):
    base = dict(num_users=5, num_items=7, latent_dim=4, attn_dim=2,
                layers=2, hops=3, hop_weights=(0.6, 0.4))
    base.update(overrides)
    return CamAeConfig(**base)


def random_params(config, seed, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return {name: rng.uniform(-0.5, 0.5, size=shape).astype(dtype)
            for name, (shape, _, _) in camae.param_shapes(config).items()}


def random_inputs(config, batch, seed):
    rng = np.random.default_rng(seed)
    u_t = rng.normal(size=(batch, config.num_items))
    contexts = {h: rng.random((batch, config.hop_dim(h)))
                for h in config.hop_list}
    t = rng.integers(1, 20, size=batch)
    return u_t, contexts, t


def softmax_rows(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def timestep_code(t, dim):
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / max(half, 1))
    args = np.asarray(t, dtype=np.float64)[:, None] * freqs[None, :]
    emb = np.concatenate([np.cos(args), np.sin(args)], axis=1)
    if dim % 2 == 1:
        emb = np.concatenate([emb, np.zeros((emb.shape[0], 1))], axis=1)
    return emb.reshape(len(t), 1, dim)


def forward_oracle(params, config, u_t, contexts, t):
    """Plain numpy rendition of the forward pass, float64 end to end."""
    batch, d = u_t.shape[0], config.attn_dim
    width = config.width

    def identity_pad(n_in):
        pad = np.zeros((n_in, width))
        np.fill_diagonal(pad, 1.0)
        return pad

    if config.variant == "no-ae":
        z_obs = u_t @ identity_pad(config.num_items)
    else:
        z_obs = u_t @ params["enc_items"]
    tokens = z_obs[:, :, None] * params["expand_obs"][0]
    if config.t_embed:
        tokens = tokens + timestep_code(t, d)

    queries = {}
    for h in config.hop_list:
        if config.variant == "self-attn":
            queries[h] = tokens
            continue
        n_h = config.hop_dim(h)
        if config.variant == "no-ae":
            z_h = contexts[h] @ identity_pad(n_h)
        else:
            z_h = contexts[h] @ params[f"enc_hop{h}"]
        queries[h] = z_h[:, :, None] * params["expand_ctx"][0]

    state = tokens
    for layer in range(1, config.layers + 1):
        blended = 0.0
        for w, h in zip(config.hop_weights, config.hop_list):
            if config.variant == "no-cross-attn":
                attended = state
            else:
                q = queries[h] @ params[f"attn{layer}_hop{h}_q"]
                key = state @ params[f"attn{layer}_hop{h}_k"]
                val = state @ params[f"attn{layer}_hop{h}_v"]
                logits = q @ key.transpose(0, 2, 1) / math.sqrt(d)
                attended = softmax_rows(logits) @ val
            hidden = np.maximum(attended @ params[f"ff_hop{h}_in"], 0.0)
            blended = blended + w * (hidden @ params[f"ff_hop{h}_out"])
        state = state + blended if config.residual else blended

    y = (state @ params["collapse"]).reshape(batch, config.seq_len)
    if config.variant == "no-ae":
        return y[:, : config.num_items]
    return y @ params["dec_items"]


class TestConfig:
    def test_rejects_bad_arguments(self):
        for kwargs in (dict(num_users=0), dict(latent_dim=0),
                       dict(hops=1, hop_weights=()), dict(variant="mlp"),
                       dict(hop_weights=(0.5, 0.2)),
                       dict(hop_weights=(1.2, -0.2)),
                       dict(hop_weights=(0.7, 0.2, 0.1)),
                       dict(ff_hidden=-1)):
            with pytest.raises(ContractError):
                small_config(**kwargs)

    def test_derived_dimensions(self):
        cfg = small_config(hops=4, hop_weights=(0.5, 0.3, 0.2))
        assert cfg.hop_list == (2, 3, 4)
        assert cfg.width == 7
        assert cfg.seq_len == 4
        assert cfg.ff_width == 8  # 4 * attn_dim when unset
        assert small_config(ff_hidden=3).ff_width == 3
        assert [cfg.hop_dim(h) for h in (1, 2, 3, 4)] == [7, 5, 7, 5]
        assert small_config(variant="no-ae").seq_len == 7


def full_width_init(config, seed):
    """`camae.init_params` as it was when the encoders and the decoder were
    stored (outputs, inputs) and every hop encoder was (k, width): the
    oracle for the values of the stored and sized codec weights."""
    rng = np.random.default_rng(seed)
    out = {}
    for name, (shape, fan_in, fan_out) in camae.param_shapes(config).items():
        if name.startswith(("enc_", "dec_")):
            shape = (shape[1], config.width if name.startswith("enc_hop") else shape[0])
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        out[name] = rng.uniform(-bound, bound, size=shape).astype(np.float32)
    return out


class TestParamShapes:
    def test_names_order_and_fans(self):
        cfg = small_config()
        shapes = camae.param_shapes(cfg)
        assert list(shapes) == [
            "enc_items", "enc_hop2", "enc_hop3", "dec_items",
            "expand_obs", "expand_ctx",
            "attn1_hop2_q", "attn1_hop2_k", "attn1_hop2_v",
            "attn1_hop3_q", "attn1_hop3_k", "attn1_hop3_v",
            "attn2_hop2_q", "attn2_hop2_k", "attn2_hop2_v",
            "attn2_hop3_q", "attn2_hop3_k", "attn2_hop3_v",
            "ff_hop2_in", "ff_hop2_out", "ff_hop3_in", "ff_hop3_out",
            "collapse",
        ]
        assert shapes["enc_items"] == ((7, 4), 7, 4)
        assert shapes["enc_hop2"] == ((5, 4), 7, 4)  # users side; fan-in stays width
        assert shapes["enc_hop3"] == ((7, 4), 7, 4)
        assert shapes["dec_items"] == ((4, 7), 4, 7)
        assert shapes["expand_obs"] == ((1, 2), 1, 2)
        assert shapes["attn1_hop2_q"] == ((2, 2), 2, 2)
        assert shapes["ff_hop2_in"] == ((2, 8), 2, 8)
        assert shapes["ff_hop2_out"] == ((8, 2), 8, 2)
        assert shapes["collapse"] == ((2, 1), 2, 1)

    @pytest.mark.parametrize("overrides", [{}, dict(hops=4, hop_weights=(0.5, 0.3, 0.2)),
                                           dict(num_users=9)])
    def test_init_equals_full_width_init_sliced(self, overrides):
        cfg = small_config(**overrides)
        params = camae.init_params(cfg, seed=7)
        want = full_width_init(cfg, seed=7)
        assert list(params) == list(want)
        for name, value in params.items():
            assert value.flags.c_contiguous, name
            if name.startswith(("enc_", "dec_")):
                assert np.array_equal(value, want[name][:, :value.shape[0]].T), name
            else:
                assert np.array_equal(value, want[name]), name

    def test_no_ae_drops_codec(self):
        names = set(camae.param_shapes(small_config(variant="no-ae")))
        assert not any(n.startswith(("enc_", "dec_")) for n in names)
        assert "collapse" in names

    def test_init_deterministic_and_bounded(self):
        cfg = small_config()
        a = camae.init_params(cfg, seed=3)
        b = camae.init_params(cfg, seed=3)
        c = camae.init_params(cfg, seed=4)
        shapes = camae.param_shapes(cfg)
        for name, (shape, fi, fo) in shapes.items():
            assert a[name].shape == shape and a[name].dtype == np.float32
            np.testing.assert_array_equal(a[name], b[name])
            bound = math.sqrt(6.0 / (fi + fo))
            assert np.all(np.abs(a[name]) <= bound)
        assert any(not np.array_equal(a[n], c[n]) for n in shapes)


class TestCrossAttention:
    def test_matches_plain_softmax(self):
        rng = np.random.default_rng(5)
        a, b, c = rng.normal(size=(3, 4, 1)), rng.normal(size=(3, 5, 1)), rng.normal(size=(3, 5, 1))
        v = rng.normal(size=(3, 5, 2))
        want = softmax_rows(a @ b.transpose(0, 2, 1) + c.transpose(0, 2, 1)) @ v
        tape = nd.Tape()
        got = tape.record("cross_attention", *(tape.leaf(x) for x in (a, b, v, c)))
        np.testing.assert_allclose(got.value, want, rtol=1e-12, atol=1e-12)


def wide_attention(tape, q, key, value, target):
    """softmax(q key^T / sqrt(d)) value for d-wide nodes, the attention that
    the model's scalar queries stand in for, computed in float64 numpy off
    the tape. Returns (output, row log-sum-exp, loss node). The loss node's
    gradient through q, key and value is that of mse(output, target), by
    the hand-derived chain rule: it sums each input times its gradient, a
    constant, so the tape carries that gradient on to the leaves."""
    q64, k64, v64 = (np.asarray(x.value, np.float64) for x in (q, key, value))
    scale = 1.0 / math.sqrt(q64.shape[-1])
    logits = q64 @ k64.transpose(0, 2, 1) * scale
    top = logits.max(axis=-1, keepdims=True)
    e = np.exp(logits - top)
    p = e / e.sum(axis=-1, keepdims=True)
    out = p @ v64
    g = 2.0 * (out - target)
    gp = g @ v64.transpose(0, 2, 1)
    gl = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) * scale
    loss = None
    grads = (gl @ k64, gl.transpose(0, 2, 1) @ q64, p.transpose(0, 2, 1) @ g)
    for x, gx in zip((q, key, value), grads):
        term = tape.record("matmul", tape.record("reshape", x, shape=(1, gx.size)),
                           tape.leaf(gx.reshape(-1, 1)))
        loss = term if loss is None else tape.record("add", loss, term)
    return out, (top + np.log(e.sum(axis=-1, keepdims=True)))[..., 0], loss


def assert_close_to_wide(names, got, want):
    for name, g, w in zip(names, got, want):
        assert g.shape == w.shape, name
        np.testing.assert_allclose(g, w, rtol=1e-4, atol=1e-5 * np.abs(w).max(), err_msg=name)


class TestAttention:
    """`_attention` attends with scalar queries: a hop latent z_ctx with the
    row `expand_ctx` ("full"/"no-ae"), or z_obs with `expand_obs` plus the
    timestep code ("self-attn"). Their query tokens z r W_q fold into the
    width-1 keys and key bias state (W_k (r W_q)^T / sqrt(d)). In layer 1
    the state is the rank-two tokens z_obs e_obs + emb(t), read through
    z_obs alone; later layers read a dense state. In float32 the helper
    matches the d-wide composition in float64, output, row log-sum-exp
    (where the points are the queries) and gradients, with and without the
    timestep code; with logits past the range of exp, in float64."""

    B, SEQ, D = 5, 300, 16

    def attend(self, inputs, emb, target, variant, layer, factored):
        tape = nd.Tape()
        leaves = {n: tape.leaf(x, trainable=True) for n, x in inputs.items()}
        emb = None if emb is None else tape.leaf(emb)
        z_obs, e_obs, state = leaves["z_obs"], leaves["expand_obs"], leaves.get("state")
        if variant == "self-attn":
            query, rows = z_obs, (e_obs, emb)
        else:
            query, rows = leaves["z_ctx"], (leaves["expand_ctx"], None)
        if factored:
            cfg = small_config(attn_dim=self.D, variant=variant)
            node = camae._attention(tape, leaves, cfg, layer, 2, query, rows, z_obs, emb, state)
            out = node.value
            # A user that interpolates keeps the log-sum-exp of its nodes,
            # not of its queries: the row log-sum-exp is compared only when
            # every user's points are its queries.
            attn = next(x for x in tape.nodes if x.op == "cross_attention")
            interpolates = nd._plan(*(x.value for x in attn.inputs[:2]))[1].any()
            lse = None if interpolates else attn.ctx["lse"]
            loss = tape.record("mse", node, tape.leaf(target))
        else:
            def tokens(z, row, code):
                grid = tape.record("matmul", z, row)
                return grid if code is None else tape.record("add", grid, code)

            if layer == 1:
                state = tokens(z_obs, e_obs, emb)
            w_q, w_k, w_v = (leaves[f"attn{layer}_hop2_{role}"] for role in "qkv")
            out, lse, loss = wide_attention(tape, tape.record("matmul", tokens(query, *rows), w_q),
                                            tape.record("matmul", state, w_k),
                                            tape.record("matmul", state, w_v), target)
        grads = tape.backward(loss)
        return {"out": out, "lse": lse, **{n: grads[leaves[n]] for n in inputs}}

    @pytest.mark.parametrize("variant", ["full", "self-attn"])
    @pytest.mark.parametrize("t_embed", [False, True])
    @pytest.mark.parametrize("layer", [1, 2])
    @pytest.mark.parametrize("large", [False, True])
    def test_matches_the_wide_composition(self, variant, t_embed, layer, large):
        rng = np.random.default_rng(49)
        d = self.D
        bound = math.sqrt(6.0 / (2 * d))
        inputs = {"z_obs": rng.uniform(-1, 1, (self.B, self.SEQ, 1)),
                  "expand_obs": rng.uniform(-1, 1, (1, d))}
        if variant == "full":
            inputs["z_ctx"] = rng.uniform(-1, 1, (self.B, self.SEQ, 1))
            inputs["expand_ctx"] = rng.uniform(-1, 1, (1, d))
        for role in "qkv":
            inputs[f"attn{layer}_hop2_{role}"] = rng.uniform(-bound, bound, (d, d))
        if layer > 1:
            inputs["state"] = rng.standard_normal((self.B, self.SEQ, d))
        emb = nd.sinusoidal_embedding(rng.integers(1, 50, self.B), d) if t_embed else None
        target = rng.standard_normal((self.B, self.SEQ, d)).astype(np.float32)
        # The bound max|z| max|key| + max|key bias| on the logits grows
        # with W_q, so the large case scales W_q until the bound is 1000,
        # past log(finfo(float64).max), where exp overflows unless each row
        # is lowered by its max first.
        w_q, w_k = inputs[f"attn{layer}_hop2_q"], inputs[f"attn{layer}_hop2_k"]
        if variant == "self-attn":
            query, rows = inputs["z_obs"], [inputs["expand_obs"]] + ([] if emb is None else [emb])
        else:
            query, rows = inputs["z_ctx"], [inputs["expand_ctx"]]
        folded = (w_k @ np.swapaxes(r @ w_q, -1, -2) / math.sqrt(d) for r in rows)
        keys = [inputs["z_obs"] * (inputs["expand_obs"] @ w) if layer == 1 else inputs["state"] @ w
                for w in folded]
        largest = np.abs(query).max() * np.abs(keys[0]).max() + sum(np.abs(c).max()
                                                                     for c in keys[1:])
        assert largest < 10
        if large:
            w_q *= 1000.0 / largest
        # float32 keys round logits of a thousand by about 1e-4, past the
        # tolerance, so the large case runs in float64.
        dtype = np.float64 if large else np.float32
        inputs = {n: x.astype(np.float32).astype(dtype) for n, x in inputs.items()}
        got = self.attend(inputs, None if emb is None else emb.astype(dtype), target, variant,
                          layer, factored=True)
        want = self.attend({n: x.astype(np.float64) for n, x in inputs.items()},
                           None if emb is None else emb.astype(np.float64),
                           target.astype(np.float64), variant, layer, factored=False)
        if got["lse"] is None:
            del got["lse"], want["lse"]
        elif layer == 1 and t_embed:
            # The wide logits carry the timestep term, one constant per
            # row, which the factored ones leave out: only the row
            # log-sum-exp differs.
            del got["lse"], want["lse"]
        assert_close_to_wide(list(want), [got[n] for n in want], list(want.values()))

    def test_training_tape_holds_no_hop_query(self):
        # The nodes that read a hop context but not u_t are its encoder
        # product and latent only: no (B, seq, d) query waits on the tape,
        # with its gradient, for the layers that read it.
        cfg = small_config()
        params = random_params(cfg, seed=38, dtype=np.float32)
        u_t, contexts, t = random_inputs(cfg, batch=3, seed=39)
        u_t = u_t.astype(np.float32)
        contexts = {h: c.astype(np.float32) for h, c in contexts.items()}
        tape, _, _ = trainable_forward(params, cfg, u_t, contexts, t)
        reads: dict = {}

        def sources(node):
            if node not in reads:
                got = {h for h, c in contexts.items() if node.value is c}
                got |= {"u_t"} if node.value is u_t else set()
                reads[node] = got.union(*(sources(x) for x in node.inputs))
            return reads[node]

        hop_only = {node.value.shape for node in tape.nodes
                    if sources(node) and "u_t" not in sources(node)}
        assert hop_only == {(3, cfg.seq_len), (3, cfg.seq_len, 1)}

    @pytest.mark.parametrize("variant", ["full", "self-attn"])
    def test_training_tape_holds_no_hidden_activation_or_first_layer_token(self, variant):
        # The feedforward keeps only its inputs; layer 1 attends over the
        # (B, seq, 1) latents, so no (B, seq, d) token, key or value of it
        # waits on the tape for the backward pass.
        cfg = small_config(attn_dim=3, variant=variant)
        params = random_params(cfg, seed=40, dtype=np.float32)
        u_t, contexts, t = random_inputs(cfg, batch=3, seed=41)
        tape, leaves, _ = trainable_forward(params, cfg, u_t.astype(np.float32),
                                            {h: c.astype(np.float32)
                                             for h, c in contexts.items()}, t)
        held = [node.value for node in tape.nodes]
        held += [x for node in tape.nodes for x in node.ctx.values()
                 if isinstance(x, np.ndarray)]
        assert (3, cfg.seq_len, cfg.ff_width) not in {x.shape for x in held}
        assert not [node for node in tape.nodes if leaves["expand_obs"] in node.inputs
                    and node.value.shape == (3, cfg.seq_len, 3)]
        first_layer = [node for node in tape.nodes
                       if node.op == "cross_attention"][:len(cfg.hop_list)]
        assert first_layer
        for node in first_layer:
            assert {x.value.shape for x in node.inputs} == {(3, cfg.seq_len, 1)}

    def test_training_tape_holds_no_query_or_key(self):
        # The query rows fold into the key weight, so W_q and W_k take part
        # only in products with e_obs (1, d) and the timestep code (B, 1, d),
        # and in their folds, (d, 1) and (B, d, 1): no (B, seq, d) query or
        # key waits on the tape, with its gradient.
        cfg = small_config(variant="self-attn", attn_dim=3)
        params = random_params(cfg, seed=42, dtype=np.float32)
        u_t, contexts, t = random_inputs(cfg, batch=3, seed=43)
        tape, leaves, _ = trainable_forward(params, cfg, u_t.astype(np.float32),
                                            {h: c.astype(np.float32)
                                             for h, c in contexts.items()}, t)
        projections = {leaf for name, leaf in leaves.items() if name.endswith(("_q", "_k"))}
        shapes = {node.value.shape for node in tape.nodes if projections & set(node.inputs)}
        assert shapes == {(1, 3), (3, 1), (3, 1, 3), (3, 3, 1)}


class TestForwardOracle:
    @pytest.mark.parametrize("variant", camae.VARIANTS)
    @pytest.mark.parametrize("t_embed", [False, True])
    def test_matches_numpy_transcription(self, variant, t_embed):
        cfg = small_config(variant=variant, t_embed=t_embed)
        params = random_params(cfg, seed=7)
        u_t, contexts, t = random_inputs(cfg, batch=3, seed=8)
        tape, _, out = inference_forward(params, cfg, u_t, contexts, t)
        got = out.value
        want = forward_oracle(params, cfg, u_t, contexts, t)
        assert got.shape == (3, cfg.num_items)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)

    def test_wide_user_side(self):
        # More users than items flips which hop encoder is the narrower.
        cfg = small_config(num_users=9, num_items=4)
        params = random_params(cfg, seed=9)
        u_t, contexts, t = random_inputs(cfg, batch=2, seed=10)
        tape, _, out = inference_forward(params, cfg, u_t, contexts, t)
        np.testing.assert_allclose(out.value,
                                   forward_oracle(params, cfg, u_t, contexts, t),
                                   rtol=1e-10, atol=1e-10)

    def test_four_hops(self):
        cfg = small_config(hops=4, hop_weights=(0.5, 0.3, 0.2), layers=1)
        params = random_params(cfg, seed=11)
        u_t, contexts, t = random_inputs(cfg, batch=2, seed=12)
        tape, _, out = inference_forward(params, cfg, u_t, contexts, t)
        np.testing.assert_allclose(out.value,
                                   forward_oracle(params, cfg, u_t, contexts, t),
                                   rtol=1e-10, atol=1e-10)

    def test_residual_stacking(self):
        cfg = small_config(residual=True, layers=3)
        params = random_params(cfg, seed=13)
        u_t, contexts, t = random_inputs(cfg, batch=2, seed=14)
        tape, _, out = inference_forward(params, cfg, u_t, contexts, t)
        np.testing.assert_allclose(out.value,
                                   forward_oracle(params, cfg, u_t, contexts, t),
                                   rtol=1e-10, atol=1e-10)
        plain = inference_forward(params, small_config(layers=3), u_t,
                                  contexts, t)
        assert not np.allclose(out.value, plain[2].value)

    @pytest.mark.parametrize("num_users", [5, 9])
    def test_no_ae_output_is_the_leading_columns_exactly(self, num_users, monkeypatch):
        # The no-ae output multiplies the (B, width) collapse by an identity
        # pad: the first |items| columns, bit for bit, as a slice gives them.
        cfg = small_config(variant="no-ae", num_users=num_users)
        params = random_params(cfg, seed=15, dtype=np.float32)
        u_t, contexts, t = random_inputs(cfg, batch=3, seed=16)
        recorded = []
        record = nd.Tape.record

        def spy(tape, op, *inputs, **const):
            recorded.append(record(tape, op, *inputs, **const))
            return recorded[-1]

        monkeypatch.setattr(nd.Tape, "record", spy)
        _, _, out = inference_forward(params, cfg, u_t, contexts, t)
        collapsed, last = recorded[-2:]
        assert last is out and collapsed.value.shape == (3, cfg.width)
        assert np.array_equal(out.value, collapsed.value[:, :cfg.num_items])

    def test_float32_params_give_float32_output(self):
        cfg = small_config()
        params = random_params(cfg, seed=13, dtype=np.float32)
        u_t, contexts, t = random_inputs(cfg, batch=2, seed=14)
        tape, _, out = inference_forward(params, cfg, u_t, contexts, t)
        assert out.value.dtype == np.float32


class TestStructuralProperties:
    @pytest.mark.parametrize("variant", camae.VARIANTS)
    def test_zero_in_zero_out_without_timestep_code(self, variant):
        cfg = small_config(variant=variant, t_embed=False)
        params = random_params(cfg, seed=15)
        u_t = np.zeros((2, cfg.num_items))
        contexts = {h: np.zeros((2, cfg.hop_dim(h))) for h in cfg.hop_list}
        tape, _, out = inference_forward(params, cfg, u_t, contexts, t=1)
        np.testing.assert_array_equal(out.value, 0.0)

    def test_timestep_sensitivity_tracks_flag(self):
        u_t, contexts, _ = random_inputs(small_config(), batch=2, seed=16)
        for t_embed, should_differ in ((True, True), (False, False)):
            cfg = small_config(t_embed=t_embed)
            params = random_params(cfg, seed=17)
            tape1, _, o1 = inference_forward(params, cfg, u_t, contexts, t=1)
            tape2, _, o2 = inference_forward(params, cfg, u_t, contexts, t=9)
            same = np.array_equal(o1.value, o2.value)
            assert same != should_differ

    def test_self_attn_ignores_hop_encoders_and_contexts(self):
        cfg = small_config(variant="self-attn")
        params = random_params(cfg, seed=18)
        u_t, contexts, t = random_inputs(cfg, batch=2, seed=19)
        tape, _, out = inference_forward(params, cfg, u_t, contexts, t)
        mutated = {k: v.copy() for k, v in params.items()}
        for name in ("enc_hop2", "enc_hop3", "expand_ctx"):
            mutated[name] += 100.0
        other = {h: v + 5.0 for h, v in contexts.items()}
        tape2, _, out2 = inference_forward(mutated, cfg, u_t, other, t)
        np.testing.assert_array_equal(out.value, out2.value)

    def test_no_cross_attn_ignores_attention_weights(self):
        cfg = small_config(variant="no-cross-attn")
        params = random_params(cfg, seed=20)
        u_t, contexts, t = random_inputs(cfg, batch=2, seed=21)
        tape, _, out = inference_forward(params, cfg, u_t, contexts, t)
        mutated = {k: (v + 100.0 if "attn" in k else v.copy())
                   for k, v in params.items()}
        tape2, _, out2 = inference_forward(mutated, cfg, u_t, contexts, t)
        np.testing.assert_array_equal(out.value, out2.value)

    def test_full_variant_uses_attention_weights(self):
        cfg = small_config()
        params = random_params(cfg, seed=22)
        u_t, contexts, t = random_inputs(cfg, batch=2, seed=23)
        tape, _, out = inference_forward(params, cfg, u_t, contexts, t)
        mutated = {k: (v + 1.0 if k == "attn1_hop2_q" else v.copy())
                   for k, v in params.items()}
        tape2, _, out2 = inference_forward(mutated, cfg, u_t, contexts, t)
        assert not np.array_equal(out.value, out2.value)


class TestContracts:
    def test_input_shape_errors(self):
        cfg = small_config()
        params = random_params(cfg, seed=24)
        u_t, contexts, t = random_inputs(cfg, batch=2, seed=25)
        with pytest.raises(ShapeError):
            inference_forward(params, cfg, u_t[:, :-1], contexts, t)
        with pytest.raises(ShapeError):
            inference_forward(params, cfg, u_t, contexts, t[:-1])
        bad = dict(contexts)
        bad[2] = bad[2][:, :-1]
        with pytest.raises(ShapeError):
            inference_forward(params, cfg, u_t, bad, t)

    def test_missing_context_hop(self):
        cfg = small_config()
        params = random_params(cfg, seed=26)
        u_t, contexts, t = random_inputs(cfg, batch=2, seed=27)
        del contexts[3]
        with pytest.raises(ContractError):
            inference_forward(params, cfg, u_t, contexts, t)


class TestConvenienceWrappers:
    def test_scalar_t_broadcasts(self):
        cfg = small_config()
        params = random_params(cfg, seed=28)
        u_t, contexts, _ = random_inputs(cfg, batch=3, seed=29)
        tape1, _, o1 = inference_forward(params, cfg, u_t, contexts, 4)
        tape2, _, o2 = inference_forward(params, cfg, u_t, contexts,
                                         np.array([4, 4, 4]))
        np.testing.assert_array_equal(o1.value, o2.value)

    def test_gradients_reach_every_parameter(self):
        cfg = small_config()
        params = random_params(cfg, seed=32)
        u_t, contexts, t = random_inputs(cfg, batch=3, seed=33)
        tape, leaves, out = trainable_forward(params, cfg, u_t, contexts, t)
        target = tape.leaf(np.zeros_like(u_t))
        loss = tape.record("mse", out, target)
        grads = tape.backward(loss)
        for name, leaf in leaves.items():
            assert leaf in grads and np.any(grads[leaf] != 0.0), name


class TestBackwardProducts:
    @pytest.mark.parametrize("variant", ["full", "no-ae"])
    def test_no_product_for_a_constant_and_the_same_bits(self, variant, monkeypatch):
        """The interaction rows, the hop contexts, the timestep code, the
        identity pads and the loss target are constants: backward must
        compute no gradient for them, and the parameters' gradients must be
        those of a tape on which every leaf is trainable, bit for bit."""
        cfg = small_config(variant=variant)
        params = random_params(cfg, seed=36, dtype=np.float32)
        u_t, contexts, t = random_inputs(cfg, batch=3, seed=37)
        constant_shapes = {(3, cfg.hop_dim(h)) for h in (1, *cfg.hop_list)}
        leaf, matmul = nd.Tape.leaf, np.matmul
        shapes = []

        def counted_matmul(*args, **kwargs):
            out = matmul(*args, **kwargs)
            shapes.append(out.shape)
            return out

        def run(all_trainable):
            with monkeypatch.context() as m:
                if all_trainable:
                    m.setattr(nd.Tape, "leaf",
                              lambda tape, value, trainable=False: leaf(tape, value, True))
                tape, leaves, out = trainable_forward(params, cfg, u_t, contexts, t)
                loss = tape.record("mse", out, tape.leaf(np.zeros_like(out.value)))
                shapes.clear()
                m.setattr(np, "matmul", counted_matmul)
                grads = tape.backward(loss)
            return {name: grads[node] for name, node in leaves.items()}, list(shapes)

        grads, products = run(False)
        all_grads, all_products = run(True)
        assert len(products) < len(all_products)
        if variant == "full":  # no-ae's (B, width) state shares their shapes
            assert not constant_shapes & set(products)
            assert constant_shapes <= set(all_products)
        for name in params:
            assert np.array_equal(grads[name], all_grads[name]), name


class TestOpCoverage:
    def test_pipeline_records_exactly_the_tape_ops(self, monkeypatch):
        """Training and inference steps over every variant, with the
        timestep code and residual stacking each on and off, together
        record every op the tape offers: an op none of them records is
        dead code."""
        seen = set()
        record = nd.Tape.record

        def spy(tape, op, *inputs, **const):
            seen.add(op)
            return record(tape, op, *inputs, **const)

        monkeypatch.setattr(nd.Tape, "record", spy)
        rng = np.random.default_rng(34)
        sched = build_schedule(5)
        for variant in camae.VARIANTS:
            for t_embed in (False, True):
                for residual in (False, True):
                    cfg = small_config(variant=variant, t_embed=t_embed, residual=residual)
                    assert cfg.num_users != cfg.num_items
                    params = camae.init_params(cfg, seed=35)
                    u0 = (rng.random((3, cfg.num_items)) < 0.5).astype(np.float32)
                    ctx = {h: rng.random((3, cfg.hop_dim(h))).astype(np.float32)
                           for h in cfg.hop_list}
                    noise = rng.standard_normal(u0.shape).astype(np.float32)
                    train.train_step(params, nd.init_adam(params, lr=1e-3), cfg, sched,
                                     "vlb", u0, ctx, np.array([1, 2, 5]), noise)
                    evaluation.denoise_infer(params, cfg, sched, u0, ctx, infer_steps=2,
                                             rngs=[np.random.default_rng([36, i])
                                                   for i in range(len(u0))])
        assert seen == set(nd.OPS)
