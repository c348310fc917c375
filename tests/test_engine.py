"""Verification suite for the tape engine.

Every differentiable op is checked against central finite differences
computed by an oracle in this file (not the engine's own checker), the
fused attention op is cross-checked against its primitive composition
and the whole-batch computation its chunked kernel replaced, on its exact
and its interpolated route, and bit for bit across thread-pool sizes and
BLAS thread counts (as are the blocked
feedforward op, the pooled 2-D products, a dense context build and a
seeded training step), Adam is compared to an independent
reimplementation and, bit for bit, to the plain-expression update its
scratch-buffer form replaced, and checkpoints must round-trip bitwise.
"""

import ctypes
import itertools
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import container_bytes
from diffcf import graph, ndtensor as nd
from diffcf.bench import synth_interactions
from diffcf.errors import ContractError, FormatError, NumericError, ShapeError, read_arrays


def analytic_gradients(build, arrays):
    """Reverse-mode gradients of the scalar loss built by `build(tape, ids)`."""
    tape = nd.Tape(finite_check_limit=0)
    ids = [tape.leaf(np.asarray(a, dtype=np.float64), trainable=True) for a in arrays]
    by_id = tape.backward(build(tape, ids))
    return [by_id[i] for i in ids]


def fd_gradients(build, arrays, eps=1e-6):
    """Independent central-difference oracle, one probe per entry."""

    def loss_at(vals):
        tape = nd.Tape(finite_check_limit=0)
        ids = [tape.leaf(v, trainable=True) for v in vals]
        return float(build(tape, ids).value)

    grads = []
    for i, a in enumerate(arrays):
        g = np.zeros_like(a, dtype=np.float64)
        for j in range(a.size):
            plus = [np.asarray(x, dtype=np.float64).copy() for x in arrays]
            plus[i].ravel()[j] += eps
            minus = [np.asarray(x, dtype=np.float64).copy() for x in arrays]
            minus[i].ravel()[j] -= eps
            g.ravel()[j] = (loss_at(plus) - loss_at(minus)) / (2 * eps)
        grads.append(g)
    return grads


def check_op_gradients(build, arrays, eps=1e-6, rtol=1e-5, atol=1e-8):
    analytic = analytic_gradients(build, arrays)
    numeric = fd_gradients(build, arrays, eps=eps)
    for i, (a, n) in enumerate(zip(analytic, numeric)):
        np.testing.assert_allclose(a, n, rtol=rtol, atol=atol,
                                   err_msg=f"gradient mismatch on input {i}")


def sum_of_squares(tape, node):
    """Reduce any node to a smooth scalar loss."""
    zero = tape.leaf(np.zeros_like(node.value))
    return tape.record("mse", node, zero)


class TestOpGradients:
    """Each op's vector-Jacobian product against finite differences."""

    def test_matmul_2d(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((2, 3)), rng.standard_normal((3, 4))
        check_op_gradients(
            lambda t, ids: sum_of_squares(t, t.record("matmul", *ids)), [a, b])

    def test_matmul_batched_3d(self):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((2, 3, 4)), rng.standard_normal((2, 4, 2))
        check_op_gradients(
            lambda t, ids: sum_of_squares(t, t.record("matmul", *ids)), [a, b])

    def test_matmul_broadcast_right(self):
        # (B, k, 1) @ (1, d) is how latents expand to token grids.
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal((2, 3, 1)), rng.standard_normal((1, 4))
        check_op_gradients(
            lambda t, ids: sum_of_squares(t, t.record("matmul", *ids)), [a, b])

    def test_add_same_shape(self):
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        check_op_gradients(
            lambda t, ids: sum_of_squares(t, t.record("add", *ids)), [a, b])

    def test_add_broadcast_middle_axis(self):
        # (B, k, d) + (B, 1, d): the timestep embedding add.
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((2, 3, 4)), rng.standard_normal((2, 1, 4))
        check_op_gradients(
            lambda t, ids: sum_of_squares(t, t.record("add", *ids)), [a, b])

    def test_scale_scalar_and_rows(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((3, 4))
        col = rng.standard_normal((3, 1))
        check_op_gradients(
            lambda t, ids: sum_of_squares(t, t.record("scale", ids[0], factor=1.7)), [a])
        check_op_gradients(
            lambda t, ids: sum_of_squares(t, t.record("scale", ids[0], factor=col)), [a])

    def test_row_softmax(self):
        # Identity values read the row softmax of a b^T + c^T out of
        # cross_attention, so only its softmax Jacobian is exercised.
        rng = np.random.default_rng(7)
        a, b, c = rng.standard_normal((2, 3, 1)), *rng.standard_normal((2, 2, 5, 1))

        def build(t, ids):
            eye = t.leaf(np.tile(np.eye(5), (2, 1, 1)))
            return sum_of_squares(t, t.record("cross_attention", ids[0], ids[1], eye, *ids[2:]))

        check_op_gradients(build, [a, b])
        check_op_gradients(build, [a, b, c])

    def test_feedforward_away_from_kink(self, monkeypatch):
        # Blocks of 2 rows over 3 x 3 rows: the last block is short, and the
        # weight gradients sum five block partials.
        monkeypatch.setattr(nd, "_FF_ROWS", 2)
        rng = np.random.default_rng(11)
        x, w_in, w_out = (rng.standard_normal(s) for s in ((3, 3, 3), (3, 4), (4, 2)))
        assert np.abs(x @ w_in).min() > 1e-2  # every probe stays on one side of the kink
        check_op_gradients(
            lambda t, ids: sum_of_squares(t, t.record("feedforward", *ids)), [x, w_in, w_out])

    def test_mse_both_sides(self):
        rng = np.random.default_rng(10)
        a, b = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))
        check_op_gradients(lambda t, ids: t.record("mse", *ids), [a, b])

    def test_weighted_sum(self):
        rng = np.random.default_rng(11)
        arrays = [rng.standard_normal((2, 3)) for _ in range(3)]
        check_op_gradients(
            lambda t, ids: sum_of_squares(
                t, t.record("weighted_sum", *ids, weights=(0.5, 0.3, 0.2))),
            arrays)

    def test_cross_attention(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((2, 3, 1))
        b, c = rng.standard_normal((2, 2, 5, 1))
        v = rng.standard_normal((2, 5, 2))
        for operands in ([a, b, v], [a, b, v, c]):
            check_op_gradients(
                lambda t, ids: sum_of_squares(t, t.record("cross_attention", *ids)), operands)

    def test_reshape(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((2, 6))
        check_op_gradients(
            lambda t, ids: sum_of_squares(t, t.record("reshape", ids[0], shape=(3, 4))),
            [a])

    def test_shared_leaf_accumulates(self):
        # A leaf feeding two branches, or two inputs of one op, must receive
        # the sum of all its adjoints.
        rng = np.random.default_rng(16)
        x = rng.uniform(0.3, 1.0, (3, 3))
        w = rng.uniform(0.3, 1.0, (3, 3))

        def build(t, ids):
            xid, wid = ids
            y1 = t.record("matmul", xid, wid)
            y2 = t.record("feedforward", xid, wid, wid)
            return sum_of_squares(t, t.record("add", y1, y2))

        check_op_gradients(build, [x, w])

    def test_unreachable_leaf_gets_zeros(self):
        tape = nd.Tape()
        used = tape.leaf(np.ones((2, 2)), trainable=True)
        unused = tape.leaf(np.ones((3, 3)), trainable=True)
        loss = tape.record("mse", used, tape.leaf(np.zeros((2, 2))))
        grads = tape.backward(loss)
        assert np.array_equal(grads[unused], np.zeros((3, 3)))
        assert not np.array_equal(grads[used], np.zeros((2, 2)))


class TestOpValues:
    """Forward semantics on hand-computable cases."""

    @staticmethod
    def attention_softmax(a, b, c):
        """The row softmax inside cross_attention, read out with identity values."""
        tape = nd.Tape()
        eye = np.tile(np.eye(b.shape[-2], dtype=a.dtype), (len(b), 1, 1))
        return tape.record("cross_attention", tape.leaf(a), tape.leaf(b), tape.leaf(eye),
                           tape.leaf(c)).value

    def test_row_softmax_hand_case(self):
        s = self.attention_softmax(np.array([[[1.0]]]), np.array([[[0.0], [math.log(2.0)]]]),
                                   np.zeros((1, 2, 1)))
        np.testing.assert_allclose(s, [[[1 / 3, 2 / 3]]], rtol=1e-12)

    def test_row_softmax_shift_invariant(self):
        # Moving every key bias c_j by one constant, or every key b_j by one
        # u, shifts each query's logits by a constant (u times a_i), which
        # must not change its distribution; the max subtraction keeps this
        # stable even for shifts in the hundreds.
        rng = np.random.default_rng(20)
        a = rng.uniform(0.5, 1.0, (1, 4, 1))
        b, c = rng.standard_normal((2, 1, 6, 1))
        s = self.attention_softmax(a, b, c)
        np.testing.assert_allclose(self.attention_softmax(a, b, c + 200.0), s, atol=1e-10)
        np.testing.assert_allclose(self.attention_softmax(a, b + 200.0, c), s, atol=1e-10)

    def test_row_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((1, 5, 1)) * 10
        b, c = rng.standard_normal((2, 1, 7, 1))
        s = self.attention_softmax(a, b, c)
        np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-12)
        assert (s > 0).all()

    def test_mse_is_sum_of_squared_differences(self):
        tape = nd.Tape()
        a = tape.leaf(np.array([[1.0, 2.0]]))
        b = tape.leaf(np.array([[3.0, 5.0]]))
        assert float(tape.record("mse", a, b).value) == 13.0

    def test_weighted_sum_value(self):
        tape = nd.Tape()
        a = tape.leaf(np.array([2.0, 4.0]))
        b = tape.leaf(np.array([10.0, 0.0]))
        out = tape.record("weighted_sum", a, b, weights=(0.25, 0.75))
        np.testing.assert_allclose(out.value, [8.0, 1.0])

    def test_cross_attention_hand_case(self):
        # One query against two keys: softmax([1, 0]) blends values 2 and 4.
        tape = nd.Tape()
        q = tape.leaf(np.array([[[1.0]]]))
        k = tape.leaf(np.array([[[1.0], [0.0]]]))
        v = tape.leaf(np.array([[[2.0], [4.0]]]))
        out = tape.record("cross_attention", q, k, v).value.item()
        expected = (2.0 * math.e + 4.0) / (math.e + 1.0)
        assert abs(out - expected) < 1e-12

    def test_cross_attention_matches_primitive_composition(self):
        rng = np.random.default_rng(22)
        a = rng.standard_normal((2, 3, 1))
        b, c = rng.standard_normal((2, 2, 5, 1))
        v = rng.standard_normal((2, 5, 4))

        tape = nd.Tape()
        fused = tape.record("cross_attention", *(tape.leaf(x) for x in (a, b, v, c)))
        logits = a @ b.transpose(0, 2, 1) + c.transpose(0, 2, 1)
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        composed = (e / e.sum(axis=-1, keepdims=True)) @ v
        np.testing.assert_allclose(fused.value, composed, atol=1e-12)

    def test_cross_attention_gradient_matches_composition(self):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((2, 3, 1))
        b, c = rng.standard_normal((2, 2, 5, 1))
        v = rng.standard_normal((2, 5, 4))

        def fused(t, ids):
            return sum_of_squares(t, t.record("cross_attention", *ids))

        # The chain rule through matmul, add, softmax and matmul, by hand.
        logits = a @ b.transpose(0, 2, 1) + c.transpose(0, 2, 1)
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        s = e / e.sum(axis=-1, keepdims=True)
        g_out = 2.0 * (s @ v)
        g_s = g_out @ v.transpose(0, 2, 1)
        g_logits = s * (g_s - (g_s * s).sum(axis=-1, keepdims=True))
        composed = (g_logits @ b, g_logits.transpose(0, 2, 1) @ a,
                    s.transpose(0, 2, 1) @ g_out, g_logits.sum(axis=1)[..., None])
        for got, want in zip(analytic_gradients(fused, [a, b, v, c]), composed):
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_float32_preserved_through_ops(self):
        tape = nd.Tape()
        a = tape.leaf(np.ones((2, 3), dtype=np.float32))
        b = tape.leaf(np.ones((3, 2), dtype=np.float32))
        c = tape.leaf(np.ones((1, 2, 3), dtype=np.float32))
        col = tape.leaf(np.ones((1, 2, 1), dtype=np.float32))
        for node in (tape.record("matmul", a, b),
                     tape.record("cross_attention", col, col, c, col),
                     tape.record("feedforward", c, b, a)):
            assert node.value.dtype == np.float32


def whole_batch_logits(a, b, c=None, dtype=None):
    """The scores a b^T + c^T of scalar queries a against keys b with the
    key bias c, every (B, m, n) block at once."""
    logits = np.matmul(a, np.swapaxes(b, -1, -2), dtype=dtype)
    return logits if c is None else logits + np.swapaxes(c, -1, -2).astype(logits.dtype)


def whole_batch_attention(a, b, v, c=None):
    """The cross-attention forward as it was before the chunked kernel:
    every (B, m, n) temporary materialised at once. Returns (out, softmax)."""
    logits = whole_batch_logits(a, b, c)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    denom = e.sum(axis=-1, keepdims=True, dtype=np.float64)
    s = (e / denom).astype(a.dtype)
    return np.matmul(s, v), s


def whole_batch_lse(a, b, c=None):
    """Row log-sum-exp of the scores, in float64."""
    logits = whole_batch_logits(a, b, c, dtype=np.float64)
    top = logits.max(axis=-1)
    return top + np.log(np.exp(logits - top[..., None]).sum(axis=-1))


def whole_batch_attention_vjp(a, b, v, s, g, c=None):
    """The whole-batch backward matching `whole_batch_attention`: the
    gradients of a, b, v and, when given, c."""
    gv = np.matmul(np.swapaxes(s, -1, -2), g)
    gs = np.matmul(g, np.swapaxes(v, -1, -2))
    inner = (gs * s).sum(axis=-1, keepdims=True, dtype=np.float64).astype(s.dtype)
    gl = s * (gs - inner)
    grads = [np.matmul(gl, b), np.matmul(np.swapaxes(gl, -1, -2), a), gv]
    return grads if c is None else grads + [gl.sum(axis=-2)[..., None]]


# Float32 rounding for values of order 1; float64 to ~1e-13.
TOLERANCE = {np.float32: dict(rtol=1e-4, atol=1e-5), np.float64: dict(rtol=1e-10, atol=1e-12)}


def chunk_len(m, n, dtype):
    return max(1, nd.ATTN_CHUNK_BYTES // (m * n * np.dtype(dtype).itemsize))


def attention_operands(rng, batch, m, n, e, dtype, bias):
    """Standard normal queries (batch, m, 1), keys (batch, n, 1), values
    (batch, n, e) and, with `bias`, a key bias (batch, n, 1)."""
    shapes = [(batch, m, 1), (batch, n, 1), (batch, n, e)] + [(batch, n, 1)] * bias
    return [rng.standard_normal(s).astype(dtype) for s in shapes]


class TestChunkedAttention:
    """The chunked kernel against the whole-batch oracle in float64 (a
    float32 one cannot resolve logits near 700), to the operands' rounding.
    Standard normal operands pass the node table, so every user's points
    are its queries; the kernel normalises after the product and rebuilds
    the softmax in its backward, so its sums run in another order than the
    oracle's."""

    # Large enough that a handful of users fill a chunk of the budget.
    M, N, DV = 384, 512, 5

    def assert_matches_oracle(self, operands, seed):
        tape = nd.Tape()
        ids = [tape.leaf(x, trainable=True) for x in operands]
        node = tape.record("cross_attention", *ids)
        dtype = operands[0].dtype
        a, b, v, *c = (x.astype(np.float64) for x in operands)
        want, want_s = whole_batch_attention(a, b, v, *c)
        tol = TOLERANCE[dtype.type]
        assert node.value.shape == want.shape and node.value.dtype == dtype
        np.testing.assert_allclose(node.value, want, **tol)
        assert node.ctx["lse"].dtype == np.float64
        np.testing.assert_allclose(node.ctx["lse"], whole_batch_lse(a, b, *c), **tol)
        g = np.random.default_rng(seed).standard_normal(want.shape).astype(dtype)
        got = dict(tape._vjp(node, g))
        wanted = whole_batch_attention_vjp(a, b, v, want_s, g.astype(np.float64), *c)
        assert len(wanted) == len(ids)
        for leaf, x, gx in zip(ids, operands, wanted):
            assert got[leaf].shape == x.shape and got[leaf].dtype == dtype
            np.testing.assert_allclose(got[leaf], gx, **tol)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batches_around_the_chunk_length(self, dtype):
        chunk = chunk_len(self.M, self.N, dtype)
        assert 2 <= chunk < 16, "operands must span several chunks"
        rng = np.random.default_rng(40)
        for batch, bias in itertools.product(sorted({1, chunk - 1, chunk, chunk + 1,
                                                     2 * chunk + 1}), (False, True)):
            operands = attention_operands(rng, batch, self.M, self.N, self.DV, dtype, bias)
            assert not nd._plan(*operands[:2])[1].any()
            self.assert_matches_oracle(operands, seed=batch)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_row_max_route_matches_oracle(self, dtype):
        # Every key bias is offset by 1500, past 2 log(finfo(float64).max):
        # exp overflows on every logit unless its row is lowered by its
        # max first, while the softmax, which the offset does not change,
        # stays ordinary.
        chunk = chunk_len(self.M, self.N, dtype)
        rng = np.random.default_rng(48)
        for batch in sorted({1, chunk + 1}):
            a, b, v, c = attention_operands(rng, batch, self.M, self.N, self.DV, dtype, True)
            c += dtype(1500.0)
            assert c.min() > 2 * math.log(float(np.finfo(np.float64).max))
            self.assert_matches_oracle([a, b, v, c], seed=batch)

    @pytest.mark.parametrize("bias", [False, True])
    def test_float32_output_rounds_once_at_the_queries(self, bias):
        # At k = 64, R = 1.2 and 3 ask for more than k / 4 nodes, and R = 10
        # and 30 pass the table: the points are the queries. f is evaluated
        # there in float64 and rounded once, so each float32 output lies
        # within one ulp of the user's largest entry of the float64 oracle.
        rng = np.random.default_rng(66)
        operands = interpolating_operands(rng, [1.2, 3.0, 10.0, 30.0], 64, 64, self.DV,
                                          np.float32, bias)
        assert not nd._plan(*operands[:2])[1].any()
        tape = nd.Tape()
        out = tape.record("cross_attention", *map(tape.leaf, operands)).value
        want, _ = whole_batch_attention(*(x.astype(np.float64) for x in operands))
        ulp = np.spacing(np.abs(want).max(axis=(1, 2)).astype(np.float32))
        assert (np.abs(out - want).max(axis=(1, 2)) <= ulp).all()
        self.assert_matches_oracle(operands, seed=67)

    @pytest.mark.parametrize("dtype, scale", [(np.float32, 6.0), (np.float64, 16.0)])
    def test_logits_beyond_the_range_of_exp(self, dtype, scale):
        # Logits past log(finfo.max) overflow exp unless each row is
        # shifted by its max first: the kernel must take that route and
        # give finite values. A logit of order 250 (float32) or 1800
        # (float64) carries a rounding of eps times that, so each result is
        # held to the dtype's tolerance relative to its largest entry.
        rng = np.random.default_rng(46)
        for bias in (False, True):
            a, b, v, *c = attention_operands(rng, 3, self.M, self.N, self.DV, dtype, bias)
            a, b, *c = (x * dtype(scale) for x in (a, b, *c))
            operands = [a, b, v, *c]
            assert whole_batch_logits(a, b, *c, dtype=np.float64).max() \
                > 2 * math.log(float(np.finfo(dtype).max))
            tape = nd.Tape()
            ids = [tape.leaf(x, trainable=True) for x in operands]
            node = tape.record("cross_attention", *ids)
            want, want_s = whole_batch_attention(*operands)
            g = rng.standard_normal(want.shape).astype(dtype)
            got = dict(tape._vjp(node, g))
            rtol = TOLERANCE[dtype]["rtol"]
            pairs = [(node.value, want), (node.ctx["lse"], whole_batch_lse(a, b, *c))]
            pairs += [(got[leaf], gx) for leaf, gx in
                      zip(ids, whole_batch_attention_vjp(a, b, v, want_s, g, *c))]
            for value, oracle in pairs:
                assert np.isfinite(value).all()
                np.testing.assert_allclose(value, oracle, rtol=0,
                                           atol=rtol * np.abs(oracle).max(), err_msg=f"{bias=}")

    @staticmethod
    def assert_rejected(shapes, dtype):
        tape = nd.Tape()
        with pytest.raises(ShapeError):
            tape.record("cross_attention", *(tape.leaf(np.ones(shape, dtype)) for shape in shapes))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_two_dimensional_operands(self, dtype):
        # The op takes (B, m, 1), (B, n, 1), (B, n, e) and (B, n, 1) only.
        M, N, DV = 4, 6, 2
        self.assert_rejected([(M, 1), (N, 1), (N, DV)], dtype)
        self.assert_rejected([(1, M, 1), (N, 1), (1, N, DV)], dtype)
        self.assert_rejected([(1, M, 1), (1, N, 1), (1, N, DV), (N, 1)], dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_broadcast_batch_dimensions(self, dtype):
        # Batch axes must be equal: none is broadcast.
        M, N, DV = 4, 6, 2
        self.assert_rejected([(3, M, 1), (1, N, 1), (3, N, DV)], dtype)
        self.assert_rejected([(3, M, 1), (3, N, 1), (1, N, DV)], dtype)
        self.assert_rejected([(3, M, 1), (3, N, 1), (3, N, DV), (1, N, 1)], dtype)
        self.assert_rejected([(2, 1, M, 1), (2, 3, N, 1), (2, 3, N, DV)], dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_d_wide_operands(self, dtype):
        # Every query and key is one scalar, and the key bias one per key:
        # d-wide operands, a bias of another length and a fifth operand are
        # refused.
        M, N, D, DV = 4, 6, 3, 2
        self.assert_rejected([(2, M, D), (2, N, D), (2, N, DV)], dtype)
        self.assert_rejected([(2, M, 1), (2, N, D), (2, N, DV)], dtype)
        self.assert_rejected([(2, M, D), (2, N, 1), (2, N, DV)], dtype)
        self.assert_rejected([(2, M, 1), (2, N, 1), (2, N, DV), (2, N, D)], dtype)
        self.assert_rejected([(2, M, 1), (2, N, 1), (2, N, DV), (2, N + 1, 1)], dtype)
        self.assert_rejected([(2, M, 1), (2, N, 1), (2, N, DV)] + [(2, N, 1)] * 2, dtype)

    def test_only_row_statistics_kept_for_gradients(self):
        rng = np.random.default_rng(43)
        operands = attention_operands(rng, 3, 6, 7, 4, np.float32, True)
        tape = nd.Tape()
        plain = tape.record("cross_attention", *(tape.leaf(x) for x in operands))
        assert not plain.ctx and not plain.requires_grad
        ids = [tape.leaf(operands[0], trainable=True)] + [tape.leaf(x) for x in operands[1:]]
        kept = tape.record("cross_attention", *ids)
        # One float64 log-sum-exp per query row; no (6, 7) score block.
        assert {name: a.shape for name, a in kept.ctx.items()} == {"lse": (3, 6)}
        assert np.array_equal(plain.value, kept.value)

    def test_rejects_mixed_dtypes_and_unbroadcastable_batches(self):
        tape = nd.Tape()
        a, b = (tape.leaf(np.ones((2, n, 1), np.float32)) for n in (3, 5))
        v = tape.leaf(np.ones((2, 5, 4), np.float32))
        with pytest.raises(ContractError):
            tape.record("cross_attention", a, tape.leaf(np.ones((2, 5, 1))), v)
        with pytest.raises(ContractError):
            tape.record("cross_attention", a, b, v, tape.leaf(np.ones((2, 5, 1))))
        with pytest.raises(ShapeError):
            tape.record("cross_attention", a, *(tape.leaf(np.ones((3, 5, e), np.float32))
                                                for e in (1, 4)))


class CountingPool(ThreadPoolExecutor):
    """A thread pool that counts the jobs handed to it."""

    def __init__(self, workers):
        super().__init__(workers)
        self.jobs = 0

    def submit(self, *args, **kwargs):
        self.jobs += 1
        return super().submit(*args, **kwargs)


@pytest.fixture
def attention_workers(monkeypatch):
    """Returns a function that gives the attention pool `n` workers."""
    pools = []

    def use(n):
        pools.append(CountingPool(n))
        monkeypatch.setattr(nd, "_POOL", pools[-1])
        monkeypatch.setattr(nd, "_WORKERS", n)
        return pools[-1]

    yield use
    for pool in pools:
        pool.shutdown()


class TestAttentionWorkers:
    """The chunks of both attention passes, the row blocks of both
    feedforward passes and the blocks of a large 2-D product run on a
    thread pool; the worker count must not change a bit of the output, the
    kept row log-sum-exp or the gradients."""

    M, N, DV = TestChunkedAttention.M, TestChunkedAttention.N, 5

    def test_one_worker_per_usable_cpu(self):
        assert nd._WORKERS == len(os.sched_getaffinity(0))
        assert nd._POOL._max_workers == nd._WORKERS

    @staticmethod
    def run(g, *operands):
        tape = nd.Tape()
        ids = [tape.leaf(x, trainable=True) for x in operands]
        node = tape.record("cross_attention", *ids)
        plain = tape.record("cross_attention", *(tape.leaf(x) for x in operands))
        grads = dict(tape._vjp(node, g))
        return [node.value, plain.value, node.ctx["lse"]] + [grads[i] for i in ids]

    @staticmethod
    def run_op(op, *arrays):
        """A taped and a plain forward of `op` on all arrays but the last,
        and the gradients of every input for the last as output grad."""
        *inputs, g = arrays
        tape = nd.Tape()
        ids = [tape.leaf(a, trainable=True) for a in inputs]
        node = tape.record(op, *ids)
        plain = tape.record(op, *(tape.leaf(a) for a in inputs))
        grads = dict(tape._vjp(node, g))
        return [node.value, plain.value] + [grads[i] for i in ids]

    @staticmethod
    def same_bits_on_every_worker_count(run, args, jobs, attention_workers, where):
        """Runs `run(*args)` on pools of 1, 2 and 3 workers and asserts
        equal bits, and that the pool took `jobs(workers)` jobs."""
        runs = {}
        for workers in (1, 2, 3):
            pool = attention_workers(workers)
            switch = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)  # let the workers interleave finely
            try:
                runs[workers] = run(*args)
            finally:
                sys.setswitchinterval(switch)
            assert pool.jobs == jobs(workers), (where, workers)
        for workers in (2, 3):
            for got, want in zip(runs[workers], runs[1]):
                assert got.dtype == want.dtype and np.array_equal(got, want), (where, workers)
        assert np.array_equal(runs[1][0], runs[1][1])
        return runs[1]

    @staticmethod
    def chunked_jobs(chunks):
        """Jobs of two forwards and a backward over `chunks` chunks, each
        one job per worker or none."""
        return lambda workers: 3 * workers if chunks >= 2 * workers else 0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_values_do_not_depend_on_the_worker_count(self, dtype, attention_workers):
        chunk = chunk_len(self.M, self.N, dtype)
        rng = np.random.default_rng(44)
        # 6 chunks + 1 give every count here at least two chunks per worker.
        # The model's hop attention has no key bias, and in its first layer
        # width-1 values; "self-attn" has a key bias.
        for (bias, e), batch in itertools.product(((True, self.DV), (False, self.DV), (False, 1)),
                                                  sorted({1, chunk, 2 * chunk + 1,
                                                          6 * chunk + 1})):
            operands = attention_operands(rng, batch, self.M, self.N, e, dtype, bias)
            g = rng.standard_normal((batch, self.M, e)).astype(dtype)
            self.same_bits_on_every_worker_count(self.run, (g, *operands),
                                                 self.chunked_jobs(-(-batch // chunk)),
                                                 attention_workers, (bias, e, batch))
        # The feedforward at the model's default widths, in blocks of
        # _FF_ROWS rows; 6 blocks and a short one give every count here at
        # least two blocks per worker, and the weight gradients 7 slots.
        w_in, w_out = (rng.standard_normal(s).astype(dtype) / 4 for s in ((16, 64), (64, 16)))
        block = nd._FF_ROWS
        for rows in (1, block, 2 * block + 1, 6 * block + 1):
            x, g = (rng.standard_normal((1, rows, 16)).astype(dtype) for _ in range(2))
            out = self.same_bits_on_every_worker_count(
                self.run_op, ("feedforward", x, w_in, w_out, g),
                self.chunked_jobs(-(-rows // block)), attention_workers, rows)[0]
            want = np.maximum(x @ w_in, 0) @ w_out
            np.testing.assert_allclose(out, want, **TOLERANCE[dtype], err_msg=str(rows))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pooled_matmul_does_not_depend_on_the_worker_count(self, dtype, attention_workers):
        # An ML-1M-shaped encoder and a wide-catalog decoder: each of the
        # four products (two forwards and both gradients) is cut along the
        # longer axis of its output, columns or rows, into one block per
        # worker. A product too small for two blocks, and any float64
        # product, runs whole on the calling thread.
        rng = np.random.default_rng(48)
        for m, k, n in ((128, 3706, 500), (128, 128, 30000), (64, 900, 64)):
            a = rng.standard_normal((m, k)).astype(dtype)
            b = (rng.standard_normal((k, n)) / math.sqrt(k)).astype(dtype)
            g = rng.standard_normal((m, n)).astype(dtype)
            most = m * k * n // nd._BLOCK_MACS if dtype == np.float32 else 1
            out = self.same_bits_on_every_worker_count(
                self.run_op, ("matmul", a, b, g),
                lambda workers: 4 * min(workers, most) if min(workers, most) > 1 else 0,
                attention_workers, (m, k, n))[0]
            assert out.flags.c_contiguous and np.array_equal(out, a @ b)

    def test_dense_contexts_do_not_depend_on_the_worker_count(self, attention_workers):
        # At 6% density every hop takes the dense route, and each hop's
        # GEMM is one block per worker.
        matrix = synth_interactions(700, 900, 0.94, seed=3)
        runs = {}
        for workers in (1, 2, 3):
            pool = attention_workers(workers)
            ctxs = graph.build_contexts(matrix, H=4)
            assert pool.jobs == (3 * workers if workers > 1 else 0)
            runs[workers] = [getattr(ctxs.hops[h], name) for h in ctxs.hop_list
                             for name in ("indptr", "indices", "data")]
        for workers in (2, 3):
            for got, want in zip(runs[workers], runs[1]):
                assert got.dtype == want.dtype and np.array_equal(got, want), workers

    def test_default_shape_matches_whole_batch(self):
        # At k=500 the products run in row blocks, which BLAS may sum in
        # another order than one whole product, and the softmax is
        # normalised after the product: equal to float32 rounding. The
        # model's values are d=16 wide, and 1 wide in the first layer of
        # "full"; "self-attn" has a key bias.
        rng = np.random.default_rng(45)
        for bias, e in ((True, 16), (False, 16), (False, 1)):
            operands = attention_operands(rng, 9, 500, 500, e, np.float32, bias)
            a, b, v, *c = operands
            g = rng.standard_normal((9, 500, e)).astype(np.float32)
            out, _, lse, *grads = self.run(g, *operands)
            want, want_s = whole_batch_attention(*operands)
            np.testing.assert_allclose(out, want, rtol=1e-5, atol=1e-6, err_msg=f"{bias=}")
            np.testing.assert_allclose(lse, whole_batch_lse(a, b, *c), rtol=1e-6,
                                       err_msg=f"{bias=}")
            wanted = whole_batch_attention_vjp(a, b, v, want_s, g, *c)
            assert len(grads) == len(wanted)
            for got, gx in zip(grads, wanted):
                np.testing.assert_allclose(got, gx, rtol=1e-4, atol=1e-5, err_msg=f"{bias=}")

    def test_values_do_not_depend_on_the_blas_thread_count(self):
        # numpy's OpenBLAS is held to one thread however many it was
        # started with, so a seeded training step at a shape whose encoder
        # products OpenBLAS would split over its threads, a dense context
        # build and every attention (exact and interpolated) and
        # feedforward product give the same bits under one and two BLAS
        # threads.
        src = str(Path(nd.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                filter(None, (src, os.environ.get("PYTHONPATH")))))
            proc = subprocess.run([sys.executable, "-c", _BLAS_THREADS_SNIPPET],
                                  capture_output=True, text=True, timeout=300, env=env)
            assert proc.returncode == 0, proc.stderr[-500:]
            digests.append(proc.stdout.split()[-1])
        assert digests[0] == digests[1]

    def test_numpy_blas_holds_one_thread(self):
        libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
        getters = [getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_num_threads64_", None)
                   for path in sorted(libs.glob("*openblas*"))]
        getters = [get for get in getters if get is not None]
        if not getters:
            pytest.skip("numpy has no bundled OpenBLAS with a thread-count getter")
        for get in getters:
            get.restype = ctypes.c_int
            assert get() == 1


_BLAS_THREADS_SNIPPET = """
import hashlib
import numpy as np
from diffcf import camae, graph, ndtensor as nd, train
from diffcf.bench import synth_interactions
from diffcf.dataset import dense_rows
from diffcf.schedule import build_schedule
rng = np.random.default_rng(47)
digest = hashlib.sha256()
w_in, w_out = (rng.standard_normal(s).astype(np.float32) / 4 for s in ((16, 64), (64, 16)))
cases = [("cross_attention", [rng.standard_normal(s).astype(np.float32) for s in
                              [(9, 500, 1), (9, 500, 1), (9, 500, e)] + [(9, 500, 1)] * bias], e)
         for bias, e in ((True, 16), (False, 16), (False, 1))]
# Queries of at most 1/64: these users interpolate.
cases += [("cross_attention", [x / np.float32(64 * np.abs(x).max()) if i == 0 else x
                               for i, x in enumerate(inputs)], e) for _, inputs, e in cases[:2]]
cases.append(("feedforward", (rng.standard_normal((9, 500, 16)).astype(np.float32),
                              w_in, w_out), 16))
for op, inputs, e in cases:
    g = rng.standard_normal((9, 500, e)).astype(np.float32)
    tape = nd.Tape()
    ids = [tape.leaf(x, trainable=True) for x in inputs]
    node = tape.record(op, *ids)
    grads = dict(tape._vjp(node, g))
    digest.update(node.value.tobytes())
    for leaf in ids:
        digest.update(grads[leaf].tobytes())
matrix = synth_interactions(700, 900, 0.94, seed=3)
contexts = graph.build_contexts(matrix, H=3)
for h in contexts.hop_list:
    for a in (contexts.hops[h].indptr, contexts.hops[h].indices, contexts.hops[h].data):
        digest.update(a.tobytes())
cfg = camae.CamAeConfig(num_users=matrix.num_users, num_items=matrix.num_items, latent_dim=64)
params = camae.init_params(cfg, seed=5)
users = rng.integers(0, matrix.num_users, size=64)
t = rng.integers(1, 101, size=64)
noise = rng.standard_normal((64, matrix.num_items)).astype(np.float32)
train.train_step(params, nd.init_adam(params, lr=1e-3), cfg, build_schedule(T=100), "vlb",
                 dense_rows(matrix, users), {h: contexts.batch_rows(users, h) for h in (2, 3)},
                 t, noise)
for name in sorted(params):
    digest.update(params[name].tobytes())
print(digest.hexdigest())
"""


def interpolating_operands(rng, reaches, m, n, e, dtype, bias):
    """Operands with one user per entry of `reaches`: its queries peak at
    |a| = 0.75, so its node interval is [-1, 1], and its keys at |b| =
    reach, which is then its logit bound R; values and key bias are
    standard normal."""
    batch = len(reaches)
    a = rng.uniform(-1, 1, (batch, m, 1))
    a *= 0.75 / np.abs(a).max(axis=(1, 2), keepdims=True)
    b = rng.uniform(-1, 1, (batch, n, 1))
    b *= np.asarray(reaches, np.float64)[:, None, None] / np.abs(b).max(axis=(1, 2), keepdims=True)
    rest = [rng.standard_normal((batch, n, e))] + [rng.standard_normal((batch, n, 1))] * bias
    return [x.astype(dtype) for x in (a, b, *rest)]


def node_counts(dtype, m):
    """Each logit bound the table serves, halfway into its band, with its
    node count, then R = 0 and a bound past the table, where the points are
    the queries (count 0)."""
    bounds, counts = nd._NODE_TABLE[np.dtype(dtype)]
    cases = [(0.0, counts[0])] + [((lo + hi) / 2, count) for lo, hi, count
                                  in zip((0.0,) + bounds, bounds, counts) if 4 * count <= m]
    return cases + [(1.5 * bounds[-1], 0)]


class TestInterpolatedAttention:
    """A user whose logit bound R = A max|b| is small takes f from M
    Chebyshev nodes of [-A, A]: the op must still match the exact oracle
    (`whole_batch_attention`, in float64) within the tolerances of
    `TestChunkedAttention`, forward and every gradient, from R = 0 to past
    the table, where the points are the queries, and under a key bias past
    the range of exp. The one statistic a training node keeps, the float64
    log-sum-exp of every point row, must match the oracle there."""

    M, N, DV = 384, 512, 5

    def check(self, operands, nodes, seed):
        tape = nd.Tape()
        ids = [tape.leaf(x, trainable=True) for x in operands]
        node = tape.record("cross_attention", *ids)
        dtype = operands[0].dtype.type
        scale, got_nodes = nd._plan(*operands[:2])
        assert got_nodes.tolist() == nodes
        wide = [x.astype(np.float64) for x in operands]
        a, b, v, *c = wide
        want, want_s = whole_batch_attention(*wide)
        tol = TOLERANCE[dtype]
        assert node.value.dtype == dtype
        np.testing.assert_allclose(node.value, want, **tol)
        g = np.random.default_rng(seed).standard_normal(want.shape)
        got = dict(tape._vjp(node, g.astype(dtype)))
        for leaf, gx in zip(ids, whole_batch_attention_vjp(a, b, v, want_s, g, *c)):
            assert got[leaf].dtype == dtype
            np.testing.assert_allclose(got[leaf], gx, **tol)
        # Per point row, the float64 log-sum-exp, and nothing else.
        width = max(count or self.M for count in nodes)
        assert set(node.ctx) == {"lse"}
        assert node.ctx["lse"].shape == (len(a), width) and node.ctx["lse"].dtype == np.float64
        for user, count in enumerate(nodes):
            row = slice(user, user + 1)
            keys = (b[row], *(x[row] for x in c))
            if not count:
                np.testing.assert_allclose(node.ctx["lse"][row, :self.M],
                                           whole_batch_lse(a[row], *keys), **tol)
                continue
            points = scale[user] * nd._chebyshev(count)[0][None]
            np.testing.assert_allclose(node.ctx["lse"][row, :count],
                                       whole_batch_lse(points, *keys), **TOLERANCE[np.float64])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bias", [False, True])
    def test_bounds_from_zero_past_the_fallback(self, dtype, bias):
        rng = np.random.default_rng(60)
        for seed, (reach, count) in enumerate(node_counts(dtype, self.M)):
            operands = interpolating_operands(rng, [reach] * 2, self.M, self.N, self.DV, dtype,
                                              bias)
            self.check(operands, [count] * 2, seed)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_row_max_route(self, dtype):
        # A key bias offset by 1500, past 2 log(finfo(float64).max), keeps
        # the user's node count at every R, from the table's to past it:
        # every point row is lowered by its max before exp, and f does not
        # see the offset.
        rng = np.random.default_rng(61)
        for seed, (reach, count) in enumerate(node_counts(dtype, self.M)):
            a, b, v, c = interpolating_operands(rng, [reach], self.M, self.N, self.DV, dtype,
                                                True)
            c += dtype(1500.0)
            assert c.min() > 2 * math.log(float(np.finfo(np.float64).max))
            self.check([a, b, v, c], [count], seed)

    def test_users_take_their_own_routes(self):
        # One batch mixes node counts with users whose points are their
        # queries, and a user whose key bias is past the range of exp, in
        # runs that cross a chunk boundary; each user's output and
        # gradients are those of the user alone, bit for bit, and a taped
        # forward gives the bits of an untaped one.
        rng = np.random.default_rng(62)
        reaches = [0.01, 0.01, 0.5, 8.0, 8.0, 0.01, 0.2, 0.2]
        a, b, v, c = interpolating_operands(rng, reaches, self.M, self.N, self.DV, np.float32,
                                            True)
        c[6] += np.float32(1500.0)
        g = rng.standard_normal((len(a), self.M, self.DV)).astype(np.float32)
        _, nodes = nd._plan(a, b)
        assert nodes.tolist() == [4, 4, 12, 0, 0, 4, 8, 8]
        assert chunk_len(self.M, self.N, np.float32) < len(a)
        whole = TestAttentionWorkers.run(g, a, b, v, c)
        assert np.array_equal(whole[0], whole[1])
        self.check([a, b, v, c], nodes.tolist(), seed=63)
        for user in range(len(a)):
            row = slice(user, user + 1)
            alone = TestAttentionWorkers.run(g[row], a[row], b[row], v[row], c[row])
            for got, want in zip(whole[:2] + whole[3:], alone[:2] + alone[3:]):
                assert np.array_equal(got[row], want), user

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_values_do_not_depend_on_the_worker_count(self, dtype, attention_workers):
        chunk = chunk_len(self.M, self.N, dtype)
        rng = np.random.default_rng(64)
        for bias, e in ((True, self.DV), (False, 1)):
            batch = 6 * chunk + 1
            operands = interpolating_operands(rng, ([0.02, 0.2, 1.0] * batch)[:batch],
                                              self.M, self.N, e, dtype, bias)
            assert nd._plan(*operands[:2])[1].all()
            g = rng.standard_normal((batch, self.M, e)).astype(dtype)
            TestAttentionWorkers.same_bits_on_every_worker_count(
                TestAttentionWorkers.run, (g, *operands), TestAttentionWorkers.chunked_jobs(7),
                attention_workers, (bias, e))

    def test_finite_differences_of_the_interpolated_route(self):
        # At m = 128 the op interpolates with up to 32 nodes. Probes of
        # 1e-6 keep max|a| = 0.75 inside (0.5, 1] and R = 0.3 inside the
        # 16-node band of float64, so each stays on one interpolant.
        rng = np.random.default_rng(65)
        operands = interpolating_operands(rng, [0.3, 0.3], 128, 48, 2, np.float64, True)
        assert nd._plan(*operands[:2])[1].tolist() == [16, 16]
        check_op_gradients(
            lambda t, ids: sum_of_squares(t, t.record("cross_attention", *ids)), operands)


class TestSinusoidalEmbedding:
    def test_shape_and_broadcast_axis(self):
        emb = nd.sinusoidal_embedding(np.array([1, 5, 9]), 8)
        assert emb.shape == (3, 1, 8)

    def test_t_zero_rows(self):
        emb = nd.sinusoidal_embedding(np.array([0]), 6, dtype=np.float64)[0, 0]
        np.testing.assert_allclose(emb[:3], 1.0)   # cos(0)
        np.testing.assert_allclose(emb[3:], 0.0)   # sin(0)

    def test_matches_explicit_formula(self):
        dim, ts = 10, np.array([1, 2, 37])
        emb = nd.sinusoidal_embedding(ts, dim, dtype=np.float64)
        half = dim // 2
        for row, t in enumerate(ts):
            for j in range(half):
                freq = math.exp(-math.log(10000.0) * j / half)
                assert abs(emb[row, 0, j] - math.cos(t * freq)) < 1e-12
                assert abs(emb[row, 0, half + j] - math.sin(t * freq)) < 1e-12

    def test_odd_dim_zero_pad(self):
        emb = nd.sinusoidal_embedding(np.array([3, 4]), 5, dtype=np.float64)
        np.testing.assert_array_equal(emb[:, 0, -1], 0.0)


class TestTapeContracts:
    def test_unknown_op_rejected(self):
        tape = nd.Tape()
        a = tape.leaf(np.ones(2))
        with pytest.raises(ContractError):
            tape.record("convolve", a)

    def test_bad_finite_mode_rejected(self):
        for limit in (-1, math.nan):
            with pytest.raises(ContractError):
                nd.Tape(finite_check_limit=limit)

    def test_leaf_rejects_non_float(self):
        with pytest.raises(ContractError):
            nd.Tape().leaf(np.arange(3))

    def test_leaf_rejects_non_finite(self):
        with pytest.raises(NumericError):
            nd.Tape().leaf(np.array([1.0, np.inf]))

    def test_sparse_leaf_cannot_be_trainable(self):
        with pytest.raises(ContractError):
            nd.Tape().leaf(sp.eye(3, format="csr"), trainable=True)

    def test_shape_errors(self):
        tape = nd.Tape()
        a = tape.leaf(np.ones((2, 3)))
        b = tape.leaf(np.ones((2, 3)))
        with pytest.raises(ShapeError):
            tape.record("matmul", a, b)
        with pytest.raises(ShapeError):
            tape.record("add", a, tape.leaf(np.ones((4, 5))))
        with pytest.raises(ShapeError):
            tape.record("mse", a, tape.leaf(np.ones((3, 2))))
        with pytest.raises(ShapeError):
            tape.record("weighted_sum", a, tape.leaf(np.ones((3, 3))),
                        weights=(0.5, 0.5))
        with pytest.raises(ShapeError):
            tape.record("reshape", a, shape=(7, 7))
        with pytest.raises(ShapeError):
            tape.record("feedforward", a, b, tape.leaf(np.ones((3, 2))))
        with pytest.raises(ShapeError):
            tape.record("feedforward", a, tape.leaf(np.ones((3, 4))), b)

    def test_sparse_leaf_rejected(self):
        with pytest.raises(ContractError):
            nd.Tape().leaf(sp.eye(3, format="csr"))

    def test_tape_keeps_only_what_backward_visits(self):
        tape = nd.Tape()
        x = tape.leaf(np.ones((2, 3)))
        const = tape.record("feedforward", tape.record("scale", x, factor=2.0),
                            tape.leaf(np.ones((3, 4))), tape.leaf(np.ones((4, 3))))
        assert const.inputs == () and not const.ctx and not const.requires_grad
        assert not tape.nodes
        w = tape.leaf(np.ones((3, 2)), trainable=True)
        kept = tape.record("matmul", const, w)
        assert kept.inputs == (const, w) and kept.requires_grad
        assert tape.nodes == [w, kept]
        grads = tape.backward(tape.record("mse", kept, tape.leaf(np.zeros((2, 2)))))
        assert list(grads) == [w]

    def test_backward_requires_scalar_loss(self):
        tape = nd.Tape()
        a = tape.leaf(np.ones((2, 2)), trainable=True)
        out = tape.record("feedforward", a, a, a)
        with pytest.raises(ContractError):
            tape.backward(out)

    def test_finite_mode_all_catches_overflow(self):
        tape = nd.Tape(finite_check_limit=math.inf)
        a = tape.leaf(np.full(1 << 21, 1e200))
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            tape.record("scale", a, factor=1e200)

    def test_finite_mode_off_permits_overflow(self):
        tape = nd.Tape(finite_check_limit=0)
        a = tape.leaf(np.array([1e200]))
        with np.errstate(over="ignore"):
            out = tape.record("scale", a, factor=1e200)
        assert np.isinf(out.value).all()

    def test_finite_mode_small_skips_large_arrays(self):
        tape = nd.Tape(finite_check_limit=4)
        small = tape.leaf(np.full(3, 1e200))
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            tape.record("scale", small, factor=1e200)
        big = tape.leaf(np.full(8, 1e200))
        with np.errstate(over="ignore"):
            out = tape.record("scale", big, factor=1e200)
        assert np.isinf(out.value).all()

    def test_backward_rejects_non_finite_loss(self):
        tape = nd.Tape(finite_check_limit=0)
        a = tape.leaf(np.array(1e200), trainable=True)
        with np.errstate(over="ignore"):
            loss = tape.record("mse", tape.record("scale", a, factor=1e200),
                               tape.leaf(np.array(0.0)))
        with pytest.raises(NumericError):
            tape.backward(loss)


def adam_step_with_temporaries(params, grads, state):
    """`nd.adam_step` as plain array expressions, before it worked in
    scratch buffers: the exact oracle for its bits."""
    state.step += 1
    c1 = 1.0 - state.beta1 ** state.step
    c2 = 1.0 - state.beta2 ** state.step
    for name, p in params.items():
        g = grads.get(name)
        m, v = state.m[name], state.v[name]
        m *= state.beta1
        v *= state.beta2
        if g is not None:
            m += (1.0 - state.beta1) * g
            v += (1.0 - state.beta2) * (g * g)
        p -= (state.lr / c1) * m / (np.sqrt(v / c2) + state.eps)
    return state


def _transposed_normal(rng, x):
    """A random array shaped like `x`, as a transposed view of its storage."""
    return rng.standard_normal(x.shape[::-1]).T


class TestAdam:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_plain_expressions(self, dtype):
        rng = np.random.default_rng(41)
        params = {"w": rng.standard_normal((5, 7)).astype(dtype),
                  "b": rng.standard_normal(9).astype(dtype)}
        ref = {k: v.copy() for k, v in params.items()}
        state, ref_state = nd.init_adam(params, lr=3e-3), nd.init_adam(ref, lr=3e-3)
        for step in range(6):
            grads = {k: rng.standard_normal(v.shape).astype(dtype)
                     for k, v in params.items() if step % 3 != 2 or k == "w"}
            nd.adam_step(params, grads, state)
            adam_step_with_temporaries(ref, grads, ref_state)
            for k in params:
                assert np.array_equal(params[k], ref[k])
                assert np.array_equal(state.m[k], ref_state.m[k])
                assert np.array_equal(state.v[k], ref_state.v[k])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("tile", [16, nd.ADAM_TILE])
    def test_tiles_bit_identical_on_any_worker_count(self, dtype, tile, monkeypatch,
                                                     attention_workers):
        # "w" spans several slices with a ragged last one, "e" gets its
        # gradient as a transposed view, "b" is 1-D, "wide" has slices that
        # end inside a row and "cube" is 3-D; every third step only "w" has
        # a gradient.
        monkeypatch.setattr(nd, "ADAM_TILE", tile)
        rng = np.random.default_rng(42)
        init = {"w": rng.standard_normal((3 * (tile // 7) + 1, 7)).astype(dtype),
                "e": rng.standard_normal((5, 9)).astype(dtype),
                "b": rng.standard_normal(37).astype(dtype),
                "wide": rng.standard_normal((2, 40)).astype(dtype),
                "cube": rng.standard_normal((3, 4, 6)).astype(dtype)}
        steps = [{k: (_transposed_normal(rng, v) if k == "e" else rng.standard_normal(v.shape))
                  .astype(dtype, copy=False)
                  for k, v in init.items() if step % 3 != 2 or k == "w"}
                 for step in range(5)]
        assert not steps[0]["e"].flags.c_contiguous
        ref = {k: v.copy() for k, v in init.items()}
        ref_state = nd.init_adam(ref, lr=3e-3)
        for grads in steps:
            adam_step_with_temporaries(ref, grads, ref_state)
        for workers in (1, 2, 3):
            pool = attention_workers(workers)
            params = {k: v.copy() for k, v in init.items()}
            state = nd.init_adam(params, lr=3e-3)
            for grads in steps:
                nd.adam_step(params, grads, state)
            assert pool.jobs == 5 * workers  # at least two slices per worker
            for k in params:
                assert np.array_equal(params[k], ref[k]), (k, workers)
                assert np.array_equal(state.m[k], ref_state.m[k]), (k, workers)
                assert np.array_equal(state.v[k], ref_state.v[k]), (k, workers)

    @staticmethod
    def reference_adam(params, grads, state_m, state_v, step, lr=1e-3,
                       b1=0.9, b2=0.999, eps=1e-8):
        """Textbook bias-corrected Adam, recomputed independently."""
        out = {}
        for k in params:
            m = b1 * state_m[k] + (1 - b1) * grads[k]
            v = b2 * state_v[k] + (1 - b2) * grads[k] ** 2
            mhat = m / (1 - b1 ** step)
            vhat = v / (1 - b2 ** step)
            out[k] = (params[k] - lr * mhat / (np.sqrt(vhat) + eps), m, v)
        return out

    def test_matches_reference_over_steps(self):
        rng = np.random.default_rng(40)
        params = {"w": rng.standard_normal((3, 2)).astype(np.float32),
                  "b": rng.standard_normal(4).astype(np.float32)}
        ref = {k: v.astype(np.float64) for k, v in params.items()}
        ref_m = {k: np.zeros_like(v) for k, v in ref.items()}
        ref_v = {k: np.zeros_like(v) for k, v in ref.items()}
        state = nd.init_adam(params, lr=1e-3)
        for step in range(1, 4):
            grads = {k: rng.standard_normal(v.shape) for k, v in params.items()}
            nd.adam_step(params, {k: g.astype(np.float32) for k, g in grads.items()},
                         state)
            updated = self.reference_adam(ref, grads, ref_m, ref_v, step)
            for k in ref:
                ref[k], ref_m[k], ref_v[k] = updated[k]
                np.testing.assert_allclose(params[k], ref[k], rtol=1e-5, atol=1e-6)
        assert state.step == 3

    def test_first_step_is_signlike(self):
        # After one step the update is lr * g / (|g| + eps) = lr * sign(g).
        params = {"w": np.array([1.0, -2.0], dtype=np.float32)}
        state = nd.init_adam(params, lr=0.1)
        nd.adam_step(params, {"w": np.array([3.0, -5.0], dtype=np.float32)}, state)
        np.testing.assert_allclose(params["w"], [0.9, -1.9], atol=1e-6)

    def test_missing_grads_decay_moments(self):
        params = {"w": np.ones(2, dtype=np.float32)}
        state = nd.init_adam(params, lr=0.01)
        nd.adam_step(params, {"w": np.ones(2, dtype=np.float32)}, state)
        m1, v1 = state.m["w"].copy(), state.v["w"].copy()
        nd.adam_step(params, {}, state)
        np.testing.assert_allclose(state.m["w"], 0.9 * m1, rtol=1e-6)
        np.testing.assert_allclose(state.v["w"], 0.999 * v1, rtol=1e-6)

    def test_shape_mismatch_rejected(self):
        params = {"w": np.ones(2, dtype=np.float32)}
        state = nd.init_adam(params, lr=0.01)
        with pytest.raises(ShapeError):
            nd.adam_step(params, {"w": np.ones(3, dtype=np.float32)}, state)

    @pytest.mark.parametrize("array", ["param", "m", "v"])
    def test_strided_param_or_moment_rejected(self, array):
        # The flat view of a transposed array is a copy: an update written
        # to it would be lost, so the step refuses before touching anything.
        params = {"b": np.ones(4, np.float32), "w": np.ones((3, 2), np.float32)}
        state = nd.init_adam(params, lr=0.01)
        if array == "param":
            params["w"] = np.ones((2, 3), np.float32).T
        else:
            getattr(state, array)["w"] = np.zeros((2, 3), np.float32).T
        before = {k: v.copy() for k, v in params.items()}
        with pytest.raises(ContractError, match="'w'"):
            nd.adam_step(params, {k: np.ones_like(v) for k, v in params.items()}, state)
        assert state.step == 0
        assert all(np.array_equal(params[k], before[k]) for k in params)


class TestGradientCheckHarness:
    def test_smooth_model_passes_tightly(self):
        rng = np.random.default_rng(50)
        x = rng.standard_normal((4, 3))
        y = rng.standard_normal((4, 2))
        params = {"w": rng.standard_normal((3, 2)).astype(np.float32)}

        def build(tape, leaves):
            return tape.record("mse", tape.record("matmul", tape.leaf(x), leaves["w"]),
                               tape.leaf(y))

        report = nd.gradient_check(build, params, eps=1e-3)
        assert report.max_rel_err < 1e-7, report.summary()
        assert report.checked == 6
        assert set(report.per_param) == {"w"}
        assert "max_rel" in report.summary()

    def test_multi_scale_probing_survives_relu_kinks(self):
        # Parameters sit ~1e-4 from a ReLU kink: the widest probe straddles
        # it, the narrowest does not, so the best-agreeing probe stays clean.
        rng = np.random.default_rng(51)
        x = np.ones((5, 3))
        y = rng.standard_normal((5, 2))
        params = {"w": (rng.uniform(0.5e-4, 2e-4, (3, 2))
                        * rng.choice([-1.0, 1.0], (3, 2))).astype(np.float32)}

        def build(tape, leaves):
            h = tape.record("feedforward", tape.leaf(x), leaves["w"], tape.leaf(np.eye(2)))
            return tape.record("mse", h, tape.leaf(y))

        report = nd.gradient_check(build, params, eps=1e-3)
        assert report.max_rel_err < 1e-4, report.summary()


class TestCheckpointIO:
    def _payload(self):
        rng = np.random.default_rng(60)
        params = {"w": rng.standard_normal((3, 2)).astype(np.float32),
                  "col": rng.standard_normal((4, 1)).astype(np.float32)}
        adam = nd.init_adam(params, lr=2e-3)
        nd.adam_step(params, {k: np.ones_like(v) for k, v in params.items()}, adam)
        return params, adam

    def test_round_trip_bitwise(self, tmp_path):
        params, adam = self._payload()
        path = tmp_path / "model.cfck"
        nd.save_checkpoint(path, params, "lr = 0.002\n", (10, 1e-4, 0.02, 1.0),
                           adam=adam)
        loaded, adam2, fields, text = nd.load_checkpoint(path)
        assert fields == (10, 1e-4, 0.02, 1.0)
        assert text == "lr = 0.002\n"
        for k in params:
            assert np.array_equal(loaded[k], params[k])
            assert np.array_equal(adam2.m[k], adam.m[k])
            assert np.array_equal(adam2.v[k], adam.v[k])
        assert adam2.step == 1
        assert (adam2.lr, adam2.beta1, adam2.beta2, adam2.eps) == (2e-3, 0.9, 0.999, 1e-8)

    @pytest.mark.parametrize("hyper", [None, np.ones(4, np.float32)], ids=["missing", "float32"])
    def test_adam_hyper_not_four_float64_is_format_error(self, tmp_path, hyper):
        params, adam = self._payload()
        path = tmp_path / "model.cfck"
        nd.save_checkpoint(path, params, "x = 1\n", (5, 0.1, 0.2, 1.0), adam=adam)
        arrays = read_arrays(path, b"CFCK", 4, "checkpoint")
        entries = [(k, v.dtype.str, v) for k, v in arrays.items() if k != "adam.hyper"]
        if hyper is not None:
            entries.append(("adam.hyper", "<f4", hyper))
        path.write_bytes(container_bytes(b"CFCK", 4, entries))
        with pytest.raises(FormatError, match="array 'adam.hyper' is "):
            nd.load_checkpoint(path)

    def test_save_is_deterministic(self, tmp_path):
        params, adam = self._payload()
        a, b = tmp_path / "a.cfck", tmp_path / "b.cfck"
        for path in (a, b):
            nd.save_checkpoint(path, params, "x = 1\n", (5, 0.1, 0.2, 1.0),
                               adam=adam)
        assert a.read_bytes() == b.read_bytes()

    def test_no_adam_round_trip(self, tmp_path):
        params, _ = self._payload()
        path = tmp_path / "bare.cfck"
        nd.save_checkpoint(path, params, "", (3, 0.1, 0.3, 0.5))
        _, adam, fields, _ = nd.load_checkpoint(path)
        assert adam is None
        assert fields == (3, 0.1, 0.3, 0.5)

    def test_bad_magic_and_truncation(self, tmp_path):
        params, _ = self._payload()
        path = tmp_path / "model.cfck"
        nd.save_checkpoint(path, params, "a = 1\n", (2, 0.1, 0.2, 1.0))
        raw = path.read_bytes()
        bad = tmp_path / "bad.cfck"
        bad.write_bytes(b"XXXX" + raw[4:])
        with pytest.raises(FormatError):
            nd.load_checkpoint(bad)
        cut = tmp_path / "cut.cfck"
        cut.write_bytes(raw[:-7])
        with pytest.raises(FormatError):
            nd.load_checkpoint(cut)
