"""Verification suite for the tape engine.

Every differentiable op is checked against central finite differences
computed by an oracle in this file (not the engine's own checker), the
fused attention op is cross-checked against its primitive composition
and, bit for bit, against the whole-batch computation its chunked kernel
replaced, Adam is compared to an independent reimplementation, and
checkpoints must round-trip bitwise.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from diffcf import ndtensor as nd
from diffcf.errors import ContractError, FormatError, NumericError, ShapeError


def analytic_gradients(build, arrays):
    """Reverse-mode gradients of the scalar loss built by `build(tape, ids)`."""
    tape = nd.Tape(finite_mode="off")
    ids = [tape.leaf(np.asarray(a, dtype=np.float64), trainable=True) for a in arrays]
    by_id = tape.backward(build(tape, ids))
    return [by_id[i] for i in ids]


def fd_gradients(build, arrays, eps=1e-6):
    """Independent central-difference oracle, one probe per entry."""

    def loss_at(vals):
        tape = nd.Tape(finite_mode="off")
        ids = [tape.leaf(v, trainable=True) for v in vals]
        return float(tape.value(build(tape, ids)))

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
    zero = tape.leaf(np.zeros_like(tape.value(node)))
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

    def test_matmul_sparse_left(self):
        rng = np.random.default_rng(3)
        mask = rng.random((3, 4)) < 0.5
        a = sp.csr_matrix(np.where(mask, rng.standard_normal((3, 4)), 0.0))
        b = rng.standard_normal((4, 2))

        def build(t, ids):
            return sum_of_squares(t, t.record("matmul", t.leaf(a), ids[0]))

        check_op_gradients(build, [b])

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
        rng = np.random.default_rng(7)
        a = rng.standard_normal((2, 5))
        check_op_gradients(
            lambda t, ids: sum_of_squares(t, t.record("row_softmax", ids[0])), [a])

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(8)
        a = rng.uniform(0.2, 1.0, (3, 4)) * rng.choice([-1.0, 1.0], (3, 4))
        check_op_gradients(
            lambda t, ids: sum_of_squares(t, t.record("relu", ids[0])), [a])

    def test_mean_over_cols(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((3, 5))
        check_op_gradients(
            lambda t, ids: sum_of_squares(t, t.record("mean_over_cols", ids[0])), [a])

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
        q = rng.standard_normal((2, 3, 4))
        k = rng.standard_normal((2, 5, 4))
        v = rng.standard_normal((2, 5, 2))
        check_op_gradients(
            lambda t, ids: sum_of_squares(t, t.record("cross_attention", *ids)),
            [q, k, v])

    def test_transpose_last2(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((2, 3, 4))
        check_op_gradients(
            lambda t, ids: sum_of_squares(t, t.record("transpose_last2", ids[0])), [a])

    def test_reshape(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((2, 6))
        check_op_gradients(
            lambda t, ids: sum_of_squares(t, t.record("reshape", ids[0], shape=(3, 4))),
            [a])

    def test_col_slice(self):
        rng = np.random.default_rng(15)
        a = rng.standard_normal((3, 5))
        check_op_gradients(
            lambda t, ids: sum_of_squares(t, t.record("col_slice", ids[0], n=2)), [a])

    def test_shared_leaf_accumulates(self):
        # A leaf feeding two branches must receive the sum of both adjoints.
        rng = np.random.default_rng(16)
        x = rng.uniform(0.3, 1.0, (3, 3))
        w = rng.standard_normal((3, 3))

        def build(t, ids):
            xid, wid = ids
            y1 = t.record("matmul", xid, wid)
            y2 = t.record("relu", xid)
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

    def test_row_softmax_hand_case(self):
        tape = nd.Tape()
        out = tape.record("row_softmax", tape.leaf(np.array([[0.0, math.log(2.0)]])))
        np.testing.assert_allclose(tape.value(out), [[1 / 3, 2 / 3]], rtol=1e-12)

    def test_row_softmax_shift_invariant(self):
        # Shifting logits by a constant must not change the distribution;
        # max-subtraction keeps this stable even for huge shifts.
        rng = np.random.default_rng(20)
        a = rng.standard_normal((4, 6))
        tape = nd.Tape()
        s1 = tape.value(tape.record("row_softmax", tape.leaf(a)))
        s2 = tape.value(tape.record("row_softmax", tape.leaf(a + 123.0)))
        np.testing.assert_allclose(s1, s2, atol=1e-13)

    def test_row_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((5, 7)) * 10
        tape = nd.Tape()
        s = tape.value(tape.record("row_softmax", tape.leaf(a)))
        np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-12)
        assert (s > 0).all()

    def test_mse_is_sum_of_squared_differences(self):
        tape = nd.Tape()
        a = tape.leaf(np.array([[1.0, 2.0]]))
        b = tape.leaf(np.array([[3.0, 5.0]]))
        assert float(tape.value(tape.record("mse", a, b))) == 13.0

    def test_mean_over_cols_value(self):
        tape = nd.Tape()
        out = tape.record("mean_over_cols", tape.leaf(np.array([[1.0, 2.0, 6.0]])))
        np.testing.assert_allclose(tape.value(out), [[3.0]])

    def test_weighted_sum_value(self):
        tape = nd.Tape()
        a = tape.leaf(np.array([2.0, 4.0]))
        b = tape.leaf(np.array([10.0, 0.0]))
        out = tape.record("weighted_sum", a, b, weights=(0.25, 0.75))
        np.testing.assert_allclose(tape.value(out), [8.0, 1.0])

    def test_cross_attention_hand_case(self):
        # One query against two keys: softmax([1, 0]) blends values 2 and 4.
        tape = nd.Tape()
        q = tape.leaf(np.array([[1.0]]))
        k = tape.leaf(np.array([[1.0], [0.0]]))
        v = tape.leaf(np.array([[2.0], [4.0]]))
        out = tape.value(tape.record("cross_attention", q, k, v)).item()
        expected = (2.0 * math.e + 4.0) / (math.e + 1.0)
        assert abs(out - expected) < 1e-12

    def test_cross_attention_matches_primitive_composition(self):
        rng = np.random.default_rng(22)
        q = rng.standard_normal((2, 3, 4))
        k = rng.standard_normal((2, 5, 4))
        v = rng.standard_normal((2, 5, 4))

        tape = nd.Tape()
        fused = tape.record("cross_attention", tape.leaf(q), tape.leaf(k), tape.leaf(v))

        t2 = nd.Tape()
        qi, ki, vi = t2.leaf(q), t2.leaf(k), t2.leaf(v)
        logits = t2.record("matmul", qi, t2.record("transpose_last2", ki))
        scaled = t2.record("scale", logits, factor=1.0 / math.sqrt(4))
        composed = t2.record("matmul", t2.record("row_softmax", scaled), vi)

        np.testing.assert_allclose(tape.value(fused), t2.value(composed), atol=1e-12)

    def test_cross_attention_gradient_matches_composition(self):
        rng = np.random.default_rng(23)
        q = rng.standard_normal((2, 3, 4))
        k = rng.standard_normal((2, 5, 4))
        v = rng.standard_normal((2, 5, 4))

        def fused(t, ids):
            return sum_of_squares(t, t.record("cross_attention", *ids))

        def composed(t, ids):
            qi, ki, vi = ids
            logits = t.record("matmul", qi, t.record("transpose_last2", ki))
            scaled = t.record("scale", logits, factor=1.0 / math.sqrt(4))
            return sum_of_squares(
                t, t.record("matmul", t.record("row_softmax", scaled), vi))

        for a, b in zip(analytic_gradients(fused, [q, k, v]),
                        analytic_gradients(composed, [q, k, v])):
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_col_slice_and_transpose_values(self):
        tape = nd.Tape()
        a = tape.leaf(np.arange(6, dtype=np.float64).reshape(2, 3))
        sliced = tape.value(tape.record("col_slice", a, n=2))
        np.testing.assert_array_equal(sliced, [[0, 1], [3, 4]])
        swapped = tape.value(tape.record("transpose_last2", a))
        np.testing.assert_array_equal(swapped, [[0, 3], [1, 4], [2, 5]])

    def test_float32_preserved_through_ops(self):
        tape = nd.Tape()
        a = tape.leaf(np.ones((2, 3), dtype=np.float32))
        b = tape.leaf(np.ones((3, 2), dtype=np.float32))
        for nid in (tape.record("matmul", a, b),
                    tape.record("row_softmax", a),
                    tape.record("relu", a),
                    tape.record("mean_over_cols", a)):
            assert tape.value(nid).dtype == np.float32


def whole_batch_attention(q, k, v):
    """The cross-attention forward as it was before the chunked kernel:
    every (B, m, n) temporary materialised at once. Returns (out, softmax)."""
    inv = 1.0 / math.sqrt(q.shape[-1])
    logits = np.matmul(q, np.swapaxes(k, -1, -2)) * np.asarray(inv, dtype=q.dtype)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    denom = e.sum(axis=-1, keepdims=True, dtype=np.float64)
    s = (e / denom).astype(q.dtype)
    return np.matmul(s, v), s


def whole_batch_attention_vjp(q, k, v, s, g):
    """The whole-batch backward matching `whole_batch_attention`."""
    inv = 1.0 / math.sqrt(q.shape[-1])
    gv = nd._reduce_to(np.matmul(np.swapaxes(s, -1, -2), g), v.shape)
    gs = np.matmul(g, np.swapaxes(v, -1, -2))
    inner = (gs * s).sum(axis=-1, keepdims=True, dtype=np.float64).astype(s.dtype)
    gl = (s * (gs - inner)) * np.asarray(inv, dtype=s.dtype)
    gq = nd._reduce_to(np.matmul(gl, k), q.shape)
    gk = nd._reduce_to(np.matmul(np.swapaxes(gl, -1, -2), q), k.shape)
    return gq, gk, gv


def chunk_len(m, n, dtype, rows=1):
    return max(1, nd.ATTN_CHUNK_BYTES // (rows * m * n * np.dtype(dtype).itemsize))


class TestChunkedAttention:
    """The chunked kernel against the whole-batch oracle, bit for bit."""

    # Large enough that a handful of users fill a chunk of the budget.
    M, N, D, DV = 384, 512, 8, 5

    def assert_matches_oracle(self, q, k, v, seed):
        tape = nd.Tape()
        ids = [tape.leaf(x, trainable=True) for x in (q, k, v)]
        node = tape.nodes[tape.record("cross_attention", *ids)]
        want, want_s = whole_batch_attention(q, k, v)
        assert node.value.shape == want.shape and node.value.dtype == want.dtype
        assert np.array_equal(node.value, want)
        assert np.array_equal(node.ctx["softmax"], want_s)
        g = np.random.default_rng(seed).standard_normal(want.shape).astype(want.dtype)
        got = dict(tape._vjp(node, g))
        for iid, x, gx in zip(ids, (q, k, v), whole_batch_attention_vjp(q, k, v, want_s, g)):
            assert got[iid].shape == x.shape and got[iid].dtype == gx.dtype
            assert np.array_equal(got[iid], gx)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batches_around_the_chunk_length(self, dtype):
        chunk = chunk_len(self.M, self.N, dtype)
        assert 2 <= chunk < 16, "operands must span several chunks"
        rng = np.random.default_rng(40)
        for batch in sorted({1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1}):
            q = rng.standard_normal((batch, self.M, self.D)).astype(dtype)
            k = rng.standard_normal((batch, self.N, self.D)).astype(dtype)
            v = rng.standard_normal((batch, self.N, self.DV)).astype(dtype)
            self.assert_matches_oracle(q, k, v, seed=batch)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_two_dimensional_operands(self, dtype):
        rng = np.random.default_rng(41)
        q = rng.standard_normal((self.M, self.D)).astype(dtype)
        k = rng.standard_normal((self.N, self.D)).astype(dtype)
        v = rng.standard_normal((self.N, self.DV)).astype(dtype)
        self.assert_matches_oracle(q, k, v, seed=1)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_broadcast_batch_dimensions(self, dtype):
        rng = np.random.default_rng(42)
        batch = chunk_len(self.M, self.N, dtype) + 1
        cases = [
            ((batch, self.M, self.D), (self.N, self.D), (1, self.N, self.DV)),
            ((self.M, self.D), (batch, self.N, self.D), (batch, self.N, self.DV)),
            ((2, 1, self.M, self.D), (3, self.N, self.D), (2, 3, self.N, self.DV)),
        ]
        for seed, shapes in enumerate(cases):
            q, k, v = (rng.standard_normal(shape).astype(dtype) for shape in shapes)
            self.assert_matches_oracle(q, k, v, seed=seed)

    def test_softmax_kept_only_for_gradients(self):
        rng = np.random.default_rng(43)
        q, k, v = (rng.standard_normal((3, 6, 4)).astype(np.float32) for _ in range(3))
        tape = nd.Tape()
        plain = tape.nodes[tape.record("cross_attention", *(tape.leaf(x) for x in (q, k, v)))]
        assert "softmax" not in plain.ctx and not plain.requires_grad
        ids = [tape.leaf(q, trainable=True), tape.leaf(k), tape.leaf(v)]
        kept = tape.nodes[tape.record("cross_attention", *ids)]
        assert kept.ctx["softmax"].shape == (3, 6, 6)
        assert np.array_equal(plain.value, kept.value)

    def test_rejects_mixed_dtypes_and_unbroadcastable_batches(self):
        tape = nd.Tape()
        q = tape.leaf(np.ones((2, 3, 4), np.float32))
        with pytest.raises(ContractError):
            tape.record("cross_attention", q, tape.leaf(np.ones((2, 5, 4))),
                        tape.leaf(np.ones((2, 5, 4), np.float32)))
        kv = tape.leaf(np.ones((3, 5, 4), np.float32))
        with pytest.raises(ShapeError):
            tape.record("cross_attention", q, kv, kv)


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

    def test_tape_op_carries_no_gradient(self):
        tape = nd.Tape()
        eid = tape.record("sinusoidal_embed", t=np.array([1, 2]), dim=4)
        assert not tape.nodes[eid].requires_grad


class TestTapeContracts:
    def test_unknown_op_rejected(self):
        tape = nd.Tape()
        a = tape.leaf(np.ones(2))
        with pytest.raises(ContractError):
            tape.record("convolve", a)

    def test_bad_finite_mode_rejected(self):
        with pytest.raises(ContractError):
            nd.Tape(finite_mode="sometimes")

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
            tape.record("col_slice", a, n=9)
        with pytest.raises(ShapeError):
            tape.record("transpose_last2", tape.leaf(np.ones(3)))

    def test_sparse_only_on_matmul_left(self):
        tape = nd.Tape()
        a = tape.leaf(np.ones((2, 3)))
        s = tape.leaf(sp.eye(3, format="csr"))
        with pytest.raises(ContractError):
            tape.record("matmul", a, s)

    def test_backward_requires_scalar_loss(self):
        tape = nd.Tape()
        a = tape.leaf(np.ones((2, 2)), trainable=True)
        out = tape.record("relu", a)
        with pytest.raises(ContractError):
            tape.backward(out)

    def test_finite_mode_all_catches_overflow(self):
        tape = nd.Tape(finite_mode="all")
        a = tape.leaf(np.array([1e200]))
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            tape.record("scale", a, factor=1e200)

    def test_finite_mode_off_permits_overflow(self):
        tape = nd.Tape(finite_mode="off")
        a = tape.leaf(np.array([1e200]))
        with np.errstate(over="ignore"):
            out = tape.record("scale", a, factor=1e200)
        assert np.isinf(tape.value(out)).all()

    def test_finite_mode_small_skips_large_arrays(self):
        tape = nd.Tape(finite_mode="small", finite_check_limit=4)
        small = tape.leaf(np.full(3, 1e200))
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            tape.record("scale", small, factor=1e200)
        big = tape.leaf(np.full(8, 1e200))
        with np.errstate(over="ignore"):
            out = tape.record("scale", big, factor=1e200)
        assert np.isinf(tape.value(out)).all()

    def test_backward_rejects_non_finite_loss(self):
        tape = nd.Tape(finite_mode="off")
        a = tape.leaf(np.array(1e200), trainable=True)
        with np.errstate(over="ignore"):
            loss = tape.record("mse", tape.record("scale", a, factor=1e200),
                               tape.leaf(np.array(0.0)))
        with pytest.raises(NumericError):
            tape.backward(loss)


class TestReplay:
    def test_replay_reproduces_every_value(self):
        rng = np.random.default_rng(30)
        tape = nd.Tape()
        x = tape.leaf(rng.standard_normal((2, 3, 4)), trainable=True)
        w = tape.leaf(rng.standard_normal((4, 4)), trainable=True)
        q = tape.record("matmul", x, w)
        att = tape.record("cross_attention", q, x, x)
        emb = tape.record("sinusoidal_embed", t=np.array([1, 2]), dim=4)
        mixed = tape.record("add", att, emb)
        flat = tape.record("reshape", tape.record("relu", mixed), shape=(2, 12))
        loss = tape.record("mse", flat, tape.leaf(np.zeros((2, 12))))
        before = [np.array(n.value, copy=True) for n in tape.nodes]
        tape.replay()
        for orig, node in zip(before, tape.nodes):
            assert np.array_equal(orig, node.value)
        assert float(tape.value(loss)) == float(before[loss])


class TestAdam:
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
            h = tape.record("relu", tape.record("matmul", tape.leaf(x), leaves["w"]))
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
        nd.save_checkpoint(path, params, "lr = 0.002\n", (10, 1e-4, 0.02, "linear", 1.0),
                           adam=adam)
        loaded, adam2, fields, text = nd.load_checkpoint(path)
        assert fields == (10, 1e-4, 0.02, "linear", 1.0)
        assert text == "lr = 0.002\n"
        for k in params:
            assert np.array_equal(loaded[k], params[k])
            assert np.array_equal(adam2.m[k], adam.m[k])
            assert np.array_equal(adam2.v[k], adam.v[k])
        assert adam2.step == 1
        assert adam2.beta1 == pytest.approx(0.9)

    def test_save_is_deterministic(self, tmp_path):
        params, adam = self._payload()
        a, b = tmp_path / "a.cfck", tmp_path / "b.cfck"
        for path in (a, b):
            nd.save_checkpoint(path, params, "x = 1\n", (5, 0.1, 0.2, "linear", 1.0),
                               adam=adam)
        assert a.read_bytes() == b.read_bytes()

    def test_no_adam_round_trip(self, tmp_path):
        params, _ = self._payload()
        path = tmp_path / "bare.cfck"
        nd.save_checkpoint(path, params, "", (3, 0.1, 0.3, "linear-scaled", 0.5))
        _, adam, fields, _ = nd.load_checkpoint(path)
        assert adam is None
        assert fields[3] == "linear-scaled"

    def test_sidecar_tamper_detected(self, tmp_path):
        params, _ = self._payload()
        path = tmp_path / "model.cfck"
        nd.save_checkpoint(path, params, "a = 1\n", (2, 0.1, 0.2, "linear", 1.0))
        (tmp_path / "model.cfck.config").write_text("a = 2\n")
        with pytest.raises(FormatError):
            nd.load_checkpoint(path)

    def test_missing_sidecar_detected(self, tmp_path):
        params, _ = self._payload()
        path = tmp_path / "model.cfck"
        nd.save_checkpoint(path, params, "a = 1\n", (2, 0.1, 0.2, "linear", 1.0))
        (tmp_path / "model.cfck.config").unlink()
        with pytest.raises(FormatError):
            nd.load_checkpoint(path)

    def test_bad_magic_and_truncation(self, tmp_path):
        params, _ = self._payload()
        path = tmp_path / "model.cfck"
        nd.save_checkpoint(path, params, "a = 1\n", (2, 0.1, 0.2, "linear", 1.0))
        raw = path.read_bytes()
        bad = tmp_path / "bad.cfck"
        bad.write_bytes(b"XXXX" + raw[4:])
        with pytest.raises(FormatError):
            nd.load_checkpoint(bad)
        cut = tmp_path / "cut.cfck"
        cut.write_bytes(raw[:-7])
        (tmp_path / "cut.cfck.config").write_text("a = 1\n")
        with pytest.raises((FormatError, ValueError)):
            nd.load_checkpoint(cut)
