"""Flat-tape reverse-mode autodiff over numpy arrays.

The model code runs every operation through a `Tape` (a Wengert list).
Each op returns a `Node` holding its eagerly computed value. The tape
keeps only what `Tape.backward` visits: trainable leaves, and the nodes
of ops with an input that requires a gradient, together with their
inputs and the values their backward pass reads (the feedforward op
reads only its inputs, and recomputes its hidden activations). Any
other node is returned with no inputs and no saved values, and is not
kept, so a forward pass with no trainable leaf holds nothing beyond
what its caller holds. `Tape.backward` walks the kept list once in reverse and
returns exact gradients for every trainable leaf, with zeros for leaves
the loss never touched.

Conventions:
- Values are 2-D or 3-D float arrays; a leading axis, when present, is a
  batch axis. Scalars (losses) are 0-d arrays.
- Storage is float32 by default; reductions accumulate in float64, and the
  attention evaluates in float64 wherever its operands are float32. A
  float64 mode exists for finite-difference work.
- Non-finite values are rejected at op boundaries. Checking every huge
  intermediate would dominate runtime on large batches, so op outputs
  above `finite_check_limit` elements are not checked; leaves and the loss
  (which `backward` always checks) are. A limit of `math.inf` checks
  everything, 0 only leaves and the loss.
- Importing this module holds numpy's bundled OpenBLAS to one thread: the
  kernels' worker pool is the only owner of threads.

Checkpoints (`save_checkpoint`, `load_checkpoint`, `load_fit_state`) are
one file of named arrays in the container of `errors.write_arrays`:
parameters, Adam's state, the schedule, the fit state and the config text.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (ContractError, FormatError, NumericError, ShapeError, get_array,
                     read_arrays, write_arrays)

DTYPE = np.float32

# Ops the tape understands. Kept as data so tests can enumerate coverage.
OPS = (
    "matmul",
    "add",
    "scale",
    "feedforward",
    "mse",
    "weighted_sum",
    "cross_attention",
    "reshape",
)


@dataclass(eq=False)
class Node:
    """One value on a tape; hashed and compared by identity."""

    op: str
    inputs: tuple[Node, ...]
    value: np.ndarray
    requires_grad: bool
    ctx: dict = field(default_factory=dict)


def _swap(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `g` over axes that were broadcast up from `shape`."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, (gs, ss) in enumerate(zip(g.shape, shape)):
        if ss == 1 and gs != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def sinusoidal_embedding(t: np.ndarray, dim: int, dtype=DTYPE) -> np.ndarray:
    """Classic sin/cos position code for integer timesteps.

    Returns shape (len(t), 1, dim) so it broadcast-adds onto a (B, k, d)
    activation. Odd dims get a zero pad column.
    """
    t = np.asarray(t, dtype=np.float64).reshape(-1)
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half, dtype=np.float64) / max(half, 1))
    args = t[:, None] * freqs[None, :]
    emb = np.concatenate([np.cos(args), np.sin(args)], axis=1)
    if dim % 2 == 1:
        emb = np.concatenate([emb, np.zeros((emb.shape[0], 1))], axis=1)
    return emb.astype(dtype).reshape(len(t), 1, dim)


# -------------------------------------------------------------------- threads
#
# The worker pool below is the process's one owner of threads. numpy's
# bundled OpenBLAS would otherwise hand a large product to threads of its
# own, which fight the workers for the same CPUs and sum in an order that
# depends on how many there are. So importing this module holds it to one
# thread, and every kernel issues its products as plain numpy calls. Where
# numpy brings no OpenBLAS with that setter, BLAS is left alone, and results
# may then depend on its thread count.

_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_POOL = ThreadPoolExecutor(_WORKERS, thread_name_prefix="diffcf-worker")


def _hold_blas_to_one_thread() -> None:
    """Sets numpy's bundled OpenBLAS, when it has one, to one thread. numpy
    has already loaded that library, so loading it here cannot fail."""
    for path in sorted((Path(np.__file__).resolve().parents[1] / "numpy.libs").glob("*openblas*")):
        setter = getattr(ctypes.CDLL(str(path)), "scipy_openblas_set_num_threads64_", None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)


_hold_blas_to_one_thread()


def _map_chunks(batch: int, chunk: int, run) -> None:
    """Calls `run(starts)` with iterators that together yield every chunk
    start once. With at least two chunks per worker, every worker of the
    pool runs `run` and takes the next chunk when it is free; otherwise
    one late worker would hold up the call (measured slower than one
    thread at k=128, 2 chunks), so `run` walks all chunks here."""
    starts = range(0, batch, chunk)
    if len(starts) < 2 * _WORKERS:
        run(iter(starts))
        return
    todo, lock = iter(starts), threading.Lock()

    def take():
        with lock:
            return next(todo, None)

    jobs = [_POOL.submit(run, iter(take, None)) for _ in range(_WORKERS)]
    wait(jobs)
    for job in jobs:
        job.result()


# A block of a pooled product holds at least this many multiply-adds, about
# 0.1 ms on one core of a 2-CPU x86 VM, where handing it to a worker costs
# about as much as it saves. Small blocks also reach OpenBLAS's small-matrix
# kernels, which sum in another order: with its SkylakeX float32 kernels,
# products cut in blocks of 2**20 multiply-adds or more gave the bits of
# the whole product on all of about 2400 random shapes and cuts, and blocks
# of 2**18 differed on about a third.
_BLOCK_MACS = 1 << 22


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b. A 2-D float32 product is cut along the longer axis of its
    output into one block per worker, or fewer so that each block holds at
    least _BLOCK_MACS multiply-adds, each block one numpy call on the pool.
    Blocks are no smaller, because each one repacks the other operand.
    Every output element is then summed in the order of one whole product,
    so the bits do not depend on the worker count. OpenBLAS's float64
    kernels do not keep that order across blocks, so float64 products,
    which only the gradient checks make, run whole on the calling thread."""
    blocks = min(_WORKERS, a.shape[0] * a.shape[-1] * b.shape[-1] // _BLOCK_MACS)
    if blocks < 2 or a.ndim != 2 or b.ndim != 2 or np.result_type(a, b) != np.float32:
        return np.matmul(a, b)
    out = np.empty((len(a), b.shape[1]), np.float32)
    rows, step = out.shape[0] >= out.shape[1], -(-max(out.shape) // blocks)
    parts = [(a[s], b, out[s]) if rows else (a, b[:, s], out[:, s])
             for s in (slice(lo, lo + step) for lo in range(0, max(out.shape), step))]
    for job in [_POOL.submit(np.matmul, x, y, out=o) for x, y, o in parts]:
        job.result()
    return out


# ------------------------------------------------------------ cross-attention
#
# Every attention of the model takes one scalar per query: (B, m, 1)
# queries a, (B, n, 1) keys b, (B, n, e) values v and an optional (B, n, 1)
# key bias c, over one shared batch axis, give softmax_j(a_i b_j + c_j) v.
# So a user's output row i is f(a_i), one smooth function of a scalar:
# f(x) = sum_j e^(x b_j + c_j) v_j / sum_j e^(x b_j + c_j). Its poles lie
# at least pi / (2 max|b|) off the real axis, whatever b, c and v are.
#
# Points. For each user, A is the power of two at or above max|a_i|, and
# the user's logit bound R = A max|b| picks the node count M from
# _NODE_TABLE. The op evaluates f exactly, in float64, at the user's
# points, and carries it from them to the queries. The points are the M
# Chebyshev points of [-A, A]: with t = a / A and the values' coefficients
# in T_0..T_{M-1} (`_chebyshev`), the output is one product of the
# node-major basis T_j(t_i) (`_basis`, (M, m) per user) with them. That is
# M n + m M score and basis cells per user in place of m n. When M would
# pass m / 4 or R passes the table, the points are the queries themselves,
# and the carry is the identity: an interpolant evaluated at its own points
# is exact. The key bias does not enter the plan, since f's poles do not
# depend on it. A and M depend only on the user's own row, so a user's
# output does not depend on its batch mates.
#
# f normalises after the product, as FlashAttention does. A score block is
# one product over K = 2, [x, 1] [b, c]^T (c = 0 when there is no bias),
# which also keeps it off BLAS's slow K=1 route: one (4, 500, 500) score
# block takes 2.9 ms at K=1 and 0.35 ms at K=2 on a 2-CPU x86 VM. Every
# point row, at the nodes and at the queries alike, is lowered by its max
# before exp, so no key bias can overflow it. So a score block sees three
# passes: the product, exp in place, and one product with [v | 1] that
# gives the unnormalised output and the row sums together.
#
# The forward keeps only the float64 log-sum-exp of every point row. The
# backward sends dO through the transposed basis and coefficient matrix to
# the nodes (at the queries dO is already there) and rebuilds each run's
# softmax once from the log-sum-exp, with the offset inside the product,
# P = exp([x, 1, -lse] [b, c, 1]^T). One product P [v, b v, b] gives f at
# the points and the two moments of its slope, f' = sum_j s_j b_j v_j -
# (sum_j s_j b_j) f. The op forms dP - rowsum(dO * f) as [dO, -rowsum(dO *
# f)] [v, 1]^T, using rowsum(dO * f) in place of rowsum(dP * P), and
# multiplies by P in place to get dS. Then dv = P^T dO and [db, dc] = dS^T
# [x, 1] (db = dS^T x without a bias). A is piecewise constant in a, so
# these are the exact gradients of the carried output. da_i carries f'
# over the same basis; at the queries it equals dS b. The interpolant's
# own derivative would amplify the node values' rounding about M^2 /
# A-fold, past the float64 tolerance of the kernel tests at small A; the
# two differ by the interpolation error that _NODE_TABLE bounds.
#
# Both passes walk the batch in chunks of users whose (m, n) score blocks,
# in the operands' dtype, stay within ATTN_CHUNK_BYTES together; a float32
# user whose points are its queries takes float64 blocks, up to twice that.
# The chunks run on the pool, and within a chunk each run of users that
# share M is one set of numpy calls, which BLAS and numpy evaluate user by
# user. Chunk boundaries depend only on the operand shapes, so the results
# do not depend on the worker count.

ATTN_CHUNK_BYTES = 1 << 22

# (largest R, M) per dtype. Measured on the hardest f for its R: two keys
# at -max|b| and +max|b| with values -1 and +1, which make f a tanh step,
# and a key bias that puts the step at any logit in [-8, 8]. Each R is
# about 0.8 of the largest at which the interpolants of f and of its slope
# f' stay within 3e-8 of the unit step and 1e-6 of max|f'| (1e-13 and
# 1e-11 in float64). float64 starts at 6 nodes: the gradient of b carries
# one more power of a than f, and at 4 nodes it missed the float64
# tolerance of the kernel tests.
_NODE_TABLE = {
    np.dtype(np.float32): ((0.027, 0.12, 0.26, 0.58, 0.9, 1.5, 2.1, 3.2, 4.3),
                           (4, 6, 8, 12, 16, 24, 32, 48, 64)),
    np.dtype(np.float64): ((0.015, 0.054, 0.19, 0.37, 0.75, 1.1, 1.8, 2.5),
                           (6, 8, 12, 16, 24, 32, 48, 64)),
}


def _chunk_len(a: np.ndarray, b: np.ndarray) -> int:
    """Batch entries per chunk: as many (m, n) score blocks as fit the budget."""
    return max(1, ATTN_CHUNK_BYTES // (a.shape[1] * b.shape[1] * a.itemsize))


def _plan(a: np.ndarray, b: np.ndarray):
    """Per user: the node interval's half-width A and the node count M (0
    when the points are the queries), as two arrays over the batch."""
    top_a, top_b = (np.abs(x).max(axis=(1, 2)).astype(np.float64) for x in (a, b))
    mantissa, exponent = np.frexp(top_a)
    scale = np.ldexp(1.0, exponent - (mantissa == 0.5))  # frexp(0) = (0, 0): A = 1
    bounds, counts = _NODE_TABLE[a.dtype]
    nodes = np.array(counts + (0,))[np.searchsorted(bounds, scale * top_b)]
    nodes[4 * nodes > a.shape[1]] = 0
    return scale, nodes


def _runs(key: np.ndarray, lo: int, hi: int):
    """(start, stop) of each run of equal entries of key[lo:hi]."""
    cuts = (np.flatnonzero(key[lo + 1:hi] != key[lo:hi - 1]) + lo + 1).tolist()
    edges = [lo, *cuts, hi]
    return zip(edges[:-1], edges[1:])


@functools.lru_cache(maxsize=None)
def _chebyshev(count: int):
    """The Chebyshev points x_m = cos(pi (m + 1/2) / count) of [-1, 1] as a
    (count, 1) column, and the float64 matrix that takes a function's values
    there to the coefficients, in T_0..T_{count-1}, of its interpolant."""
    angles = math.pi * (np.arange(count) + 0.5) / count
    to_coef = np.cos(np.outer(np.arange(count), angles)) * (2.0 / count)
    to_coef[0] /= 2
    return np.cos(angles)[:, None], to_coef


def _basis(t: np.ndarray, count: int) -> np.ndarray:
    """T_0..T_{count-1} at the points t (r, m), node-major: (r, count, m)."""
    basis = np.empty((len(t), count, t.shape[1]), t.dtype)
    basis[:, 0] = 1
    basis[:, 1] = t
    twice = t + t
    for j in range(2, count):
        np.multiply(twice, basis[:, j - 1], out=basis[:, j])
        basis[:, j] -= basis[:, j - 2]
    return basis


def _points(a: np.ndarray, scale: np.ndarray, count: int, dtype):
    """A run of users' float64 points (r, p, 1), and what carries f from
    them to the queries a: the basis at a / A in `dtype` and the
    coefficient matrix for the `count` Chebyshev nodes of [-A, A], or
    (None, None) for count 0, whose points are the queries."""
    if not count:
        return a.astype(np.float64), None, None
    points, to_coef = _chebyshev(count)
    return (scale[:, None, None] * points,
            _basis((a[..., 0] / scale[:, None]).astype(dtype), count), to_coef)


def _exact_forward(x: np.ndarray, kb: np.ndarray, v: np.ndarray):
    """softmax_j(x_i b_j + c_j) v for the points x (r, p, 1) against
    kb = [b, c] (r, n, 2), in float64, each row shifted by its max.
    Returns the output and the row log-sum-exp (r, p)."""
    e = v.shape[-1]
    scores = np.matmul(np.concatenate([x, np.ones_like(x)], axis=-1), _swap(kb))
    top = scores.max(axis=-1, keepdims=True)
    scores -= top
    np.exp(scores, out=scores)
    acc = np.matmul(scores, np.concatenate([v, np.ones_like(v[..., :1])], axis=-1))
    return acc[..., :e] / acc[..., e:], np.log(acc[..., e]) + top[..., 0]


def _attention_forward(a: np.ndarray, b: np.ndarray, v: np.ndarray,
                       c: np.ndarray | None = None):
    """Returns the output and what the backward reads: the float64
    log-sum-exp of every point row (B, points)."""
    batch, chunk = len(a), _chunk_len(a, b)
    m, e = a.shape[1], v.shape[-1]
    scale, nodes = _plan(a, b)
    kb = np.concatenate([b, np.zeros_like(b) if c is None else c], axis=-1, dtype=np.float64)
    out = np.empty((batch, m, e), a.dtype)
    lse = np.zeros((batch, m if (nodes == 0).any() else nodes.max(initial=0)))

    def run(starts):
        for first in starts:
            for lo, hi in _runs(nodes, first, min(first + chunk, batch)):
                part, count = slice(lo, hi), nodes[lo]
                x, basis, to_coef = _points(a[part], scale[part], count, a.dtype)
                vals, lse[part, :x.shape[1]] = _exact_forward(x, kb[part],
                                                              v[part].astype(np.float64))
                if not count:
                    out[part] = vals
                else:
                    np.matmul(_swap(basis), np.matmul(to_coef, vals).astype(a.dtype),
                              out=out[part])

    _map_chunks(batch, chunk, run)
    return out, lse


def _attention_backward(lse: np.ndarray, g: np.ndarray, a: np.ndarray, b: np.ndarray,
                        v: np.ndarray, c: np.ndarray | None = None) -> list[np.ndarray]:
    """Gradients for (a, b, v), and c when given, from the forward's point
    row log-sum-exp and the output grad."""
    batch, chunk = len(a), _chunk_len(a, b)
    dtype = np.result_type(a, g)
    e = v.shape[-1]
    scale, nodes = _plan(a, b)
    kb = np.concatenate([b, np.zeros_like(b) if c is None else c], axis=-1, dtype=np.float64)
    cols = 1 if c is None else 2
    ga, gv = np.empty(a.shape, dtype), np.empty(v.shape, dtype)
    gbc = np.empty((batch, b.shape[1], cols), dtype)  # [db, dc]

    def run(starts):
        for first in starts:
            for lo, hi in _runs(nodes, first, min(first + chunk, batch)):
                part, count = slice(lo, hi), nodes[lo]
                gp, kb64, v64 = g[part], kb[part], v[part].astype(np.float64)
                x, basis, to_coef = _points(a[part], scale[part], count, dtype)
                if not count:
                    g_points = gp.astype(np.float64)
                else:
                    g_points = np.matmul(to_coef.T, np.matmul(basis, gp).astype(np.float64))
                ones = np.ones_like(kb64[..., :1])
                qa = np.concatenate([x, np.ones_like(x), -lse[part, :x.shape[1], None]], axis=-1)
                p = np.matmul(qa, _swap(np.concatenate([kb64, ones], axis=-1)))
                np.exp(p, out=p)
                # f, sum_j s_j b_j v_j and sum_j s_j b_j at the points.
                moments = np.matmul(p, np.concatenate([v64, kb64[..., :1] * v64, kb64[..., :1]],
                                                      axis=-1))
                vals = moments[..., :e]
                gv[part] = np.matmul(_swap(p), g_points)
                go = np.concatenate([g_points, -np.multiply(g_points, vals).sum(
                    axis=-1, keepdims=True)], axis=-1)  # [dO, -rowsum(dO * f)]
                ds = np.matmul(go, _swap(np.concatenate([v64, ones], axis=-1)))
                ds *= p
                gbc[part] = np.matmul(_swap(ds), qa[..., :cols])
                slope = moments[..., e:-1] - moments[..., -1:] * vals
                if count:
                    slope = np.matmul(_swap(basis), np.matmul(to_coef, slope).astype(dtype))
                ga[part, :, 0] = np.multiply(gp, slope).sum(axis=-1, dtype=np.float64)

    _map_chunks(batch, chunk, run)
    return [ga, gbc[..., :1], gv] + ([] if c is None else [gbc[..., 1:]])


# ---------------------------------------------------------------- feedforward
#
# feedforward(x, W_in, W_out) = relu(x W_in) W_out over the rows of x (every
# axis but the last is a row axis). Its (rows, hidden) activations never
# exist whole: both passes walk x on the pool in blocks of _FF_ROWS rows,
# one numpy call per product per block, and a block's activations live
# only in a buffer of its worker. A training node keeps only its inputs;
# the backward recomputes each block's activations from them, the trade
# FlashAttention makes for its scores. Each block writes its weight-gradient
# partials to slots of its own, which are summed in block order, so the
# bits do not depend on the worker count.

_FF_ROWS = 2048


def _feedforward_forward(x: np.ndarray, w_in: np.ndarray, w_out: np.ndarray) -> np.ndarray:
    rows = x.reshape(-1, x.shape[-1])
    out = np.empty((len(rows), w_out.shape[1]), np.result_type(x, w_in, w_out))

    def run(starts):
        hidden = np.empty((min(_FF_ROWS, len(rows)), w_in.shape[1]), out.dtype)
        for lo in starts:
            xb = rows[lo:lo + _FF_ROWS]
            h = np.matmul(xb, w_in, out=hidden[:len(xb)])
            np.matmul(np.maximum(h, 0, out=h), w_out, out=out[lo:lo + _FF_ROWS])

    _map_chunks(len(rows), _FF_ROWS, run)
    return out.reshape(*x.shape[:-1], w_out.shape[1])


def _feedforward_backward(x: np.ndarray, w_in: np.ndarray, w_out: np.ndarray,
                          g: np.ndarray, need: list[bool]) -> list[np.ndarray | None]:
    """Gradients for (x, W_in, W_out), None for an input in `need` marked
    False, recomputing each block's activations."""
    rows, g_rows = x.reshape(-1, x.shape[-1]), g.reshape(-1, g.shape[-1])
    dtype = np.result_type(x, w_in, w_out, g)
    gx = np.empty(rows.shape, dtype) if need[0] else None
    slots = [np.empty((-(-len(rows) // _FF_ROWS), *w.shape), dtype) if wanted else None
             for w, wanted in zip((w_in, w_out), need[1:])]

    def run(starts):
        hidden, g_hidden = np.empty((2, min(_FF_ROWS, len(rows)), w_in.shape[1]), dtype)
        for lo in starts:
            part, at = slice(lo, lo + _FF_ROWS), lo // _FF_ROWS
            xb, gb = rows[part], g_rows[part]
            h = np.matmul(xb, w_in, out=hidden[:len(xb)])
            np.maximum(h, 0, out=h)
            if slots[1] is not None:
                np.matmul(h.T, gb, out=slots[1][at])
            gh = np.matmul(gb, w_out.T, out=g_hidden[:len(xb)])
            gh *= h > 0
            if slots[0] is not None:
                np.matmul(xb.T, gh, out=slots[0][at])
            if gx is not None:
                np.matmul(gh, w_in.T, out=gx[part])

    _map_chunks(len(rows), _FF_ROWS, run)
    return [None if gx is None else gx.reshape(x.shape)] + [
        None if s is None else s.sum(axis=0, dtype=np.float64).astype(dtype) for s in slots]


class Tape:
    """Wengert list of the nodes a backward pass visits, swept once in reverse."""

    def __init__(self, finite_check_limit: float = 1 << 20):
        if not finite_check_limit >= 0:
            raise ContractError(f"finite_check_limit must be >= 0, got {finite_check_limit!r}")
        self.nodes: list[Node] = []
        self.finite_check_limit = finite_check_limit

    # ------------------------------------------------------------------ leaves

    def leaf(self, value, trainable: bool = False) -> Node:
        """Bind an array; only a trainable leaf is kept on the tape."""
        value = np.asarray(value)
        if value.dtype not in (np.float32, np.float64):
            raise ContractError(f"leaf dtype must be float32/float64, got {value.dtype}")
        self._check_finite(value, "leaf", force=True)
        node = Node("leaf", (), value, trainable)
        if trainable:
            self.nodes.append(node)
        return node

    # ------------------------------------------------------------------ record

    def record(self, op: str, *inputs: Node, **const) -> Node:
        """Execute `op` on the given nodes and return the result's node. It is
        kept on the tape, with its inputs and `ctx`, only when an input
        requires a gradient."""
        vals = [n.value for n in inputs]
        req = any(n.requires_grad for n in inputs)
        ctx: dict = {}

        if op == "matmul":
            a, b = vals
            if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
                raise ShapeError(f"matmul: incompatible shapes {a.shape} @ {b.shape}")
            out = matmul(a, b)
        elif op == "add":
            a, b = vals
            try:
                out = a + b
            except ValueError:
                raise ShapeError(f"add: incompatible shapes {a.shape} + {b.shape}") from None
        elif op == "scale":
            (a,) = vals
            c = const["factor"]
            c = np.asarray(c, dtype=a.dtype) if not np.isscalar(c) else a.dtype.type(c)
            ctx["factor"] = c
            out = a * c
            if out.shape != a.shape:
                raise ShapeError(f"scale: factor {np.shape(c)} broadcasts {a.shape} up to {out.shape}")
        elif op == "feedforward":
            x, w_in, w_out = vals
            if not (x.ndim >= 2 and w_in.ndim == w_out.ndim == 2
                    and x.shape[-1] == w_in.shape[0] and w_in.shape[1] == w_out.shape[0]):
                raise ShapeError(
                    f"feedforward: shapes {x.shape}, {w_in.shape}, {w_out.shape} are not "
                    "(..., d), (d, h), (h, e)")
            out = _feedforward_forward(x, w_in, w_out)
        elif op == "mse":
            a, b = vals
            if a.shape != b.shape:
                raise ShapeError(f"mse: shapes differ {a.shape} vs {b.shape}")
            d = np.subtract(a, b, out=np.empty(a.shape, np.float64)).ravel()
            out = np.asarray(np.dot(d, d), dtype=a.dtype)
        elif op == "weighted_sum":
            w = tuple(float(x) for x in const["weights"])
            if len(w) != len(vals) or not vals:
                raise ContractError(f"weighted_sum: {len(w)} weights for {len(vals)} inputs")
            shapes = {v.shape for v in vals}
            if len(shapes) != 1:
                raise ShapeError(f"weighted_sum: mismatched shapes {sorted(shapes)}")
            ctx["weights"] = w
            out = w[0] * vals[0]
            for wi, vi in zip(w[1:], vals[1:]):
                out += wi * vi
        elif op == "cross_attention":
            a, b, v, *c = vals
            if not (v.ndim == 3 and a.ndim == 3 and a.shape[::2] == (len(v), 1) and len(c) <= 1
                    and all(x.shape == (*v.shape[:2], 1) for x in (b, *c))):
                raise ShapeError(
                    f"cross_attention: shapes {[x.shape for x in vals]} are not "
                    "(B, m, 1), (B, n, 1), (B, n, e) and an optional (B, n, 1)")
            if len({x.dtype for x in vals}) != 1:
                raise ContractError(
                    f"cross_attention: dtypes {[str(x.dtype) for x in vals]} differ")
            out, ctx["lse"] = _attention_forward(*vals)
        elif op == "reshape":
            (a,) = vals
            shape = tuple(const["shape"])
            ctx["old_shape"] = a.shape
            try:
                out = a.reshape(shape)
            except ValueError:
                raise ShapeError(f"reshape: cannot view {a.shape} as {shape}") from None
        else:
            raise ContractError(f"unknown op {op!r}")

        self._check_finite(out, op)
        if not req:
            return Node(op, (), out, False)
        node = Node(op, inputs, out, True, ctx)
        self.nodes.append(node)
        return node

    # ---------------------------------------------------------------- backward

    def backward(self, loss: Node) -> dict[Node, np.ndarray]:
        """Reverse sweep from `loss`. Returns {leaf node: gradient} covering
        every trainable leaf on the tape (zeros when unreachable)."""
        if np.size(loss.value) != 1:
            raise ContractError(f"backward: loss must be scalar, got shape {np.shape(loss.value)}")
        if not np.isfinite(loss.value).all():
            raise NumericError("backward: loss is not finite")

        adj: dict[Node, np.ndarray] = {loss: np.ones_like(loss.value)}
        for node in reversed(self.nodes):
            if node.op == "leaf":
                continue
            g = adj.pop(node, None)
            if g is None:
                continue
            for inp, gi in self._vjp(node, g):
                adj[inp] = adj[inp] + gi if inp in adj else gi
        return {node: adj[node] if node in adj else np.zeros_like(node.value)
                for node in self.nodes if node.op == "leaf"}

    def _vjp(self, node: Node, g: np.ndarray):
        """Yields (input, gradient) for the inputs of `node` that require a
        gradient; no product is computed for the others."""
        op = node.op
        vals = [n.value for n in node.inputs]
        ins = node.inputs
        need = [n.requires_grad for n in ins]

        if op == "matmul":
            a, b = vals
            if need[0]:
                yield ins[0], _reduce_to(matmul(g, _swap(b)), a.shape)
            if need[1]:
                yield ins[1], _reduce_to(matmul(_swap(a), g), b.shape)
        elif op == "add":
            for inp, x, wanted in zip(ins, vals, need):
                if wanted:
                    yield inp, _reduce_to(g, x.shape)
        elif op == "scale":
            yield ins[0], g * node.ctx["factor"]
        elif op == "feedforward":
            grads = _feedforward_backward(*vals, g, need)
            yield from ((inp, gi) for inp, gi in zip(ins, grads) if gi is not None)
        elif op == "mse":
            a, b = vals
            d = a - b
            d *= 2.0 * float(g)
            if need[0]:
                yield ins[0], d
            if need[1]:
                yield ins[1], -d
        elif op == "weighted_sum":
            for inp, w, wanted in zip(ins, node.ctx["weights"], need):
                if wanted:
                    yield inp, w * g
        elif op == "cross_attention":
            grads = _attention_backward(node.ctx["lse"], g, *vals)
            yield from ((inp, gi) for inp, gi, wanted in zip(ins, grads, need) if wanted)
        elif op == "reshape":
            yield ins[0], g.reshape(node.ctx["old_shape"])
        else:  # pragma: no cover - record() rejects unknown ops
            raise ContractError(f"no vjp for op {op!r}")

    def _check_finite(self, arr: np.ndarray, op: str, force: bool = False) -> None:
        if not force and arr.size > self.finite_check_limit:
            return
        if not np.isfinite(arr).all():
            raise NumericError(f"{op}: produced non-finite values")


# ---------------------------------------------------------------------- adam


@dataclass
class AdamState:
    lr: float
    beta1: float
    beta2: float
    eps: float
    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]


def init_adam(params: dict[str, np.ndarray], lr: float, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    zeros = lambda: {k: np.zeros_like(p) for k, p in params.items()}
    return AdamState(lr=lr, beta1=beta1, beta2=beta2, eps=eps, step=0, m=zeros(), v=zeros())


# Adam is a handful of elementwise passes over every parameter, bound by
# memory bandwidth. It walks each parameter as flat slices of ADAM_TILE
# elements, so that a slice of p, m, v and g and its two scratch slices
# stay in a core's L2 cache between the passes, and runs the slices on the
# attention pool. Each element goes through the same operations in the
# same order wherever its slice falls, so the bits depend on neither the
# slice length nor the worker count.

ADAM_TILE = 1 << 16


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState) -> AdamState:
    """Bias-corrected Adam. Updates `params` arrays in place; missing grads
    are treated as exact zeros (so untouched parameters stay put from init).

    Every slice is updated through two scratch buffers of its worker, in the
    operation order of p -= (lr / c1) * m / (sqrt(v / c2) + eps), so the
    bits are those of that expression without its temporaries. A parameter
    and its moments must be C-contiguous: the flat view of any other array
    is a copy, and an update written to it would be lost."""
    tiles = []
    for name, p in params.items():
        g = grads.get(name)
        if g is not None and g.shape != p.shape:
            raise ShapeError(f"adam_step: grad {g.shape} vs param {p.shape} for {name!r}")
        arrays = (p, state.m[name], state.v[name])
        if not all(x.flags.c_contiguous for x in arrays):
            raise ContractError(f"adam_step: {name!r} or its moments are not C-contiguous")
        flat = [x.reshape(-1) for x in arrays] + [None if g is None else g.reshape(-1)]
        tiles += [(flat, slice(lo, lo + ADAM_TILE)) for lo in range(0, p.size, ADAM_TILE)]
    state.step += 1
    b1, b2, eps = state.beta1, state.beta2, state.eps
    c2 = 1.0 - b2 ** state.step
    lr_c1 = state.lr / (1.0 - b1 ** state.step)

    def run(todo):
        scratch: dict[np.dtype, np.ndarray] = {}
        for i in todo:
            (p, m, v, g), at = tiles[i]
            p, m, v = p[at], m[at], v[at]
            if m.dtype not in scratch:
                scratch[m.dtype] = np.empty((2, ADAM_TILE), m.dtype)
            num, den = (b[: m.size] for b in scratch[m.dtype])
            m *= b1
            v *= b2
            if g is not None:
                g = g[at]
                gs = num if g.dtype == m.dtype else np.empty_like(g)
                m += np.multiply(g, 1.0 - b1, out=gs)
                v += np.multiply(np.multiply(g, g, out=gs), 1.0 - b2, out=gs)
            np.sqrt(np.divide(v, c2, out=den), out=den)
            den += eps
            p -= np.divide(np.multiply(m, lr_c1, out=num), den, out=num)

    _map_chunks(len(tiles), 1, run)
    return state


# ------------------------------------------------------------- gradient check


@dataclass
class GradCheckReport:
    max_rel_err: float
    worst: tuple[str, int, float, float]  # (param, flat index, analytic, numeric)
    checked: int
    per_param: dict[str, float]

    def summary(self) -> str:
        p, i, a, n = self.worst
        return (f"gradcheck: max_rel={self.max_rel_err:.3e} over {self.checked} entries; "
                f"worst {p}[{i}] analytic={a:.6e} numeric={n:.6e}")


def gradient_check(build_fn, params: dict[str, np.ndarray], eps: float = 1e-3,
                   max_entries: int = 200, seed: int = 0) -> GradCheckReport:
    """Compare reverse-mode gradients with central differences.

    `build_fn(tape, leaves)` must record the computation and return the loss
    node, where `leaves` maps each param name to its leaf node. All math is
    forced to float64 so the difference quotient stays trustworthy down to
    the smallest probe step.

    A central difference only measures the gradient where the loss is
    locally smooth. ReLU puts kinks everywhere, and an entry whose probe
    interval straddles one reads a spurious slope at any single step size.
    Each entry is therefore probed at eps, eps/16 and eps/256 and scored by
    the best-agreeing probe: a kink artifact shrinks with the step while a
    genuine gradient error is step-independent, so only real bugs survive.
    """
    if not 0 < eps < math.inf:
        raise ContractError(f"gradient_check: eps must be positive and finite, got {eps!r}")
    if max_entries < 1:
        raise ContractError(f"gradient_check: max_entries must be >= 1, got {max_entries}")
    p64 = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}

    def run(ps) -> tuple[Tape, Node, dict[str, Node]]:
        tape = Tape(finite_check_limit=math.inf)
        leaves = {k: tape.leaf(v, trainable=True) for k, v in ps.items()}
        return tape, build_fn(tape, leaves), leaves

    tape, loss, leaves = run(p64)
    grads = tape.backward(loss)
    analytic = {k: grads[leaves[k]] for k in p64}

    entries = [(k, i) for k in sorted(p64) for i in range(p64[k].size)]
    rng = np.random.default_rng(seed)
    if len(entries) > max_entries:
        pick = rng.choice(len(entries), size=max_entries, replace=False)
        entries = [entries[i] for i in sorted(pick)]

    def probe(name: str, idx: int, step: float) -> float:
        base = p64[name].ravel()[idx]
        losses = []
        for delta in (step, -step):
            p64[name].ravel()[idx] = base + delta
            losses.append(float(run(p64)[1].value))
        p64[name].ravel()[idx] = base
        return (losses[0] - losses[1]) / (2.0 * step)

    worst = ("", -1, 0.0, 0.0)
    max_rel = 0.0
    per_param: dict[str, float] = {k: 0.0 for k in p64}
    for name, idx in entries:
        a = float(analytic[name].ravel()[idx])
        best_rel = math.inf
        best_numeric = 0.0
        for step in (eps, eps / 16.0, eps / 256.0):
            numeric = probe(name, idx, step)
            rel = abs(a - numeric) / max(abs(a) + abs(numeric), 1e-10)
            if rel < best_rel:
                best_rel = rel
                best_numeric = numeric
        per_param[name] = max(per_param[name], best_rel)
        if best_rel > max_rel:
            max_rel = best_rel
            worst = (name, int(idx), a, best_numeric)
    return GradCheckReport(max_rel, worst, len(entries), per_param)


# ------------------------------------------------------------- checkpoint i/o

_CKPT_MAGIC = b"CFCK"
_CKPT_VERSION = 4


def save_checkpoint(path, params: dict[str, np.ndarray], config_text: str,
                    schedule_fields: tuple[int, float, float, float],
                    adam: AdamState | None = None,
                    fit: dict[str, float] | None = None) -> None:
    """One file of named arrays: the config text, the schedule, each
    parameter as float32 under its own name, and, when given, Adam's
    moments ("adam.m.*", "adam.v.*"), step and float64 hyperparameters,
    and the fit loop's state ("fit.best_metric", "fit.best_epoch",
    "fit.stale"). Every float64 is stored as one, so a resumed run
    continues with exactly the values it stopped with. Parameter names
    carry no dot; every other name does."""
    if any("." in k for k in params):
        raise ContractError(f"parameter names may not contain '.': {sorted(params)}")
    arrays = {"config.text": np.frombuffer(config_text.encode("utf-8"), np.uint8),
              "schedule.steps": np.int64(schedule_fields[0]),
              "schedule.floats": np.array(schedule_fields[1:], np.float64)}
    arrays |= {k: np.asarray(v, np.float32) for k, v in sorted(params.items())}
    if adam is not None:
        arrays |= {"adam.m." + k: np.asarray(v, np.float32) for k, v in sorted(adam.m.items())}
        arrays |= {"adam.v." + k: np.asarray(v, np.float32) for k, v in sorted(adam.v.items())}
        arrays |= {"adam.step": np.int64(adam.step),
                   "adam.hyper": np.array([adam.lr, adam.beta1, adam.beta2, adam.eps])}
    if fit is not None:
        arrays |= {"fit.best_metric": np.float64(fit["best_metric"]),
                   "fit.best_epoch": np.int64(fit["best_epoch"]),
                   "fit.stale": np.int64(fit["stale"])}
    write_arrays(path, _CKPT_MAGIC, _CKPT_VERSION, arrays)


def load_checkpoint(path):
    """Returns (params, adam_state_or_None, schedule_fields, config_text)."""
    arrays = read_arrays(path, _CKPT_MAGIC, _CKPT_VERSION, "checkpoint")
    fields = (int(get_array(arrays, path, "schedule.steps", "<i8", ())),
              *map(float, get_array(arrays, path, "schedule.floats", "<f8", (3,))))
    try:
        text = get_array(arrays, path, "config.text", "|u1").tobytes().decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError(f"{path}: array 'config.text' is not UTF-8 text") from None
    tensors = {k: get_array(arrays, path, k, "<f4", (None,) * v.ndim) for k, v in arrays.items()
               if "." not in k or k.startswith(("adam.m.", "adam.v."))}
    params = {k: v for k, v in tensors.items() if "." not in k}
    adam = None
    if any(k.startswith("adam.") for k in arrays):
        lr, beta1, beta2, eps = map(float, get_array(arrays, path, "adam.hyper", "<f8", (4,)))
        moments = {part: {k[len(f"adam.{part}."):]: v for k, v in tensors.items()
                          if k.startswith(f"adam.{part}.")} for part in "mv"}
        adam = AdamState(lr=lr, beta1=beta1, beta2=beta2, eps=eps,
                         step=int(get_array(arrays, path, "adam.step", "<i8", ())), **moments)
    return params, adam, fields, text


def load_fit_state(path) -> dict[str, float] | None:
    """The fit loop's state saved with the checkpoint at `path`, or None
    when it holds none. Only the fit arrays are read; the rest of the file
    is checked and skipped."""
    arrays = read_arrays(path, _CKPT_MAGIC, _CKPT_VERSION, "checkpoint",
                         keep=("fit.best_metric", "fit.best_epoch", "fit.stale"))
    if not arrays:
        return None
    return {"best_metric": float(get_array(arrays, path, "fit.best_metric", "<f8", ())),
            "best_epoch": int(get_array(arrays, path, "fit.best_epoch", "<i8", ())),
            "stale": int(get_array(arrays, path, "fit.stale", "<i8", ()))}
