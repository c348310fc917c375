"""Flat-tape reverse-mode autodiff over numpy arrays.

The model code records every operation on a `Tape` (a Wengert list); each
node stores the op kind, input node ids, and the eagerly computed value.
`Tape.backward` walks the list once in reverse and returns exact gradients
for every trainable leaf, with zeros for leaves the loss never touched.

Conventions:
- Values are 2-D or 3-D float arrays; a leading axis, when present, is a
  batch axis. Scalars (losses) are 0-d arrays.
- Storage is float32 by default; reductions and softmax normalizers
  accumulate in float64. A float64 mode exists for finite-difference work.
- scipy CSR matrices are accepted only as non-trainable 2-D leaves used on
  the left of `matmul` (gradients never flow into them).
- Non-finite values are rejected at op boundaries. Checking every huge
  intermediate would dominate runtime on large batches, so by default
  arrays above `finite_check_limit` elements are only validated where it
  matters (leaves and the loss node, which `backward` always checks).
  Pass finite_mode="all" to check everything, "off" to check only the loss.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ContractError, FormatError, NumericError, ShapeError

DTYPE = np.float32

# Ops the tape understands. Kept as data so tests can enumerate coverage.
OPS = (
    "matmul",
    "add",
    "scale",
    "row_softmax",
    "relu",
    "mean_over_cols",
    "mse",
    "sinusoidal_embed",
    "weighted_sum",
    "cross_attention",
    "transpose_last2",
    "reshape",
    "col_slice",
)


@dataclass
class Node:
    op: str
    inputs: tuple[int, ...]
    value: np.ndarray | sp.csr_matrix
    requires_grad: bool
    ctx: dict = field(default_factory=dict)


def _is_sparse(x) -> bool:
    return sp.issparse(x)


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


# ------------------------------------------------------------ cross-attention
#
# softmax(q k^T / sqrt(d)) v walks the batch axis in chunks, so that the
# (chunk, m, n) score block it works in stays within ATTN_CHUNK_BYTES
# instead of materialising every (B, m, n) temporary at once. Each chunk
# is scaled, shifted, exponentiated and normalized in place; row sums
# accumulate in float64 and the division runs in float64 before rounding
# back, so every element comes out exactly as the whole-batch expression
# would give it. The full softmax is allocated only when it must be kept
# for the backward pass.

ATTN_CHUNK_BYTES = 1 << 22


def _attention_batches(q: np.ndarray, k: np.ndarray, v: np.ndarray):
    """Broadcast batch shape of the operands, views of them over a shared
    leading batch axis (2-D operands become a batch of one), and the
    number of leading entries per chunk."""
    try:
        batch = np.broadcast_shapes(q.shape[:-2], k.shape[:-2], v.shape[:-2])
    except ValueError:
        raise ShapeError(
            f"cross_attention: batch shapes {q.shape}, {k.shape}, {v.shape} do not broadcast"
        ) from None
    lead = batch or (1,)
    views = [np.broadcast_to(x, lead + x.shape[-2:]) for x in (q, k, v)]
    block = math.prod(lead[1:]) * q.shape[-2] * k.shape[-2] * q.itemsize
    return batch, views, max(1, ATTN_CHUNK_BYTES // block)


def _attention_forward(q: np.ndarray, k: np.ndarray, v: np.ndarray, keep_softmax: bool):
    """Returns (output, softmax or None)."""
    batch, (qb, kb, vb), chunk = _attention_batches(q, k, v)
    lead, m, n = qb.shape[:-2], q.shape[-2], k.shape[-2]
    inv = np.asarray(1.0 / math.sqrt(q.shape[-1]), dtype=q.dtype)
    held = lead if keep_softmax else (min(chunk, lead[0]),) + lead[1:]
    s = np.empty(held + (m, n), q.dtype)
    out = np.empty(batch + (m, v.shape[-1]), q.dtype)
    out_b = out.reshape(lead + out.shape[-2:])
    for lo in range(0, len(qb), chunk):
        part = slice(lo, lo + chunk)
        e = s[part] if keep_softmax else s[: min(chunk, len(qb) - lo)]
        np.matmul(qb[part], _swap(kb[part]), out=e)
        e *= inv
        e -= e.max(axis=-1, keepdims=True)
        np.exp(e, out=e)
        np.divide(e, e.sum(axis=-1, keepdims=True, dtype=np.float64), out=e,
                  casting="unsafe")
        np.matmul(e, vb[part], out=out_b[part])
    if not keep_softmax:
        return out, None
    return out, s.reshape(batch + s.shape[-2:])


def _attention_backward(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                        s: np.ndarray, g: np.ndarray) -> list[np.ndarray]:
    """Gradients for (q, k, v) from the kept softmax and the output grad."""
    batch, (qb, kb, vb), chunk = _attention_batches(q, k, v)
    lead = qb.shape[:-2]
    s_b = s.reshape(lead + s.shape[-2:])
    g_b = g.reshape(lead + g.shape[-2:])
    inv = np.asarray(1.0 / math.sqrt(q.shape[-1]), dtype=s.dtype)
    dtype = np.result_type(g, s)
    grads = [np.empty(lead + x.shape[-2:], dtype) for x in (qb, kb, vb)]
    gq, gk, gv = grads
    gs = np.empty((min(chunk, len(s_b)),) + s_b.shape[1:], dtype)
    prod = np.empty_like(gs)
    for lo in range(0, len(s_b), chunk):
        part = slice(lo, lo + chunk)
        sc, gc = s_b[part], g_b[part]
        a, p = gs[: len(sc)], prod[: len(sc)]
        np.matmul(_swap(sc), gc, out=gv[part])
        np.matmul(gc, _swap(vb[part]), out=a)
        np.multiply(a, sc, out=p)
        a -= p.sum(axis=-1, keepdims=True, dtype=np.float64).astype(s.dtype)
        a *= sc
        a *= inv
        np.matmul(a, kb[part], out=gq[part])
        np.matmul(_swap(a), qb[part], out=gk[part])
    return [_reduce_to(gx.reshape(batch + gx.shape[-2:]), x.shape)
            for gx, x in zip(grads, (q, k, v))]


class Tape:
    """Wengert list: append-only op trace with a single reverse sweep."""

    def __init__(self, finite_mode: str = "small", finite_check_limit: int = 1 << 20):
        if finite_mode not in ("all", "small", "off"):
            raise ContractError(f"finite_mode must be all|small|off, got {finite_mode!r}")
        self.nodes: list[Node] = []
        self.finite_mode = finite_mode
        self.finite_check_limit = finite_check_limit

    # ------------------------------------------------------------------ leaves

    def leaf(self, value, trainable: bool = False) -> int:
        if _is_sparse(value):
            if trainable:
                raise ContractError("sparse leaves cannot be trainable")
            value = value.tocsr()
            self._check_finite(value.data, "leaf", force=True)
        else:
            value = np.asarray(value)
            if value.dtype not in (np.float32, np.float64):
                raise ContractError(f"leaf dtype must be float32/float64, got {value.dtype}")
            self._check_finite(value, "leaf", force=True)
        self.nodes.append(Node("leaf", (), value, trainable))
        return len(self.nodes) - 1

    def value(self, node_id: int) -> np.ndarray:
        return self.nodes[node_id].value

    # ------------------------------------------------------------------ record

    def record(self, op: str, *inputs: int, **const) -> int:
        """Execute `op` on the given node ids, append the result, return its id."""
        vals = [self.nodes[i].value for i in inputs]
        req = any(self.nodes[i].requires_grad for i in inputs)
        ctx: dict = {}

        if op == "matmul":
            a, b = vals
            if _is_sparse(b):
                raise ContractError("sparse operands are only supported on the left of matmul")
            an = a.shape[-1]
            bm = b.shape[-2] if b.ndim >= 2 else None
            if a.ndim < 2 or b.ndim < 2 or an != bm:
                raise ShapeError(f"matmul: incompatible shapes {a.shape} @ {b.shape}")
            out = a @ b if _is_sparse(a) else np.matmul(a, b)
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
        elif op == "row_softmax":
            (a,) = vals
            shifted = a - a.max(axis=-1, keepdims=True)
            e = np.exp(shifted)
            denom = e.sum(axis=-1, keepdims=True, dtype=np.float64)
            out = (e / denom).astype(a.dtype)
        elif op == "relu":
            (a,) = vals
            out = np.maximum(a, 0)
        elif op == "mean_over_cols":
            (a,) = vals
            out = a.mean(axis=-1, keepdims=True, dtype=np.float64).astype(a.dtype)
        elif op == "mse":
            a, b = vals
            if a.shape != b.shape:
                raise ShapeError(f"mse: shapes differ {a.shape} vs {b.shape}")
            d = (a - b).ravel()
            out = np.asarray(np.dot(d.astype(np.float64), d.astype(np.float64)), dtype=a.dtype)
        elif op == "sinusoidal_embed":
            t = np.asarray(const["t"])
            dim = int(const["dim"])
            ctx["t"] = t
            ctx["dim"] = dim
            ctx["dtype"] = const.get("dtype", DTYPE)
            out = sinusoidal_embedding(t, dim, dtype=ctx["dtype"])
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
            q, k, v = vals
            if q.shape[-1] != k.shape[-1] or k.shape[-2] != v.shape[-2]:
                raise ShapeError(
                    f"cross_attention: shapes {q.shape}, {k.shape}, {v.shape} do not chain"
                )
            if not q.dtype == k.dtype == v.dtype:
                raise ContractError(
                    f"cross_attention: dtypes {q.dtype}, {k.dtype}, {v.dtype} differ")
            out, s = _attention_forward(q, k, v, keep_softmax=req)
            if req:
                ctx["softmax"] = s
        elif op == "transpose_last2":
            (a,) = vals
            if a.ndim < 2:
                raise ShapeError(f"transpose_last2: needs >=2 dims, got {a.shape}")
            out = _swap(a)
        elif op == "reshape":
            (a,) = vals
            shape = tuple(const["shape"])
            ctx["old_shape"] = a.shape
            try:
                out = a.reshape(shape)
            except ValueError:
                raise ShapeError(f"reshape: cannot view {a.shape} as {shape}") from None
        elif op == "col_slice":
            (a,) = vals
            n = int(const["n"])
            if not 0 < n <= a.shape[-1]:
                raise ShapeError(f"col_slice: n={n} out of range for {a.shape}")
            ctx["n"] = n
            out = np.ascontiguousarray(a[..., :n])
        else:
            raise ContractError(f"unknown op {op!r}")

        self._check_finite(out, op)
        self.nodes.append(Node(op, inputs, out, req, ctx))
        return len(self.nodes) - 1

    # ---------------------------------------------------------------- backward

    def backward(self, loss_id: int) -> dict[int, np.ndarray]:
        """Reverse sweep from `loss_id`. Returns {leaf id: gradient} covering
        every trainable leaf on the tape (zeros when unreachable)."""
        loss = self.nodes[loss_id]
        if np.size(loss.value) != 1:
            raise ContractError(f"backward: loss must be scalar, got shape {np.shape(loss.value)}")
        if not np.isfinite(loss.value).all():
            raise NumericError("backward: loss is not finite")

        adj: dict[int, np.ndarray] = {loss_id: np.ones_like(loss.value)}
        for nid in range(loss_id, -1, -1):
            node = self.nodes[nid]
            if node.op == "leaf" or not node.requires_grad:
                continue
            g = adj.pop(nid, None)
            if g is None:
                continue
            for iid, gi in self._vjp(node, g):
                if gi is None or not self.nodes[iid].requires_grad:
                    continue
                if iid in adj:
                    adj[iid] = adj[iid] + gi
                else:
                    adj[iid] = gi

        out = {}
        for nid, node in enumerate(self.nodes):
            if node.op == "leaf" and node.requires_grad:
                out[nid] = adj.get(nid, np.zeros_like(node.value))
        return out

    def _vjp(self, node: Node, g: np.ndarray):
        op = node.op
        vals = [self.nodes[i].value for i in node.inputs]
        ids = node.inputs

        if op == "matmul":
            a, b = vals
            if _is_sparse(a):
                yield ids[0], None
                yield ids[1], (a.T @ g)
            else:
                yield ids[0], _reduce_to(np.matmul(g, _swap(b)), a.shape)
                yield ids[1], _reduce_to(np.matmul(_swap(a), g), b.shape)
        elif op == "add":
            a, b = vals
            yield ids[0], _reduce_to(g, a.shape)
            yield ids[1], _reduce_to(g, b.shape)
        elif op == "scale":
            yield ids[0], g * node.ctx["factor"]
        elif op == "row_softmax":
            s = node.value
            inner = (g * s).sum(axis=-1, keepdims=True, dtype=np.float64).astype(s.dtype)
            yield ids[0], s * (g - inner)
        elif op == "relu":
            yield ids[0], g * (vals[0] > 0)
        elif op == "mean_over_cols":
            a = vals[0]
            yield ids[0], np.broadcast_to(g / a.shape[-1], a.shape).astype(a.dtype, copy=True)
        elif op == "mse":
            a, b = vals
            d = 2.0 * float(g) * (a - b)
            yield ids[0], d
            yield ids[1], -d
        elif op == "weighted_sum":
            for iid, w in zip(ids, node.ctx["weights"]):
                yield iid, w * g
        elif op == "cross_attention":
            yield from zip(ids, _attention_backward(*vals, node.ctx["softmax"], g))
        elif op == "transpose_last2":
            yield ids[0], _swap(g)
        elif op == "reshape":
            yield ids[0], g.reshape(node.ctx["old_shape"])
        elif op == "col_slice":
            a = vals[0]
            ga = np.zeros_like(a)
            ga[..., : node.ctx["n"]] = g
            yield ids[0], ga
        else:  # pragma: no cover - record() rejects unknown ops
            raise ContractError(f"no vjp for op {op!r}")

    # ------------------------------------------------------------------- misc

    def replay(self) -> None:
        """Recompute every non-leaf value in order (determinism checks)."""
        for nid, node in enumerate(self.nodes):
            if node.op == "leaf":
                continue
            sub = Tape(finite_mode="off")
            sub.nodes = self.nodes[:nid]
            const = dict(node.ctx)
            const.pop("softmax", None)
            const.pop("old_shape", None)
            if node.op == "reshape":
                const["shape"] = node.value.shape
            fresh = sub.record(node.op, *node.inputs, **const)
            node.value = sub.nodes[fresh].value
            node.ctx = sub.nodes[fresh].ctx

    def _check_finite(self, arr: np.ndarray, op: str, force: bool = False) -> None:
        if self.finite_mode == "off" and not force:
            return
        if not force and self.finite_mode == "small" and arr.size > self.finite_check_limit:
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


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState) -> AdamState:
    """Bias-corrected Adam. Updates `params` arrays in place; missing grads
    are treated as exact zeros (so untouched parameters stay put from init)."""
    state.step += 1
    c1 = 1.0 - state.beta1 ** state.step
    c2 = 1.0 - state.beta2 ** state.step
    for name, p in params.items():
        g = grads.get(name)
        m, v = state.m[name], state.v[name]
        if g is None:
            m *= state.beta1
            v *= state.beta2
        else:
            if g.shape != p.shape:
                raise ShapeError(f"adam_step: grad {g.shape} vs param {p.shape} for {name!r}")
            m *= state.beta1
            m += (1.0 - state.beta1) * g
            v *= state.beta2
            v += (1.0 - state.beta2) * (g * g)
        p -= (state.lr / c1) * m / (np.sqrt(v / c2) + state.eps)
    return state


# ------------------------------------------------------------- gradient check


@dataclass
class GradCheckReport:
    max_rel_err: float
    max_abs_err: float
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
    node id, where `leaves` maps each param name to its leaf id. All math is
    forced to float64 so the difference quotient stays trustworthy down to
    the smallest probe step.

    A central difference only measures the gradient where the loss is
    locally smooth. ReLU puts kinks everywhere, and an entry whose probe
    interval straddles one reads a spurious slope at any single step size.
    Each entry is therefore probed at eps, eps/16 and eps/256 and scored by
    the best-agreeing probe: a kink artifact shrinks with the step while a
    genuine gradient error is step-independent, so only real bugs survive.
    """
    p64 = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}

    def run(ps) -> tuple[Tape, int, dict[str, int]]:
        tape = Tape(finite_mode="all")
        leaves = {k: tape.leaf(v, trainable=True) for k, v in ps.items()}
        loss_id = build_fn(tape, leaves)
        return tape, loss_id, leaves

    tape, loss_id, leaves = run(p64)
    grads_by_id = tape.backward(loss_id)
    analytic = {k: grads_by_id[leaves[k]] for k in p64}

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
            t2, l2, _ = run(p64)
            losses.append(float(t2.nodes[l2].value))
        p64[name].ravel()[idx] = base
        return (losses[0] - losses[1]) / (2.0 * step)

    worst = ("", -1, 0.0, 0.0)
    max_rel = 0.0
    max_abs = 0.0
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
        max_abs = max(max_abs, abs(a - best_numeric))
        if best_rel > max_rel:
            max_rel = best_rel
            worst = (name, int(idx), a, best_numeric)
    return GradCheckReport(max_rel, max_abs, worst, len(entries), per_param)


# ------------------------------------------------------------- checkpoint i/o

_CKPT_MAGIC = b"CFCK"
_CKPT_VERSION = 1


def _write_tensor(f, name: str, arr: np.ndarray) -> None:
    nb = name.encode("utf-8")
    f.write(struct.pack("<H", len(nb)))
    f.write(nb)
    f.write(struct.pack("<B", arr.ndim))
    for d in arr.shape:
        f.write(struct.pack("<Q", d))
    f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def _read_tensor(f) -> tuple[str, np.ndarray]:
    raw = f.read(2)
    if len(raw) != 2:
        raise FormatError("checkpoint: truncated tensor record")
    (nlen,) = struct.unpack("<H", raw)
    name = f.read(nlen).decode("utf-8")
    (ndim,) = struct.unpack("<B", f.read(1))
    shape = tuple(struct.unpack("<Q", f.read(8))[0] for _ in range(ndim))
    count = int(np.prod(shape)) if shape else 1
    data = np.frombuffer(f.read(4 * count), dtype="<f4").reshape(shape)
    return name, data.astype(np.float32)


def save_checkpoint(path, params: dict[str, np.ndarray], config_text: str,
                    schedule_fields: tuple[int, float, float, str, float],
                    adam: AdamState | None = None) -> None:
    """Binary checkpoint: header (magic, version, config digest, schedule),
    then named float32 tensors. Optimizer tensors ride along under an
    "adam." name prefix. The human-readable config goes to `path` + ".config"
    and its sha256 is pinned in the header so a stale sidecar is detected."""
    digest = hashlib.sha256(config_text.encode("utf-8")).digest()
    T, beta_min, beta_max, kind, scale = schedule_fields
    kb = kind.encode("utf-8")

    tensors: list[tuple[str, np.ndarray]] = sorted(params.items())
    if adam is not None:
        tensors += sorted(("adam.m." + k, v) for k, v in adam.m.items())
        tensors += sorted(("adam.v." + k, v) for k, v in adam.v.items())
        tensors.append(("adam.step", np.asarray([adam.step], dtype=np.float32)))
        tensors.append(("adam.hyper", np.asarray(
            [adam.lr, adam.beta1, adam.beta2, adam.eps], dtype=np.float32)))

    with open(path, "wb") as f:
        f.write(_CKPT_MAGIC)
        f.write(struct.pack("<H", _CKPT_VERSION))
        f.write(digest)
        f.write(struct.pack("<I", T))
        f.write(struct.pack("<d", beta_min))
        f.write(struct.pack("<d", beta_max))
        f.write(struct.pack("<H", len(kb)))
        f.write(kb)
        f.write(struct.pack("<d", scale))
        f.write(struct.pack("<I", len(tensors)))
        for name, arr in tensors:
            _write_tensor(f, name, np.asarray(arr))
    with open(str(path) + ".config", "w", encoding="utf-8") as f:
        f.write(config_text)


def load_checkpoint(path):
    """Returns (params, adam_state_or_None, schedule_fields, config_text)."""
    with open(path, "rb") as f:
        if f.read(4) != _CKPT_MAGIC:
            raise FormatError(f"{path}: not a checkpoint file (bad magic)")
        (version,) = struct.unpack("<H", f.read(2))
        if version != _CKPT_VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        digest = f.read(32)
        (T,) = struct.unpack("<I", f.read(4))
        (beta_min,) = struct.unpack("<d", f.read(8))
        (beta_max,) = struct.unpack("<d", f.read(8))
        (klen,) = struct.unpack("<H", f.read(2))
        kind = f.read(klen).decode("utf-8")
        (scale,) = struct.unpack("<d", f.read(8))
        (count,) = struct.unpack("<I", f.read(4))
        tensors = dict(_read_tensor(f) for _ in range(count))

    try:
        with open(str(path) + ".config", "r", encoding="utf-8") as f:
            config_text = f.read()
    except FileNotFoundError:
        raise FormatError(f"{path}: missing config sidecar {path}.config") from None
    if hashlib.sha256(config_text.encode("utf-8")).digest() != digest:
        raise FormatError(f"{path}: config sidecar does not match header digest")

    params = {k: v for k, v in tensors.items() if not k.startswith("adam.")}
    adam = None
    if "adam.step" in tensors:
        hyper = tensors["adam.hyper"]
        adam = AdamState(
            lr=float(hyper[0]), beta1=float(hyper[1]), beta2=float(hyper[2]),
            eps=float(hyper[3]), step=int(tensors["adam.step"][0]),
            m={k[len("adam.m."):]: v for k, v in tensors.items() if k.startswith("adam.m.")},
            v={k[len("adam.v."):]: v for k, v in tensors.items() if k.startswith("adam.v.")},
        )
    return params, adam, (T, beta_min, beta_max, kind, scale), config_text
