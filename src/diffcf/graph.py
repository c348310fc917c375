"""Multi-hop connectivity over the user-item bipartite graph.

A hop-h neighborhood is the set of nodes at shortest-path distance
exactly h from a user (even h lands on users, odd h on items). For each
node in that level set we count the edges arriving from the previous
level set, then normalize the counts to sum to one. Those normalized
rows, one sparse matrix per hop, are the conditioning signal handed to
the denoiser.

`build_contexts` computes them for every user with sparse matrix
products: counts to level h are the binarized level h-1 support times
the adjacency matrix, minus already-visited columns. It runs in chunks
of users to bound memory and switches to dense BLAS when the frontier
support gets dense enough that a GEMM beats a sparse product. Counts are
integers that float32 holds exactly (edge totals stay far below 2**24);
they are divided in float64 and rounded once to float32, so both routes
give identical values. The tests keep a per-user BFS as the reference.

The cache file stores each hop's CSR arrays contiguously behind a short
header, so reading it is one read per array.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .dataset import InteractionMatrix, as_csr
from .errors import ContractError, ExactReader, FormatError, atomic_write

_MAGIC = b"CFHC"
_VERSION = 2

# A GEMM retires roughly this many multiply-adds in the time a sparse
# product retires one nonzero product on this class of hardware.
_DENSE_ADVANTAGE = 256.0
_DENSE_BYTES_CAP = 1_500_000_000


def hop_side(h: int) -> str:
    """Which side of the bipartite graph distance-h nodes live on."""
    return "item" if h % 2 == 1 else "user"


def _side_dim(h: int, num_users: int, num_items: int) -> int:
    return num_items if hop_side(h) == "item" else num_users


@dataclass(frozen=True)
class HopContexts:
    num_users: int
    num_items: int
    hops: dict[int, sp.csr_matrix]  # h -> (num_users x side dim) normalized rows

    @property
    def hop_list(self) -> tuple[int, ...]:
        return tuple(sorted(self.hops))

    def batch_rows(self, users: np.ndarray, h: int) -> np.ndarray:
        """Dense float32 rows of hop h for the given users."""
        return np.asarray(self.hops[h][users].todense(), dtype=np.float32)


def _binarize(a: sp.csr_matrix) -> sp.csr_matrix:
    return sp.csr_matrix((np.ones(a.data.size, dtype=np.float32), a.indices, a.indptr),
                         shape=a.shape)


def _normalize_rows(a: sp.csr_matrix) -> sp.csr_matrix:
    a = a.copy()
    row_of = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    sums = np.bincount(row_of, weights=a.data.astype(np.float64), minlength=a.shape[0])
    nz = sums[row_of] > 0
    data = a.data.astype(np.float64)
    data[nz] /= sums[row_of][nz]
    a.data = data.astype(np.float32)
    return a


class _DenseCache:
    """Lazily densified adjacency, built only if a product ever wants it."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.arrays: dict[int, np.ndarray] = {}

    def get(self, mat: sp.csr_matrix) -> np.ndarray | None:
        if not self.enabled:
            return None
        key = id(mat)
        if key not in self.arrays:
            self.arrays[key] = mat.toarray()
        return self.arrays[key]


def _masked_product(prev_bin: sp.csr_matrix, right: sp.csr_matrix,
                    cache: _DenseCache, visited: sp.csr_matrix) -> sp.csr_matrix:
    """(prev_bin @ right) with already-visited columns zeroed.

    Picks dense BLAS when the estimated cost favors it and the operands fit.
    """
    c, mid = prev_bin.shape
    out_dim = right.shape[1]
    sparse_ops = prev_bin.nnz * (right.nnz / max(right.shape[0], 1))
    dense_macs = float(c) * mid * out_dim
    dense_bytes = 4.0 * (c * mid + mid * out_dim + 2.0 * c * out_dim)
    right_dense = None
    if dense_macs < _DENSE_ADVANTAGE * sparse_ops and dense_bytes < _DENSE_BYTES_CAP:
        right_dense = cache.get(right)
    if right_dense is not None:
        raw = prev_bin.toarray() @ right_dense
        raw[visited.toarray() > 0] = 0.0
        out = sp.csr_matrix(raw)
    else:
        raw = (prev_bin @ right).tocsr()
        out = (raw - raw.multiply(visited)).tocsr()
        out.eliminate_zeros()
    out.sort_indices()
    return out


def build_contexts(matrix: InteractionMatrix, H: int, chunk: int = 2048,
                   dense_adjacency: bool | None = None) -> HopContexts:
    """Normalized hop-count matrices for every user over the train
    interactions, hops 2..H."""
    if H < 2:
        raise ContractError(f"context depth H must be >= 2, got {H}")
    m = as_csr(matrix)
    num_users, num_items = m.shape
    mt = m.T.tocsr()
    if dense_adjacency is None:
        dense_adjacency = 8.0 * m.shape[0] * m.shape[1] < _DENSE_BYTES_CAP
    cache = _DenseCache(dense_adjacency)

    blocks: dict[int, list[sp.csr_matrix]] = {h: [] for h in range(2, H + 1)}
    for lo in range(0, num_users, chunk):
        hi = min(lo + chunk, num_users)
        mc = m[lo:hi].tocsr()
        rows = hi - lo
        own = sp.csr_matrix(
            (np.ones(rows, dtype=np.float32), np.arange(lo, hi), np.arange(rows + 1)),
            shape=(rows, num_users))
        visited = {"user": own, "item": _binarize(mc)}
        prev_bin = visited["item"]
        for h in range(2, H + 1):
            prev_side = hop_side(h - 1)
            right = mt if prev_side == "item" else m
            counts = _masked_product(prev_bin, right, cache, visited[hop_side(h)])
            visited[hop_side(h)] = _binarize(
                (visited[hop_side(h)] + counts).tocsr())
            blocks[h].append(_normalize_rows(counts))
            prev_bin = _binarize(counts)
    hops = {h: sp.vstack(blocks[h], format="csr") for h in blocks}
    for a in hops.values():
        a.sort_indices()
    return HopContexts(num_users, num_items, hops)


# ----------------------------------------------------------------- file i/o


def save_contexts(path, ctxs: HopContexts) -> None:
    """Header (dimensions, depth H, nonzeros per hop), then for each hop
    2..H its CSR indptr (u64), indices (u32) and data (f32)."""
    hops = ctxs.hop_list
    if not hops or hops != tuple(range(2, hops[-1] + 1)):
        raise ContractError(f"cache expects contiguous hops starting at 2, got {hops}")
    with atomic_write(path) as f:
        f.write(_MAGIC)
        f.write(struct.pack("<H", _VERSION))
        f.write(struct.pack("<QQH", ctxs.num_users, ctxs.num_items, hops[-1]))
        f.write(struct.pack(f"<{len(hops)}Q", *(ctxs.hops[h].nnz for h in hops)))
        for h in hops:
            a = ctxs.hops[h]
            for arr, dtype in ((a.indptr, "<u8"), (a.indices, "<u4"), (a.data, "<f4")):
                f.write(np.ascontiguousarray(arr, dtype=dtype))


def load_contexts(path) -> HopContexts:
    """Read a cache written by `save_contexts`. The file comes from outside
    the program, so its length, offsets and indices are all checked."""
    with open(path, "rb") as f:
        r = ExactReader(f, path)
        if r.read(4) != _MAGIC:
            raise FormatError(f"{path}: not a context cache (bad magic)")
        (version,) = r.unpack("<H")
        if version != _VERSION:
            raise FormatError(f"{path}: unsupported cache version {version}")
        num_users, num_items, H = r.unpack("<QQH")
        if H < 2 or max(num_users, num_items) >= 2**31:
            raise FormatError(f"{path}: implausible header {num_users}x{num_items}, H={H}")
        nnz = r.unpack(f"<{H - 1}Q")
        size = f.tell() + sum(8 * (num_users + 1) + 8 * n for n in nnz)
        if size != r.size:
            raise FormatError(f"{path}: {r.size} bytes where the header implies {size}")
        hops = {}
        for h, n in zip(range(2, H + 1), nnz):
            dim = _side_dim(h, num_users, num_items)
            indptr, indices = r.array("<u8", num_users + 1), r.array("<u4", n)
            if indptr[0] != 0 or indptr[-1] != n or (indptr[1:] < indptr[:-1]).any():
                raise FormatError(f"{path}: hop {h} offsets are not 0..{n} non-decreasing")
            if n and int(indices.max()) >= dim:
                raise FormatError(f"{path}: hop {h} has an index >= its dimension {dim}")
            hops[h] = sp.csr_matrix(
                (r.array("<f4", n), indices.view("<i4"), indptr.view("<i8")),
                shape=(num_users, dim))
        r.end()
    return HopContexts(int(num_users), int(num_items), hops)
