"""Multi-hop connectivity over the user-item bipartite graph.

A hop-h neighborhood is the set of nodes at shortest-path distance
exactly h from a user (even h lands on users, odd h on items). For each
node in that level set we count the edges arriving from the previous
level set, then normalize the counts to sum to one. Those normalized
rows, one sparse matrix per hop, are the conditioning signal handed to
the denoiser.

`build_contexts` computes them for every user, one chunk of users at a
time: counts to level h are the level h-1 support times the adjacency,
with the columns visited at levels h-2, h-4, ... zeroed (the visited sets
are dense bool blocks over the chunk). Each product takes one of two
routes, picked from statistics of its blocks by `_dense_route`:

- dense: the support as a dense block times the densified adjacency in
  one GEMM; visited columns are zeroed and rows normalized in place, and
  the block's CSR rows are read out once. The GEMM pays per multiply-add
  and the rest per output cell, so this route wins when the output block
  is mostly full (ML-1M's hops 2 and 3 are 86% and 97% nonzero).
- sparse: a sparse product whose entries in visited columns are dropped,
  then sorted and normalized. It pays per multiply-add and again per
  output nonzero, so it wins when the output is sparse (a wide catalog
  with few interactions per item).

A product goes dense when the estimated cost is lower and its blocks fit
`_DENSE_BYTES_CAP`. Each hop's CSR is then assembled once from the
chunks' rows. Counts are integers that float32 holds exactly (edge
totals stay far below 2**24); they are divided in float64 and rounded
once to float32, so both routes give identical bits. The tests keep a
per-user BFS as the reference.

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

# Route costs, in units of one sparse multiply-add on this class of
# hardware (about 15 ns on a 2-CPU x86 VM with OpenBLAS). In that time a
# GEMM retires about this many multiply-adds (measured: 1500) ...
_DENSE_ADVANTAGE = 1024.0
# ... a sparse output nonzero costs this many units more to mask, sort
# and normalize (measured: 6-7) ...
_OUT_COST = 6.0
# ... and a dense output cell this many to mask, normalize and scan
# (measured: 1-1.3).
_CELL_COST = 1.0
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


@dataclass
class _Rows:
    """One hop's rows for a chunk of users: nonzeros per row, column indices
    ascending within each row, and the normalized values."""
    row_nnz: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def row_of(self) -> np.ndarray:
        return np.repeat(np.arange(self.row_nnz.size), self.row_nnz)

    def support(self, dim: int) -> sp.csr_matrix:
        """The rows' 0/1 pattern as CSR."""
        indptr = np.zeros(self.row_nnz.size + 1, dtype=np.int64)
        np.cumsum(self.row_nnz, out=indptr[1:])
        return sp.csr_matrix((np.ones(self.indices.size, dtype=np.float32), self.indices,
                              indptr), shape=(self.row_nnz.size, dim))


def _dense_route(rows: int, mid: int, out_dim: int, prev_nnz: int, adj_nnz: int) -> bool:
    """Whether a (rows x mid) frontier with `prev_nnz` nonzeros times the
    (mid x out_dim) adjacency with `adj_nnz` nonzeros should run as one
    GEMM over dense blocks rather than as a sparse product.

    The sparse route pays per multiply-add and again per output nonzero,
    and the output holds at most min(multiply-adds, cells) of them; the
    dense route pays per GEMM multiply-add and per output cell. The dense
    blocks, with the dense adjacency, must also fit `_DENSE_BYTES_CAP`."""
    sparse_ops = prev_nnz * (adj_nnz / max(mid, 1))
    cells = float(rows) * out_dim
    sparse_cost = sparse_ops + _OUT_COST * min(sparse_ops, cells)
    dense_cost = cells * mid / _DENSE_ADVANTAGE + _CELL_COST * cells
    # float32 support and adjacency; float32 counts, bool reached and the
    # next hop's float32 support per output cell.
    dense_bytes = 4.0 * (rows * mid + mid * out_dim) + 9.0 * cells
    return dense_cost < sparse_cost and dense_bytes < _DENSE_BYTES_CAP


def _dense_hop(support: np.ndarray, adj: np.ndarray,
               visited: np.ndarray) -> tuple[_Rows, np.ndarray]:
    """Counts as one GEMM with the visited columns zeroed, normalized in
    place; returns the rows and the reached block."""
    counts = support @ adj
    counts[visited] = 0.0
    reached = counts > 0
    sums = counts.sum(axis=1, dtype=np.float64)
    sums[sums == 0] = 1.0
    np.divide(counts, sums[:, None], out=counts, casting="same_kind")
    columns = np.broadcast_to(np.arange(adj.shape[1], dtype=np.int32), reached.shape)
    return _Rows(np.count_nonzero(reached, axis=1), columns[reached], counts[reached]), reached


def _sparse_hop(support: sp.csr_matrix, adj: sp.csr_matrix, visited: np.ndarray) -> _Rows:
    """Counts as a sparse product with the visited columns dropped."""
    counts = (support @ adj).tocsr()
    row_of = np.repeat(np.arange(counts.shape[0]), np.diff(counts.indptr))
    counts.data[visited[row_of, counts.indices]] = 0.0
    counts.eliminate_zeros()
    counts.sort_indices()
    row_nnz = np.diff(counts.indptr)
    row_of = np.repeat(np.arange(row_nnz.size), row_nnz)
    data = counts.data.astype(np.float64)
    data /= np.bincount(row_of, weights=data, minlength=row_nnz.size)[row_of]
    return _Rows(row_nnz, counts.indices.astype(np.int32, copy=False), data.astype(np.float32))


def _assemble(chunks: list[_Rows], num_rows: int, dim: int) -> sp.csr_matrix:
    """One CSR from the chunks' rows in order, freeing each chunk once it
    is copied."""
    nnz = sum(c.indices.size for c in chunks)
    idx_dtype = np.int32 if max(nnz, dim) < 2**31 else np.int64
    indptr = np.zeros(num_rows + 1, dtype=idx_dtype)
    indices = np.empty(nnz, dtype=idx_dtype)
    data = np.empty(nnz, dtype=np.float32)
    row = pos = 0
    while chunks:
        c = chunks.pop(0)
        r, n = c.row_nnz.size, c.indices.size
        np.cumsum(c.row_nnz, out=indptr[row + 1:row + r + 1])
        indptr[row + 1:row + r + 1] += pos
        indices[pos:pos + n] = c.indices
        data[pos:pos + n] = c.data
        row, pos = row + r, pos + n
    return sp.csr_matrix((data, indices, indptr), shape=(num_rows, dim), copy=False)


def build_contexts(matrix: InteractionMatrix, H: int, chunk: int = 2048) -> HopContexts:
    """Normalized hop-count matrices for every user over the train
    interactions, hops 2..H."""
    if H < 2:
        raise ContractError(f"context depth H must be >= 2, got {H}")
    m = as_csr(matrix)
    num_users, num_items = m.shape
    dims = {"user": num_users, "item": num_items}
    # The adjacency to multiply a frontier on each side by, sparse and,
    # once a product first routes dense, dense (one array and its transpose).
    sparse_adj = {"item": m.T.tocsr(), "user": m}
    dense_adj: dict[str, np.ndarray] = {}
    # The visited blocks take chunk x (users + items) bytes: at most an
    # eighth of the cap.
    chunk = max(1, min(chunk, _DENSE_BYTES_CAP // (8 * (num_users + num_items))))

    pieces: dict[int, list[_Rows]] = {h: [] for h in range(2, H + 1)}
    for lo in range(0, num_users, chunk):
        hi = min(lo + chunk, num_users)
        rows = hi - lo
        mc = m[lo:hi]
        prev, reached = _Rows(np.diff(mc.indptr), mc.indices, mc.data), None
        visited = {side: np.zeros((rows, dim), dtype=bool) for side, dim in dims.items()}
        visited["user"][np.arange(rows), np.arange(lo, hi)] = True
        visited["item"][prev.row_of(), prev.indices] = True
        for h in range(2, H + 1):
            side, prev_side = hop_side(h), hop_side(h - 1)
            mid = dims[prev_side]
            if _dense_route(rows, mid, dims[side], prev.indices.size, m.nnz):
                if not dense_adj:
                    dense_adj["user"] = m.toarray()
                    dense_adj["item"] = dense_adj["user"].T
                if reached is None:
                    support = np.zeros((rows, mid), dtype=np.float32)
                    support[prev.row_of(), prev.indices] = 1.0
                else:
                    support = reached.astype(np.float32)
                prev, reached = _dense_hop(support, dense_adj[prev_side], visited[side])
                del support
            else:
                prev, reached = _sparse_hop(prev.support(mid), sparse_adj[prev_side],
                                            visited[side]), None
            if h + 2 <= H:  # hop h + 2 is the next to read this side's visited set
                if reached is not None:
                    visited[side] |= reached
                else:
                    visited[side][prev.row_of(), prev.indices] = True
            pieces[h].append(prev)
    hops = {h: _assemble(pieces.pop(h), num_users, dims[hop_side(h)])
            for h in range(2, H + 1)}
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
