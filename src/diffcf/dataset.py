"""Interaction data: parsing, holdout splitting, and the on-disk matrix.

Input files are one interaction per line, `user<sep>item[<sep>rating
[<sep>timestamp]]`, with separator tab, comma, or the "::" convention of
the classic ratings dumps. Users and items are remapped to dense 0-based
ids in order of first appearance; duplicate (user, item) pairs keep the
first occurrence. Ratings are only inspected when a `min_rating` filter
is requested, in which case every kept line must carry one.

The in-memory form is CSR-like: `indptr` (per-user offsets), `indices`
(item ids, ascending within a user), and `tags` (one byte per
interaction: 0 train, 1 validation, 2 test). `matrix.cfdm` holds exactly
those arrays and the item count, as named arrays in the container of
`errors.write_arrays`, so writing is deterministic byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .errors import (ContractError, EmptyInputError, FormatError, ParseError, get_array,
                     read_arrays, write_arrays)

TAG_TRAIN, TAG_VAL, TAG_TEST = 0, 1, 2
_TAG_NAMES = {"train": TAG_TRAIN, "val": TAG_VAL, "test": TAG_TEST}

_MAGIC = b"CFDM"
_VERSION = 2


@dataclass(frozen=True)
class InteractionMatrix:
    num_users: int
    num_items: int
    indptr: np.ndarray   # uint64, shape (num_users + 1,)
    indices: np.ndarray  # uint32 item ids, ascending within each user
    tags: np.ndarray     # uint8 split tag per interaction

    @property
    def num_interactions(self) -> int:
        return int(self.indices.size)

    def user_items(self, user: int, tag: int | None = None) -> np.ndarray:
        lo, hi = int(self.indptr[user]), int(self.indptr[user + 1])
        items = self.indices[lo:hi]
        if tag is None:
            return items
        return items[self.tags[lo:hi] == tag]

    def tag_counts(self) -> dict[str, int]:
        return {name: int((self.tags == tag).sum()) for name, tag in _TAG_NAMES.items()}


def _detect_format(line: str) -> str:
    if "::" in line:
        return "colons"
    if "\t" in line:
        return "tsv"
    if "," in line:
        return "csv"
    raise ParseError("cannot detect separator (expected tab, comma, or '::')", line=1)


_SEPS = {"tsv": "\t", "csv": ",", "colons": "::", "movielens-dat": "::"}


def parse_interactions(path, fmt: str = "auto",
                       min_rating: float | None = None) -> InteractionMatrix:
    """Read an interactions file into a matrix with all tags set to train."""
    if fmt not in ("auto", *_SEPS):
        raise ContractError(
            f"format must be auto|tsv|csv|colons|movielens-dat, got {fmt!r}")
    user_ids: dict[str, int] = {}
    item_ids: dict[str, int] = {}
    per_user: list[list[int]] = []
    seen: set[tuple[int, int]] = set()
    sep = None if fmt == "auto" else _SEPS[fmt]

    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line:
                continue
            if sep is None:
                sep = _SEPS[_detect_format(line)]
            parts = line.split(sep)
            if len(parts) < 2 or not parts[0].strip() or not parts[1].strip():
                raise ParseError(f"expected 'user{sep}item[...]', got {line!r}", line=lineno)
            if min_rating is not None:
                if len(parts) < 3:
                    raise ParseError("min_rating filter needs a rating column", line=lineno)
                try:
                    rating = float(parts[2])
                except ValueError:
                    raise ParseError(f"bad rating {parts[2]!r}", line=lineno) from None
                if rating < min_rating:
                    continue
            u = user_ids.setdefault(parts[0].strip(), len(user_ids))
            i = item_ids.setdefault(parts[1].strip(), len(item_ids))
            if u == len(per_user):
                per_user.append([])
            if (u, i) in seen:
                continue
            seen.add((u, i))
            per_user[u].append(i)

    if not seen:
        raise EmptyInputError(f"{path}: no usable interactions")

    indptr = np.zeros(len(per_user) + 1, dtype=np.uint64)
    indices = np.empty(len(seen), dtype=np.uint32)
    pos = 0
    for u, items in enumerate(per_user):
        items.sort()
        indices[pos:pos + len(items)] = items
        pos += len(items)
        indptr[u + 1] = pos
    tags = np.zeros(len(seen), dtype=np.uint8)
    return InteractionMatrix(len(per_user), len(item_ids), indptr, indices, tags)


def _apportion(n: int, ratios: tuple[float, float, float]) -> list[int]:
    """Largest-remainder split of n into 3 buckets; bucket sizes are within
    one of the exact quotas and a nonempty user always keeps a train item."""
    quotas = [n * r for r in ratios]
    counts = [int(q) for q in quotas]
    order = sorted(range(3), key=lambda k: (-(quotas[k] - counts[k]), k))
    for k in order[: n - sum(counts)]:
        counts[k] += 1
    if counts[0] == 0 and n > 0:
        donor = max((1, 2), key=lambda k: counts[k])
        counts[donor] -= 1
        counts[0] += 1
    return counts


def split_holdout(matrix: InteractionMatrix,
                  ratios: tuple[float, float, float] = (0.7, 0.1, 0.2),
                  seed: int = 0) -> InteractionMatrix:
    """Tag each user's interactions train/val/test by shuffled apportionment."""
    if len(ratios) != 3 or any(r < 0 for r in ratios) or ratios[0] <= 0:
        raise ContractError(f"ratios must be 3 non-negatives with train > 0: {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ContractError(f"ratios must sum to 1, got {sum(ratios)}")
    rng = np.random.default_rng(seed)
    tags = np.empty_like(matrix.tags)
    for u in range(matrix.num_users):
        lo, hi = int(matrix.indptr[u]), int(matrix.indptr[u + 1])
        n = hi - lo
        n_train, n_val, _ = _apportion(n, ratios)
        perm = rng.permutation(n)
        slot = np.empty(n, dtype=np.uint8)
        slot[perm[:n_train]] = TAG_TRAIN
        slot[perm[n_train:n_train + n_val]] = TAG_VAL
        slot[perm[n_train + n_val:]] = TAG_TEST
        tags[lo:hi] = slot
    return replace(matrix, tags=tags)


# ------------------------------------------------------------- dense/sparse


def as_csr(matrix: InteractionMatrix, tags=(TAG_TRAIN,)) -> sp.csr_matrix:
    """Binary user-by-item CSR over the selected split tags (float32 ones)."""
    keep = np.isin(matrix.tags, np.asarray(tags, dtype=np.uint8))
    per_user = np.diff(matrix.indptr.astype(np.int64))
    user_of = np.repeat(np.arange(matrix.num_users), per_user)
    lengths = np.bincount(user_of[keep], minlength=matrix.num_users)
    indptr = np.zeros(matrix.num_users + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    indices = matrix.indices[keep].astype(np.int32)
    data = np.ones(indices.size, dtype=np.float32)
    return sp.csr_matrix((data, indices, indptr),
                         shape=(matrix.num_users, matrix.num_items))


def users_with_tag(matrix: InteractionMatrix, tag: int) -> np.ndarray:
    """Ascending ids of the users holding at least one interaction tagged
    `tag`."""
    owner = np.repeat(np.arange(matrix.num_users), np.diff(matrix.indptr.astype(np.int64)))
    return np.flatnonzero(np.bincount(owner[matrix.tags == tag], minlength=matrix.num_users))


def dense_rows(matrix: InteractionMatrix, users: np.ndarray,
               tags=(TAG_TRAIN,), dtype=np.float32) -> np.ndarray:
    """Multi-hot rows for the given users over the selected split tags."""
    out = np.zeros((len(users), matrix.num_items), dtype=dtype)
    want = np.asarray(tags, dtype=np.uint8)
    for row, u in enumerate(users):
        lo, hi = int(matrix.indptr[u]), int(matrix.indptr[u + 1])
        items = matrix.indices[lo:hi][np.isin(matrix.tags[lo:hi], want)]
        out[row, items] = 1
    return out


def item_popularity(matrix: InteractionMatrix, tag: int = TAG_TRAIN) -> np.ndarray:
    """Train-interaction count per item (the popularity baseline's scores)."""
    counts = np.zeros(matrix.num_items, dtype=np.int64)
    np.add.at(counts, matrix.indices[matrix.tags == tag].astype(np.int64), 1)
    return counts


# ----------------------------------------------------------------- file i/o


def save_matrix(path, matrix: InteractionMatrix) -> None:
    write_arrays(path, _MAGIC, _VERSION, {
        "num_items": np.uint64(matrix.num_items),
        "indptr": matrix.indptr.astype("<u8", copy=False),
        "indices": matrix.indices.astype("<u4", copy=False),
        "tags": matrix.tags.astype("u1", copy=False)})


def load_matrix(path) -> InteractionMatrix:
    arrays = read_arrays(path, _MAGIC, _VERSION, "interaction matrix")
    num_items = int(get_array(arrays, path, "num_items", "<u8", ()))
    indptr = get_array(arrays, path, "indptr", "<u8")
    if indptr.size == 0 or indptr[0] != 0 or (indptr[1:] < indptr[:-1]).any():
        raise FormatError(f"{path}: offsets must start at 0 and never decrease")
    nnz = int(indptr[-1])
    indices = get_array(arrays, path, "indices", "<u4", (nnz,))
    tags = get_array(arrays, path, "tags", "|u1", (nnz,))
    if nnz and int(indices.max()) >= num_items:
        raise FormatError(f"{path}: an item id is >= the item count {num_items}")
    if nnz and int(tags.max()) > TAG_TEST:
        raise FormatError(f"{path}: a split tag is outside 0..{TAG_TEST}")
    return InteractionMatrix(indptr.size - 1, num_items, indptr, indices, tags)
