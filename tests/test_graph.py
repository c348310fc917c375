"""Verification suite for multi-hop connectivity encoding.

Two oracles live here. `dense_hop_oracle` walks an explicit dense
adjacency over the combined user+item node set: nodes at shortest-path
distance exactly h, scored by how many distance-(h-1) nodes they connect
to. The reference encoder (`build_bipartite` / `hop_frontier` /
`encode_hop` / `encode_context`) is a per-user BFS over adjacency lists.
Neither shares code with `graph.build_contexts` (masked products over
sparse or dense row blocks), so agreement is meaningful.
"""

import struct
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import make_matrix
from diffcf import graph
from diffcf.dataset import TAG_TEST, TAG_TRAIN, as_csr
from diffcf.errors import ContractError, FormatError


def dense_hop_oracle(mat: np.ndarray, user: int, h: int) -> np.ndarray:
    """Normalized hop-h vector from a dense 0/1 interaction matrix."""
    num_users, num_items = mat.shape
    n = num_users + num_items
    adj = np.zeros((n, n), dtype=bool)
    adj[:num_users, num_users:] = mat > 0
    adj[num_users:, :num_users] = mat.T > 0
    dist = np.full(n, -1, dtype=np.int64)
    dist[user] = 0
    frontier = np.zeros(n, dtype=bool)
    frontier[user] = True
    for depth in range(1, h + 1):
        reach = adj[frontier].any(axis=0)
        frontier = reach & (dist < 0)
        dist[frontier] = depth
    prev = dist == h - 1
    level = np.flatnonzero(dist == h)
    counts = adj[level][:, prev].sum(axis=1).astype(np.float64)
    side = num_items if h % 2 == 1 else num_users
    offset = num_users if h % 2 == 1 else 0
    out = np.zeros(side, dtype=np.float32)
    total = counts.sum()
    if total:
        out[level - offset] = (counts / total).astype(np.float32)
    return out


# ------------------------------------------------------- reference encoder


@dataclass(frozen=True)
class BipartiteGraph:
    num_users: int
    num_items: int
    user_adj: list[np.ndarray]  # user -> sorted item ids
    item_adj: list[np.ndarray]  # item -> sorted user ids


@dataclass(frozen=True)
class HopVector:
    hop: int
    side: str
    values: np.ndarray  # float32 over the full side dimension; sums to 1 or is all-zero


@dataclass(frozen=True)
class HighOrderContext:
    user: int
    hops: tuple[int, ...]
    padded: np.ndarray  # float32, shape (len(hops), max(num_users, num_items))


def build_bipartite(matrix, tags=(TAG_TRAIN,)) -> BipartiteGraph:
    """Adjacency lists over the selected split tags (train by default, so
    held-out interactions never leak into the conditioning signal)."""
    m = as_csr(matrix, tags=tags)
    mt = m.tocsc()
    user_adj = [m.indices[m.indptr[u]:m.indptr[u + 1]].astype(np.int64)
                for u in range(matrix.num_users)]
    item_adj = [mt.indices[mt.indptr[i]:mt.indptr[i + 1]].astype(np.int64)
                for i in range(matrix.num_items)]
    return BipartiteGraph(matrix.num_users, matrix.num_items, user_adj, item_adj)


def hop_frontier(g: BipartiteGraph, user: int, h: int):
    """BFS level set at distance exactly h from `user`.

    Returns (sorted node ids, {node: edges from the previous level}, total
    edge count). Node ids index the side given by `graph.hop_side(h)`.
    """
    if not 0 <= user < g.num_users:
        raise ContractError(f"user {user} out of range 0..{g.num_users - 1}")
    if h < 1:
        raise ContractError(f"hop must be >= 1, got {h}")
    visited_u = {user}
    visited_i: set[int] = set()
    frontier = [user]
    counts: dict[int, int] = {user: 1}
    for depth in range(1, h + 1):
        adj = g.user_adj if depth % 2 == 1 else g.item_adj
        visited = visited_i if depth % 2 == 1 else visited_u
        nxt: dict[int, int] = {}
        for node in frontier:
            for nb in adj[node]:
                nb = int(nb)
                if nb in visited:
                    continue
                nxt[nb] = nxt.get(nb, 0) + 1
        visited.update(nxt)
        counts = nxt
        frontier = list(nxt)
    ids = np.array(sorted(counts), dtype=np.int64)
    return ids, counts, sum(counts.values())


def encode_hop(g: BipartiteGraph, user: int, h: int) -> HopVector:
    """Normalized edge-count vector for the distance-h level set."""
    _, counts, total = hop_frontier(g, user, h)
    dim = g.num_items if graph.hop_side(h) == "item" else g.num_users
    values = np.zeros(dim, dtype=np.float32)
    if total:
        idx = np.fromiter(counts.keys(), dtype=np.int64, count=len(counts))
        c = np.fromiter(counts.values(), dtype=np.float64, count=len(counts))
        values[idx] = (c / total).astype(np.float32)
    return HopVector(h, graph.hop_side(h), values)


def encode_context(g: BipartiteGraph, user: int,
                   hops: tuple[int, ...] = (2, 3)) -> HighOrderContext:
    """Stack the requested hop vectors, zero-padded to a common width."""
    if not hops or min(hops) < 2:
        raise ContractError(f"context hops must all be >= 2, got {hops}")
    width = max(g.num_users, g.num_items)
    padded = np.zeros((len(hops), width), dtype=np.float32)
    for row, h in enumerate(hops):
        v = encode_hop(g, user, h).values
        padded[row, : v.size] = v
    return HighOrderContext(user, tuple(hops), padded)


def user_row(ctxs: graph.HopContexts, user: int, h: int) -> np.ndarray:
    return ctxs.batch_rows(np.asarray([user]), h)[0]


def assert_rows_sorted(a) -> None:
    """Column indices ascend within every row, as the cache format needs."""
    b = a.copy()
    b.has_sorted_indices = False
    b.sort_indices()
    assert np.array_equal(a.indices, b.indices) and np.array_equal(a.data, b.data)


# ------------------------------------------------------------------ tests


def worked_example_matrix():
    """Three users, five items: user 0 holds {0, 1, 4}, user 1 holds
    {1, 2, 3}, user 2 holds {1, 3, 4}."""
    return make_matrix([[0, 1, 4], [1, 2, 3], [1, 3, 4]], num_items=5)


def random_matrix(rng, max_users=30, max_items=30, p=0.1):
    users = int(rng.integers(1, max_users + 1))
    items = int(rng.integers(1, max_items + 1))
    dense = rng.random((users, items)) < p
    rows = [np.flatnonzero(dense[u]).tolist() for u in range(users)]
    return make_matrix(rows, num_items=items), dense


class TestWorkedExample:
    def test_two_hop_vector(self):
        g = build_bipartite(worked_example_matrix())
        v = encode_hop(g, 0, 2)
        assert v.side == "user"
        np.testing.assert_array_equal(
            v.values, np.array([0, 1 / 3, 2 / 3], dtype=np.float32))

    def test_three_hop_vector(self):
        g = build_bipartite(worked_example_matrix())
        v = encode_hop(g, 0, 3)
        assert v.side == "item"
        np.testing.assert_array_equal(
            v.values, np.array([0, 0, 1 / 3, 2 / 3, 0], dtype=np.float32))

    def test_context_stacks_and_pads(self):
        g = build_bipartite(worked_example_matrix())
        ctx = encode_context(g, 0, hops=(2, 3))
        assert ctx.padded.shape == (2, 5)
        np.testing.assert_array_equal(ctx.padded[0, :3],
                                      np.array([0, 1 / 3, 2 / 3], dtype=np.float32))
        np.testing.assert_array_equal(ctx.padded[0, 3:], 0.0)


class TestReferenceEncoder:
    def test_hop_side_alternates(self):
        assert [graph.hop_side(h) for h in (1, 2, 3, 4)] == \
            ["item", "user", "item", "user"]

    def test_one_hop_is_normalized_neighborhood(self):
        m = worked_example_matrix()
        g = build_bipartite(m)
        v = encode_hop(g, 1, 1)
        np.testing.assert_array_equal(
            v.values, np.array([0, 1 / 3, 1 / 3, 1 / 3, 0], dtype=np.float32))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            m, dense = random_matrix(rng)
            g = build_bipartite(m)
            for h in (2, 3, 4):
                for u in range(m.num_users):
                    got = encode_hop(g, u, h).values
                    want = dense_hop_oracle(dense, u, h)
                    assert np.array_equal(got, want), (
                        f"user {u} hop {h}: {got} vs {want}")

    def test_exhausted_frontier_is_all_zero(self):
        m = make_matrix([[0], [1]], num_items=2)  # two disjoint pairs
        g = build_bipartite(m)
        assert encode_hop(g, 0, 2).values.sum() == 0.0
        assert encode_hop(g, 0, 3).values.sum() == 0.0

    def test_argument_contracts(self):
        g = build_bipartite(worked_example_matrix())
        with pytest.raises(ContractError):
            hop_frontier(g, 99, 2)
        with pytest.raises(ContractError):
            hop_frontier(g, 0, 0)
        with pytest.raises(ContractError):
            encode_context(g, 0, hops=(1, 2))

    def test_held_out_edges_do_not_leak(self):
        m = make_matrix([[0, 1], [1, 2]], num_items=3,
                        tags=[[TAG_TRAIN, TAG_TEST], [TAG_TRAIN, TAG_TRAIN]])
        g = build_bipartite(m)
        np.testing.assert_array_equal(g.user_adj[0], [0])
        # Without the test edge user 0 shares no item with user 1.
        assert encode_hop(g, 0, 2).values.sum() == 0.0


def spy_routes(monkeypatch) -> list[str]:
    """Records 'dense' or 'sparse' for every product the builder runs."""
    ran = []
    for route in ("dense", "sparse"):
        hop = getattr(graph, f"_{route}_hop")
        monkeypatch.setattr(graph, f"_{route}_hop",
                            lambda *a, hop=hop, route=route: ran.append(route) or hop(*a))
    return ran


class TestBatchBuilder:
    def test_matches_reference_both_routes(self, monkeypatch):
        ran = spy_routes(monkeypatch)
        routes = {False: set(), True: set()}
        rng = np.random.default_rng(1)
        for trial in range(12):
            m, _ = random_matrix(rng)
            g = build_bipartite(m)
            for allow_dense in (False, True):
                ran.clear()
                with monkeypatch.context() as mp:
                    if not allow_dense:
                        mp.setattr(graph, "_dense_route", lambda *stats: False)
                    ctxs = graph.build_contexts(m, H=4, chunk=7)
                routes[allow_dense].update(ran)
                for h in (2, 3, 4):
                    assert_rows_sorted(ctxs.hops[h])
                    for u in range(m.num_users):
                        got = user_row(ctxs, u, h)
                        want = encode_hop(g, u, h).values
                        assert np.array_equal(got, want), (
                            f"trial {trial} dense={allow_dense} user {u} hop {h}")
        assert routes[False] == {"sparse"} and "dense" in routes[True]

    @pytest.mark.filterwarnings("error")  # no 0/0 for the empty rows either
    @pytest.mark.parametrize("script", [(True, False, True), (False, True, False)])
    def test_one_chunk_switching_routes_between_hops(self, monkeypatch, script):
        """Hops 2, 3 and 4 of one chunk alternate routes, so each route
        takes its frontier from the other. User 12 reaches user 13 at hop
        2 and nothing at hops 3 and 4."""
        dense = np.pad(np.random.default_rng(5).random((12, 10)) < 0.3, ((0, 2), (0, 1)))
        dense[12:, -1] = True
        m = make_matrix([np.flatnonzero(row).tolist() for row in dense],
                        num_items=dense.shape[1])
        ran = spy_routes(monkeypatch)
        routes = iter(script)
        monkeypatch.setattr(graph, "_dense_route", lambda *stats: next(routes))
        ctxs = graph.build_contexts(m, H=4, chunk=m.num_users)
        assert ran == ["dense" if d else "sparse" for d in script]
        g = build_bipartite(m)
        for h in (2, 3, 4):
            assert_rows_sorted(ctxs.hops[h])
            rows = ctxs.batch_rows(np.arange(m.num_users), h)
            for u in range(m.num_users):
                assert np.array_equal(rows[u], encode_hop(g, u, h).values), (u, h)
        np.testing.assert_array_equal(user_row(ctxs, 12, 2), np.eye(m.num_users)[13])
        assert not user_row(ctxs, 12, 3).any() and not user_row(ctxs, 12, 4).any()

    @pytest.mark.parametrize("shape, stats, dense", [
        # 6040 users x 3706 items, 694,081 train edges, chunks of 2048 users:
        # hop 2 multiplies the chunk's 232,550 items by the item-user
        # adjacency, hop 3 its 10,660,601 hop-2 users by the user-item one.
        ("ml1m hop 2", (2048, 3706, 6040, 232_550, 694_081), True),
        ("ml1m hop 3", (2048, 6040, 3706, 10_660_601, 694_081), True),
        # 1200 users x 30000 items, 27,235 train edges, one chunk.
        ("wide_fit hop 2", (1200, 30000, 1200, 27_235, 27_235), False),
        ("wide_fit hop 3", (1200, 1200, 30000, 46_336, 27_235), False),
        # The ML-1M hop 3 product over a 200x wider catalog: its dense
        # blocks would not fit the memory cap.
        ("wide ml1m hop 3", (2048, 6040, 741_200, 10_660_601, 138_816_200), False),
    ])
    def test_route_rule_on_benchmark_block_statistics(self, shape, stats, dense):
        assert graph._dense_route(*stats) == dense, shape

    def test_batch_rows_layout(self):
        m = worked_example_matrix()
        ctxs = graph.build_contexts(m, H=3)
        rows = ctxs.batch_rows(np.array([2, 0]), 2)
        assert rows.shape == (2, 3)
        np.testing.assert_array_equal(rows[1], user_row(ctxs, 0, 2))
        assert ctxs.hop_list == (2, 3)

    def test_depth_contract(self):
        with pytest.raises(ContractError):
            graph.build_contexts(worked_example_matrix(), H=1)

    def test_train_tag_only_by_default(self):
        m = make_matrix([[0, 1], [1, 2]], num_items=3,
                        tags=[[TAG_TRAIN, TAG_TEST], [TAG_TRAIN, TAG_TRAIN]])
        ctxs = graph.build_contexts(m, H=2)
        assert user_row(ctxs, 0, 2).sum() == 0.0


class TestContextIO:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        m, _ = random_matrix(rng, max_users=20, max_items=15, p=0.2)
        ctxs = graph.build_contexts(m, H=4)
        path = tmp_path / "ctx.cfhc"
        graph.save_contexts(path, ctxs)
        loaded = graph.load_contexts(path)
        assert loaded.num_users == ctxs.num_users
        assert loaded.num_items == ctxs.num_items
        assert loaded.hop_list == ctxs.hop_list
        for h in ctxs.hop_list:
            a, b = ctxs.hops[h], loaded.hops[h]
            assert np.array_equal(a.indptr, b.indptr)
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.data, b.data)

    def test_bytes_deterministic(self, tmp_path):
        m = worked_example_matrix()
        ctxs = graph.build_contexts(m, H=3)
        a, b = tmp_path / "a.cfhc", tmp_path / "b.cfhc"
        graph.save_contexts(a, ctxs)
        graph.save_contexts(b, ctxs)
        assert a.read_bytes() == b.read_bytes()

    def test_non_contiguous_hops_rejected(self, tmp_path):
        m = worked_example_matrix()
        ctxs = graph.build_contexts(m, H=4)
        partial = graph.HopContexts(ctxs.num_users, ctxs.num_items,
                                    {2: ctxs.hops[2], 4: ctxs.hops[4]})
        with pytest.raises(ContractError):
            graph.save_contexts(tmp_path / "bad.cfhc", partial)

    def test_bad_magic_and_truncation(self, tmp_path):
        m = worked_example_matrix()
        ctxs = graph.build_contexts(m, H=3)
        path = tmp_path / "ctx.cfhc"
        graph.save_contexts(path, ctxs)
        raw = path.read_bytes()
        (tmp_path / "bad.cfhc").write_bytes(b"XXXX" + raw[4:])
        with pytest.raises(FormatError):
            graph.load_contexts(tmp_path / "bad.cfhc")
        (tmp_path / "cut.cfhc").write_bytes(raw[:-5])
        with pytest.raises(FormatError):
            graph.load_contexts(tmp_path / "cut.cfhc")

    def test_layout_is_header_then_csr_arrays(self, tmp_path):
        ctxs = graph.build_contexts(worked_example_matrix(), H=3)
        path = tmp_path / "ctx.cfhc"
        graph.save_contexts(path, ctxs)
        want = b"CFHC" + struct.pack("<HQQH2Q", 2, 3, 5, 3,
                                     ctxs.hops[2].nnz, ctxs.hops[3].nnz)
        for h in (2, 3):
            a = ctxs.hops[h]
            want += (a.indptr.astype("<u8").tobytes() + a.indices.astype("<u4").tobytes()
                     + a.data.astype("<f4").tobytes())
        assert path.read_bytes() == want

    @staticmethod
    def write_hop2_cache(path, indptr, indices):
        """A depth-2 cache over 3 users and 5 items with two nonzeros."""
        path.write_bytes(b"CFHC" + struct.pack("<HQQHQ", 2, 3, 5, 2, 2)
                         + np.asarray(indptr, "<u8").tobytes()
                         + np.asarray(indices, "<u4").tobytes()
                         + np.ones(2, "<f4").tobytes())

    def test_hand_written_cache_loads(self, tmp_path):
        self.write_hop2_cache(tmp_path / "ctx.cfhc", [0, 1, 2, 2], [1, 0])
        rows = graph.load_contexts(tmp_path / "ctx.cfhc").batch_rows(np.arange(3), 2)
        np.testing.assert_array_equal(rows, [[0, 1, 0], [1, 0, 0], [0, 0, 0]])

    @pytest.mark.parametrize("indptr, indices", [
        ([1, 1, 2, 2], [1, 0]),  # does not start at 0
        ([0, 2, 1, 2], [1, 0]),  # decreases
        ([0, 1, 1, 1], [1, 0]),  # ends before nnz
        ([0, 1, 2, 2], [1, 3]),  # index beyond the 3 users of hop 2
    ])
    def test_malformed_arrays_rejected(self, tmp_path, indptr, indices):
        self.write_hop2_cache(tmp_path / "ctx.cfhc", indptr, indices)
        with pytest.raises(FormatError):
            graph.load_contexts(tmp_path / "ctx.cfhc")
