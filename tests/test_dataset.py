"""Verification suite for parsing, holdout splitting, and matrix i/o."""

import numpy as np
import pytest

from conftest import make_matrix
from diffcf import dataset
from diffcf.dataset import TAG_TRAIN, TAG_VAL, TAG_TEST
from diffcf.errors import (ContractError, EmptyInputError, FormatError,
                           ParseError)


class TestParsing:
    def test_tab_separated(self, ratings_file):
        path = ratings_file(["u1\ti1", "u1\ti2", "u2\ti1"])
        m = dataset.parse_interactions(path)
        assert (m.num_users, m.num_items, m.num_interactions) == (2, 2, 3)

    def test_comma_and_colons_detected(self, ratings_file):
        for lines in (["a,x", "b,y"], ["a::x", "b::y"]):
            m = dataset.parse_interactions(ratings_file(lines))
            assert (m.num_users, m.num_items) == (2, 2)

    def test_movielens_dat_alias(self, ratings_file):
        path = ratings_file(["1::10::5::978300760", "1::20::3::978300761"])
        m = dataset.parse_interactions(path, fmt="movielens-dat")
        assert m.num_interactions == 2

    def test_ids_remapped_by_first_appearance(self, ratings_file):
        path = ratings_file(["zulu\tfirst", "alpha\tfirst", "zulu\tsecond"])
        m = dataset.parse_interactions(path)
        # zulu appeared first so it became user 0; items likewise.
        np.testing.assert_array_equal(m.user_items(0), [0, 1])
        np.testing.assert_array_equal(m.user_items(1), [0])

    def test_duplicates_keep_first(self, ratings_file):
        path = ratings_file(["u\ti\t5", "u\ti\t1", "u\tj\t2"])
        m = dataset.parse_interactions(path)
        assert m.num_interactions == 2

    def test_blank_lines_skipped(self, ratings_file):
        path = ratings_file(["u\ti", "", "  ", "v\tj"])
        assert dataset.parse_interactions(path).num_interactions == 2

    def test_min_rating_filter(self, ratings_file):
        path = ratings_file(["u::a::5", "u::b::2", "v::a::4", "v::c::1"])
        m = dataset.parse_interactions(path, min_rating=4.0)
        assert m.num_interactions == 2
        assert m.num_items == 1  # only item "a" survives, remapped densely

    def test_min_rating_requires_column(self, ratings_file):
        path = ratings_file(["u\ti"])
        with pytest.raises(ParseError):
            dataset.parse_interactions(path, min_rating=3.0)

    def test_bad_rating_reports_line(self, ratings_file):
        path = ratings_file(["u::a::5", "u::b::high"])
        with pytest.raises(ParseError, match="line 2"):
            dataset.parse_interactions(path, min_rating=1.0)

    def test_malformed_line_reports_number(self, ratings_file):
        path = ratings_file(["u\ti", "loneitem"])
        with pytest.raises(ParseError, match="line 2"):
            dataset.parse_interactions(path)

    def test_empty_input_rejected(self, ratings_file):
        path = ratings_file([""])
        with pytest.raises(EmptyInputError):
            dataset.parse_interactions(path)

    def test_unknown_format_rejected(self, ratings_file):
        with pytest.raises(ContractError):
            dataset.parse_interactions(ratings_file(["u\ti"]), fmt="xml")

    def test_parse_is_deterministic(self, ratings_file):
        lines = [f"u{i % 7}\ti{(i * 3) % 11}" for i in range(40)]
        path = ratings_file(lines)
        a = dataset.parse_interactions(path)
        b = dataset.parse_interactions(path)
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)

    def test_items_ascending_within_user(self, ratings_file):
        path = ratings_file(["u\tz", "u\ta", "u\tm"])
        m = dataset.parse_interactions(path)
        items = m.user_items(0)
        assert (np.diff(items.astype(np.int64)) > 0).all()


class TestSplitHoldout:
    def _sized_matrix(self, sizes, seed=0):
        rng = np.random.default_rng(seed)
        rows = []
        for n in sizes:
            rows.append(sorted(rng.choice(1000, size=n, replace=False).tolist()))
        return make_matrix(rows, num_items=1000)

    def test_exact_apportionment_for_round_sizes(self):
        m = self._sized_matrix([10, 20])
        split = dataset.split_holdout(m, (0.7, 0.1, 0.2), seed=1)
        for u, n in ((0, 10), (1, 20)):
            assert split.user_items(u, TAG_TRAIN).size == int(0.7 * n)
            assert split.user_items(u, TAG_VAL).size == int(0.1 * n)
            assert split.user_items(u, TAG_TEST).size == int(0.2 * n)

    def test_largest_remainder_hand_cases(self):
        # With ratios (0.7, 0.1, 0.2): n=1 -> all train; n=2 -> 1 train +
        # 1 test (in binary floats 2*0.2 rounds just above 0.4 while 2*0.7
        # rounds just below 1.4, so test's remainder wins); n=3 -> 2 train
        # + 1 test (test's 0.6 remainder is largest).
        m = self._sized_matrix([1, 2, 3])
        split = dataset.split_holdout(m, (0.7, 0.1, 0.2), seed=2)
        expect = {0: (1, 0, 0), 1: (1, 0, 1), 2: (2, 0, 1)}
        for u, (tr, va, te) in expect.items():
            got = (split.user_items(u, TAG_TRAIN).size,
                   split.user_items(u, TAG_VAL).size,
                   split.user_items(u, TAG_TEST).size)
            assert got == (tr, va, te), f"user {u}: {got}"

    def test_every_user_keeps_a_train_item(self):
        rng = np.random.default_rng(3)
        sizes = rng.integers(1, 12, size=50).tolist()
        split = dataset.split_holdout(self._sized_matrix(sizes), (0.1, 0.4, 0.5),
                                      seed=3)
        for u in range(split.num_users):
            assert split.user_items(u, TAG_TRAIN).size >= 1

    def test_items_preserved_only_tags_change(self):
        m = self._sized_matrix([8, 15, 3])
        split = dataset.split_holdout(m, seed=4)
        for u in range(m.num_users):
            np.testing.assert_array_equal(m.user_items(u), split.user_items(u))

    def test_seed_determinism_and_variation(self):
        m = self._sized_matrix([30] * 20)
        a = dataset.split_holdout(m, seed=5)
        b = dataset.split_holdout(m, seed=5)
        c = dataset.split_holdout(m, seed=6)
        assert np.array_equal(a.tags, b.tags)
        assert not np.array_equal(a.tags, c.tags)

    def test_invalid_ratios(self):
        m = self._sized_matrix([5])
        for bad in ((0.5, 0.5), (0.7, 0.2, 0.2), (0.0, 0.5, 0.5),
                    (0.7, -0.1, 0.4)):
            with pytest.raises(ContractError):
                dataset.split_holdout(m, bad)

    def test_tag_counts_aggregate(self):
        m = self._sized_matrix([100] * 10)
        split = dataset.split_holdout(m, (0.7, 0.1, 0.2), seed=7)
        counts = split.tag_counts()
        assert counts == {"train": 700, "val": 100, "test": 200}


class TestViews:
    def _tagged(self):
        return make_matrix(
            [[0, 2, 5], [1, 2], [3]],
            num_items=6,
            tags=[[TAG_TRAIN, TAG_VAL, TAG_TEST], [TAG_TRAIN, TAG_TRAIN], [TAG_TEST]])

    def test_as_csr_selects_tags(self):
        m = self._tagged()
        train = dataset.as_csr(m)
        assert train.shape == (3, 6)
        np.testing.assert_array_equal(
            train.toarray(),
            [[1, 0, 0, 0, 0, 0], [0, 1, 1, 0, 0, 0], [0, 0, 0, 0, 0, 0]])
        both = dataset.as_csr(m, tags=(TAG_TRAIN, TAG_VAL))
        assert both.nnz == 4

    def test_dense_rows_matches_csr(self):
        m = self._tagged()
        dense = dataset.dense_rows(m, np.array([0, 2, 1]), tags=(TAG_TEST,))
        np.testing.assert_array_equal(
            dense,
            [[0, 0, 0, 0, 0, 1], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 0]])
        assert dense.dtype == np.float32

    def test_item_popularity(self):
        m = self._tagged()
        np.testing.assert_array_equal(dataset.item_popularity(m),
                                      [1, 1, 1, 0, 0, 0])

    def test_user_items_tag_filter(self):
        m = self._tagged()
        np.testing.assert_array_equal(m.user_items(0, TAG_VAL), [2])
        np.testing.assert_array_equal(m.user_items(0), [0, 2, 5])

    def test_users_with_tag_matches_per_user_loop(self):
        rng = np.random.default_rng(4)
        rows = [sorted(rng.choice(40, size=int(rng.integers(0, 6)), replace=False).tolist())
                for _ in range(60)]
        m = make_matrix(rows, num_items=40,
                        tags=[rng.integers(0, 3, size=len(r)).tolist() for r in rows])
        for tag in (TAG_TRAIN, TAG_VAL, TAG_TEST):
            want = [u for u in range(m.num_users) if m.user_items(u, tag).size]
            np.testing.assert_array_equal(dataset.users_with_tag(m, tag), want)
        np.testing.assert_array_equal(dataset.users_with_tag(self._tagged(), TAG_TEST), [0, 2])


class TestMatrixIO:
    def _matrix(self):
        m = make_matrix([[0, 3, 4], [1], [2, 3]], num_items=5)
        return dataset.split_holdout(m, seed=0)

    def test_round_trip_exact(self, tmp_path):
        m = self._matrix()
        path = tmp_path / "m.cfdm"
        dataset.save_matrix(path, m)
        loaded = dataset.load_matrix(path)
        assert (loaded.num_users, loaded.num_items) == (m.num_users, m.num_items)
        assert np.array_equal(loaded.indptr, m.indptr)
        assert np.array_equal(loaded.indices, m.indices)
        assert np.array_equal(loaded.tags, m.tags)

    def test_bytes_deterministic(self, tmp_path):
        m = self._matrix()
        a, b = tmp_path / "a.cfdm", tmp_path / "b.cfdm"
        dataset.save_matrix(a, m)
        dataset.save_matrix(b, m)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.cfdm"
        path.write_bytes(b"NOPE" + bytes(30))
        with pytest.raises(FormatError):
            dataset.load_matrix(path)

    def test_truncation_detected(self, tmp_path):
        m = self._matrix()
        path = tmp_path / "m.cfdm"
        dataset.save_matrix(path, m)
        (tmp_path / "cut.cfdm").write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError):
            dataset.load_matrix(tmp_path / "cut.cfdm")

    def test_version_mismatch(self, tmp_path):
        m = self._matrix()
        path = tmp_path / "m.cfdm"
        dataset.save_matrix(path, m)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        (tmp_path / "v99.cfdm").write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            dataset.load_matrix(tmp_path / "v99.cfdm")
