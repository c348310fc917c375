"""Every binary reader against damaged files: each artifact cut at every
byte offset, or with bytes appended, must raise FormatError rather than
any other exception, and so must an array of a dtype outside the
container's allowlist, a repeated or a missing array, a file of an older
format version, and a matrix file whose arrays hold values outside its
declared shape. Every writer replaces its file atomically: a write that
fails half-way leaves the old file as it was."""

import contextlib
import errno
import hashlib
import os
import struct

import numpy as np
import pytest

from conftest import UNHOLDABLE_SHAPES, container_bytes, make_matrix, with_empty_array
from diffcf import cli, dataset, errors, graph, ndtensor as nd
from diffcf.errors import FormatError, read_arrays


def write_matrix(path):
    dataset.save_matrix(path, make_matrix([[0, 2], [1], [0, 1, 3]], num_items=4))
    return dataset.load_matrix


def write_contexts(path):
    m = make_matrix([[0, 1, 4], [1, 2, 3], [1, 3, 4]], num_items=5)
    graph.save_contexts(path, graph.build_contexts(m, H=4))
    return graph.load_contexts


def write_checkpoint(path):
    params = {"w": np.ones((2, 3), np.float32), "b": np.zeros(4, np.float32)}
    nd.save_checkpoint(path, params, "a = 1\n", (5, 1e-4, 0.02, 1.0),
                       adam=nd.init_adam(params, lr=1e-3),
                       fit={"best_metric": 0.25, "best_epoch": 3, "stale": 1})
    return load_checkpoint


def load_checkpoint(path):
    return nd.load_checkpoint(path), nd.load_fit_state(path)


WRITERS = [write_matrix, write_contexts, write_checkpoint]
MAGICS = {write_matrix: b"CFDM", write_contexts: b"CFHC", write_checkpoint: b"CFCK"}


@pytest.mark.parametrize("write", WRITERS)
def test_every_cut_and_appended_bytes_raise_format_error(tmp_path, write):
    path = tmp_path / "artifact"
    load = write(path)
    whole = path.read_bytes()
    load(path)
    for damaged in [whole[:cut] for cut in range(len(whole))] + [whole + b"\0",
                                                                whole + b"junk"]:
        path.write_bytes(damaged)
        with pytest.raises(FormatError):
            load(path)


def saved_entries(write, path):
    """(load, magic, version, [(name, dtype code, values)]) of what `write`
    saves at `path`, for tests that rewrite it."""
    load = write(path)
    raw = path.read_bytes()
    (version,) = struct.unpack_from("<H", raw, 4)
    arrays = read_arrays(path, raw[:4], version, "artifact")
    return load, raw[:4], version, [(k, v.dtype.str, v) for k, v in arrays.items()]


def test_saved_entries_rebuild_the_same_bytes(tmp_path):
    for write in WRITERS:
        _, magic, version, entries = saved_entries(write, tmp_path / "artifact")
        assert magic == MAGICS[write]
        assert (tmp_path / "artifact").read_bytes() == container_bytes(magic, version, entries)


@pytest.mark.parametrize("code", ["|O8", "<c8", ">f4", "<f2"])
@pytest.mark.parametrize("write", WRITERS)
def test_dtype_outside_the_allowlist_is_format_error(tmp_path, write, code):
    path = tmp_path / "artifact"
    load, magic, version, entries = saved_entries(write, path)
    for at, (name, _, values) in enumerate(entries):
        bad = entries[:at] + [(name, code, values)] + entries[at + 1:]
        path.write_bytes(container_bytes(magic, version, bad))
        with pytest.raises(FormatError, match=f"artifact: array {name!r} has dtype"):
            load(path)


@pytest.mark.parametrize("write", WRITERS)
def test_duplicate_array_is_format_error(tmp_path, write):
    path = tmp_path / "artifact"
    load, magic, version, entries = saved_entries(write, path)
    for entry in entries:
        path.write_bytes(container_bytes(magic, version, entries + [entry]))
        with pytest.raises(FormatError, match=f"array {entry[0]!r} appears twice"):
            load(path)


@pytest.mark.parametrize("write", WRITERS)
def test_missing_array_is_format_error_naming_it(tmp_path, write):
    # Every array but the checkpoint's tensors, whose absence the model's
    # shape check reports (a contract error, exit 1).
    path = tmp_path / "artifact"
    load, magic, version, entries = saved_entries(write, path)
    required = [name for name, code, _ in entries
                if not (write is write_checkpoint and code == "<f4")]
    assert len(required) >= 4
    for name in required:
        path.write_bytes(container_bytes(magic, version,
                                         [e for e in entries if e[0] != name]))
        with pytest.raises(FormatError, match=f"artifact: array {name!r} is missing"):
            load(path)


@pytest.mark.parametrize("shape", UNHOLDABLE_SHAPES)
@pytest.mark.parametrize("write", WRITERS)
def test_shape_numpy_cannot_hold_is_format_error(tmp_path, write, shape):
    # None of these holds an element, so the file size does not bound them.
    path = tmp_path / "artifact"
    load, magic, version, entries = saved_entries(write, path)
    name = entries[0][0]
    path.write_bytes(with_empty_array(container_bytes(magic, version, entries[1:]),
                                      name, "<f8", shape))
    with pytest.raises(FormatError, match=f"artifact: array {name!r} of rank {len(shape)} "
                                          "has a shape numpy cannot hold"):
        load(path)


def test_matrix_of_a_shape_numpy_cannot_hold_exits_2(tmp_path, capsys):
    path = tmp_path / "matrix.cfdm"
    _, magic, version, entries = saved_entries(write_matrix, path)
    path.write_bytes(with_empty_array(container_bytes(magic, version, entries),
                                      "extra", "|u1", (0, 2**63)))
    assert cli.main(["train", "--data", str(tmp_path), "--out-dir", str(tmp_path / "run")]) == 2
    assert "array 'extra' of rank 2 has a shape numpy cannot hold" in capsys.readouterr().err


def matrix_version_1(indptr, indices, tags, num_items=3):
    """A matrix file as format version 1 laid it out: a fixed header, then
    the arrays."""
    return (b"CFDM" + struct.pack("<HQQQ", 1, len(indptr) - 1, num_items, len(indices))
            + np.asarray(indptr, "<u8").tobytes() + np.asarray(indices, "<u4").tobytes()
            + np.asarray(tags, "u1").tobytes())


def contexts_version_2(num_users, num_items, hops):
    """A context cache as format version 2 laid it out: a fixed header with
    the nonzeros per hop, then each hop's CSR arrays."""
    out = b"CFHC" + struct.pack("<HQQH", 2, num_users, num_items, max(hops))
    out += struct.pack(f"<{len(hops)}Q", *(a.nnz for a in hops.values()))
    for a in hops.values():
        out += (a.indptr.astype("<u8").tobytes() + a.indices.astype("<u4").tobytes()
                + a.data.astype("<f4").tobytes())
    return out


def checkpoint_version_2(path, params, config_text, schedule_fields):
    """A checkpoint as format version 2 laid it out: a header pinning the
    sha256 of a `.config` sidecar, the schedule, then named float32 tensors."""
    T, beta_min, beta_max, kind, scale = schedule_fields
    out = (b"CFCK" + struct.pack("<H", 2) + hashlib.sha256(config_text.encode()).digest()
           + struct.pack("<IddH", T, beta_min, beta_max, len(kind)) + kind.encode()
           + struct.pack("<dI", scale, len(params)))
    for name, arr in sorted(params.items()):
        out += struct.pack("<H", len(name)) + name.encode()
        out += struct.pack(f"<B{arr.ndim}Q", arr.ndim, *arr.shape) + arr.astype("<f4").tobytes()
    path.write_bytes(out)
    (path.parent / (path.name + ".config")).write_text(config_text)


def test_files_of_the_previous_version_are_refused(tmp_path, capsys):
    path = tmp_path / "matrix.cfdm"
    path.write_bytes(matrix_version_1([0, 2, 3], [0, 2, 1], [0, 2, 1]))
    with pytest.raises(FormatError, match="unsupported interaction matrix version 1"):
        dataset.load_matrix(path)
    assert cli.main(["train", "--data", str(tmp_path), "--out-dir", str(tmp_path / "run")]) == 2
    assert "unsupported interaction matrix version 1" in capsys.readouterr().err
    m = make_matrix([[0, 1, 4], [1, 2, 3], [1, 3, 4]], num_items=5)
    ctxs = graph.build_contexts(m, H=3)
    path = tmp_path / "ctx.cfhc"
    path.write_bytes(contexts_version_2(3, 5, ctxs.hops))
    with pytest.raises(FormatError, match="unsupported context cache version 2"):
        graph.load_contexts(path)
    path = tmp_path / "model.cfck"
    checkpoint_version_2(path, {"w": np.ones((2, 3), np.float32)}, "a = 1\n",
                         (5, 1e-4, 0.02, "linear", 1.0))
    for load in (nd.load_checkpoint, nd.load_fit_state):
        with pytest.raises(FormatError, match="unsupported checkpoint version 2"):
            load(path)
    assert cli.main(["evaluate", "--data", str(tmp_path), "--checkpoint", str(path)]) == 2
    assert "unsupported checkpoint version 2" in capsys.readouterr().err


def test_checkpoint_of_format_version_1_is_refused(tmp_path, capsys):
    # Version 1 stored the encoders and the decoder (outputs, inputs) and
    # Adam's hyperparameters as float32s. Read as a later version, a square
    # model (k == |items|) would load its codec transposed without any error.
    path = tmp_path / "old.cfck"
    write_checkpoint(path)
    whole = bytearray(path.read_bytes())
    assert struct.unpack_from("<H", whole, 4) == (4,)
    struct.pack_into("<H", whole, 4, 1)
    path.write_bytes(bytes(whole))
    with pytest.raises(FormatError, match="version 1"):
        nd.load_checkpoint(path)
    assert cli.main(["evaluate", "--data", str(tmp_path), "--checkpoint", str(path)]) == 2
    assert "unsupported checkpoint version 1" in capsys.readouterr().err


def test_fit_state_reads_only_the_fit_arrays(tmp_path, monkeypatch):
    path = tmp_path / "model.cfck"
    write_checkpoint(path)
    whole = path.read_bytes()
    read, array = [], errors.ExactReader.array

    def spy(self, dtype, count):
        read.append(array(self, dtype, count))
        return read[-1]

    monkeypatch.setattr(errors.ExactReader, "array", spy)
    assert nd.load_fit_state(path) == {"best_metric": 0.25, "best_epoch": 3, "stale": 1}
    assert [(a.dtype.str, a.size) for a in read] == [("<f8", 1), ("<i8", 1), ("<i8", 1)]
    nd.load_checkpoint(path)
    assert len(read) > 6
    # The arrays it skips are checked against the file size all the same.
    for damaged in [whole[:cut] for cut in range(len(whole))] + [whole + b"\0"]:
        path.write_bytes(damaged)
        with pytest.raises(FormatError):
            nd.load_fit_state(path)


class CutFile:
    """A file that fails, as a full disk would, once `limit` units are written."""

    def __init__(self, f, limit):
        self.f, self.left = f, limit

    def write(self, data):
        if not isinstance(data, str):
            data = memoryview(data).cast("B")
        if len(data) > self.left:
            self.f.write(data[:self.left])
            raise OSError(errno.ENOSPC, "disk full")
        self.left -= len(data)
        return self.f.write(data)


@pytest.mark.parametrize("write", WRITERS)
def test_write_failing_half_way_keeps_the_old_file(tmp_path, monkeypatch, write):
    path = tmp_path / "artifact"
    load = write(path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    atomic_write = errors.atomic_write

    @contextlib.contextmanager
    def failing_write(target, mode="wb"):
        with atomic_write(target, mode) as f:
            yield CutFile(f, len(before[os.path.basename(target)]) // 2)

    monkeypatch.setattr(errors, "atomic_write", failing_write)
    with pytest.raises(OSError, match="disk full"):
        write(path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    load(path)
    monkeypatch.undo()
    write(path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def hand_written_matrix(indptr, indices, tags, num_items=3):
    """A matrix file laid out byte by byte, bypassing `save_matrix`."""
    return container_bytes(b"CFDM", 2, [
        ("num_items", "<u8", np.uint64(num_items)), ("indptr", "<u8", indptr),
        ("indices", "<u4", indices), ("tags", "|u1", tags)])


def test_matrix_layout(tmp_path):
    m = make_matrix([[0, 2], [1]], num_items=3)
    dataset.save_matrix(tmp_path / "matrix.cfdm", m)
    assert (tmp_path / "matrix.cfdm").read_bytes() == hand_written_matrix(
        [0, 2, 3], [0, 2, 1], [0, 0, 0])


MALFORMED_MATRICES = {
    "item id past the catalog": ([0, 2, 3], [0, 7, 1], [0, 0, 0]),
    "offsets start above 0": ([1, 2, 3], [0, 1, 2], [0, 0, 0]),
    "offsets decrease": ([0, 3, 2], [0, 1], [0, 0]),
    "offsets end short": ([0, 1, 2], [0, 1, 2], [0, 0, 0]),
    "split tag 3": ([0, 2, 3], [0, 1, 2], [0, 3, 0]),
}


def test_hand_written_matrix_loads(tmp_path):
    path = tmp_path / "matrix.cfdm"
    path.write_bytes(hand_written_matrix([0, 2, 3], [0, 2, 1], [0, 2, 1]))
    m = dataset.load_matrix(path)
    assert (m.num_users, m.num_items) == (2, 3)
    assert m.user_items(0).tolist() == [0, 2] and m.user_items(1, tag=1).tolist() == [1]


@pytest.mark.parametrize("arrays", MALFORMED_MATRICES.values(), ids=MALFORMED_MATRICES)
def test_matrix_values_outside_its_shape_raise_format_error(tmp_path, capsys, arrays):
    path = tmp_path / "matrix.cfdm"
    path.write_bytes(hand_written_matrix(*arrays))
    with pytest.raises(FormatError, match="matrix.cfdm"):
        dataset.load_matrix(path)
    rc = cli.main(["train", "--data", str(tmp_path), "--out-dir", str(tmp_path / "run")])
    assert rc == 2
    assert "diffcf: error: format:" in capsys.readouterr().err
