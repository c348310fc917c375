"""Every binary reader against damaged files: each artifact cut at every
byte offset, or with bytes appended, must raise FormatError rather than
any other exception, and so must a matrix file whose arrays hold values
outside its declared shape. Every writer replaces its file atomically:
a write that fails half-way leaves the old file as it was."""

import contextlib
import errno
import os
import struct
import sys

import numpy as np
import pytest

from conftest import make_matrix
from diffcf import cli, dataset, graph, ndtensor as nd
from diffcf.errors import FormatError


def write_matrix(path):
    dataset.save_matrix(path, make_matrix([[0, 2], [1], [0, 1, 3]], num_items=4))
    return dataset.load_matrix


def write_contexts(path):
    m = make_matrix([[0, 1, 4], [1, 2, 3], [1, 3, 4]], num_items=5)
    graph.save_contexts(path, graph.build_contexts(m, H=4))
    return graph.load_contexts


def write_checkpoint(path):
    params = {"w": np.ones((2, 3), np.float32), "b": np.zeros(4, np.float32)}
    nd.save_checkpoint(path, params, "a = 1\n", (5, 1e-4, 0.02, "linear", 1.0),
                       adam=nd.init_adam(params, lr=1e-3))
    return nd.load_checkpoint


@pytest.mark.parametrize("write", [write_matrix, write_contexts, write_checkpoint])
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


def test_checkpoint_of_format_version_1_is_refused(tmp_path, capsys):
    # Version 1 stored the encoders and the decoder (outputs, inputs) and
    # Adam's hyperparameters as float32s. Read as version 2, a square model
    # (k == |items|) would load its codec transposed without any error.
    path = tmp_path / "old.cfck"
    write_checkpoint(path)
    whole = bytearray(path.read_bytes())
    assert struct.unpack_from("<H", whole, 4) == (2,)
    struct.pack_into("<H", whole, 4, 1)
    path.write_bytes(bytes(whole))
    with pytest.raises(FormatError, match="version 1"):
        nd.load_checkpoint(path)
    assert cli.main(["evaluate", "--data", str(tmp_path), "--checkpoint", str(path)]) == 2
    assert "unsupported checkpoint version 1" in capsys.readouterr().err


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


@pytest.mark.parametrize("write", [write_matrix, write_contexts, write_checkpoint])
def test_write_failing_half_way_keeps_the_old_file(tmp_path, monkeypatch, write):
    path = tmp_path / "artifact"
    load = write(path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    module = sys.modules[load.__module__]
    atomic_write = module.atomic_write

    @contextlib.contextmanager
    def failing_write(target, mode="wb"):
        with atomic_write(target, mode) as f:
            yield CutFile(f, len(before[os.path.basename(target)]) // 2)

    monkeypatch.setattr(module, "atomic_write", failing_write)
    with pytest.raises(OSError, match="disk full"):
        write(path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    load(path)
    monkeypatch.undo()
    write(path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def hand_written_matrix(indptr, indices, tags, num_items=3):
    """A matrix file laid out byte by byte, bypassing `save_matrix`."""
    return (b"CFDM" + struct.pack("<HQQQ", 1, len(indptr) - 1, num_items, len(indices))
            + np.asarray(indptr, "<u8").tobytes() + np.asarray(indices, "<u4").tobytes()
            + np.asarray(tags, "u1").tobytes())


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
