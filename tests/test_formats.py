"""Every binary reader against damaged files: each artifact cut at every
byte offset, or with bytes appended, must raise FormatError rather than
any other exception."""

import numpy as np
import pytest

from conftest import make_matrix
from diffcf import dataset, graph, ndtensor as nd
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
