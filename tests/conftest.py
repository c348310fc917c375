"""Shared fixtures and reporting hooks for the test suite.

Acceptance tests record a one-line verdict per criterion through
`record_acceptance`; the terminal-summary hook replays those lines at
the end of the run so they are visible even when pytest captures stdout.
The whole-batch corruption and reverse-conditional mean below are the
reference the row-wise forms in `diffcf.schedule` are held to.
"""

import struct

import numpy as np
import pytest

from diffcf import camae, dataset, ndtensor as nd
from diffcf.schedule import NoiseSchedule, _check_t, _posterior_coefs

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def _cols(coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Shape a per-timestep coefficient so it scales rows of a batch."""
    if coef.ndim == 0 or x.ndim == 1:
        return coef
    return coef.reshape(-1, 1)


def diffuse_to(u0: np.ndarray, t, sched: NoiseSchedule,
               noise: np.ndarray) -> np.ndarray:
    """Jump straight to step t: sqrt(abar_t) * u0 + sqrt(1-abar_t) * eps."""
    u0 = np.asarray(u0)
    t = _check_t(t, sched.T)
    ab = sched.alpha_bars[t]
    out = _cols(np.sqrt(ab), u0) * u0 + _cols(np.sqrt(1.0 - ab), u0) * noise
    return out.astype(u0.dtype)


def posterior_mean(u_t: np.ndarray, u0: np.ndarray, t,
                   sched: NoiseSchedule) -> np.ndarray:
    """Mean of the exact reverse conditional given the clean signal.

    (sqrt(abar_{t-1}) * beta_t * u0 + sqrt(alpha_t) * (1 - abar_{t-1}) * u_t)
    divided by (1 - abar_t). At t = 1 this collapses to u0 exactly.
    """
    u_t = np.asarray(u_t)
    c0, c1 = _posterior_coefs(_check_t(t, sched.T), sched)
    out = _cols(c0, u_t) * np.asarray(u0) + _cols(c1, u_t) * u_t
    return out.astype(u_t.dtype)


def _bound_forward(params, config, u_t, contexts, t, trainable):
    tape = nd.Tape()
    leaves = {name: tape.leaf(value, trainable=trainable) for name, value in params.items()}
    t = np.full(len(u_t), t, dtype=np.int64) if np.isscalar(t) else np.asarray(t)
    return tape, leaves, camae.camae_forward(tape, leaves, config, u_t, contexts, t)


def trainable_forward(params, config, u_t, contexts, t):
    """Record the denoiser on a fresh tape with every parameter bound as a
    trainable leaf, as `train.train_step` binds them; a scalar `t` applies
    to every row. Returns (tape, {param name: leaf node}, output node)."""
    return _bound_forward(params, config, u_t, contexts, t, trainable=True)


def inference_forward(params, config, u_t, contexts, t):
    """As `trainable_forward`, with the parameters bound as plain leaves,
    as `eval.denoise_infer` binds them: the tape keeps no node at all."""
    return _bound_forward(params, config, u_t, contexts, t, trainable=False)


def container_bytes(magic: bytes, version: int, entries) -> bytes:
    """An artifact in the container layout, spelled out byte by byte from
    (name, dtype code, values) triples: magic, u16 version, u32 count, then
    per array its u16-prefixed name, 3-byte dtype, u8 rank, u64 shape and
    bytes. The dtype code (3 characters) is written as given, so a test can
    ask for one the readers refuse, such as "|O8" or "<c8"."""
    out = magic + struct.pack("<HI", version, len(entries))
    for name, code, values in entries:
        values = np.asarray(values)
        raw = name.encode()
        out += struct.pack("<H", len(raw)) + raw + code.encode()
        out += struct.pack(f"<B{values.ndim}Q", values.ndim, *values.shape)
        out += values.astype(code).tobytes()
    return out


def with_empty_array(raw: bytes, name: str, code: str, shape: tuple[int, ...]) -> bytes:
    """Container bytes `raw` with one more array appended: `name` of dtype
    `code`, declaring `shape` (whose product must be 0, so no bytes
    follow). The header is written as given, so a test can declare a rank
    or a shape numpy cannot make."""
    out = bytearray(raw)
    struct.pack_into("<I", out, 6, struct.unpack_from("<I", out, 6)[0] + 1)
    nb = name.encode()
    return bytes(out) + struct.pack(f"<H{len(nb)}s3sB{len(shape)}Q", len(nb), nb,
                                    code.encode(), len(shape), *shape)


# Shapes of no elements that numpy cannot make; the dims are <f8's.
UNHOLDABLE_SHAPES = [(0,) * 33, (0,) * 255, (0, 2**63), (0, 2**64 - 1), (0, 2**60),
                     (3, 0, 2**61)]


def make_matrix(user_items: list[list[int]], num_items: int | None = None,
                tags: list[list[int]] | None = None) -> dataset.InteractionMatrix:
    """Build an InteractionMatrix from per-user item lists (sorted for you)."""
    order = [np.argsort(items, kind="stable") for items in user_items]
    indptr = np.zeros(len(user_items) + 1, dtype=np.uint64)
    np.cumsum([len(r) for r in user_items], out=indptr[1:])
    indices = np.concatenate(
        [np.asarray(items, dtype=np.uint32)[o] for items, o in zip(user_items, order)]
        or [np.empty(0, dtype=np.uint32)])
    if tags is None:
        tag_arr = np.zeros(indices.size, dtype=np.uint8)
    else:
        tag_arr = np.concatenate(
            [np.asarray(t, dtype=np.uint8)[o] for t, o in zip(tags, order)])
    if num_items is None:
        num_items = int(indices.max()) + 1 if indices.size else 1
    return dataset.InteractionMatrix(len(user_items), num_items, indptr,
                                     indices, tag_arr)


@pytest.fixture
def ratings_file(tmp_path):
    """Factory writing an interactions file and returning its path."""

    def write(lines: list[str], name: str = "ratings.txt"):
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    return write
