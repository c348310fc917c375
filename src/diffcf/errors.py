"""Shared error taxonomy, and the one on-disk container of the binary
artifacts.

Every failure the package raises deliberately goes through one of these
classes so the CLI can map it to an exit code and a stable stderr prefix.

The interaction matrix, the context cache and the checkpoint are each a
file of named arrays (`write_arrays`/`read_arrays`): a 4-byte magic, a
little-endian u16 format version and u32 array count, then per array its
name (u16 length, UTF-8), its dtype (3 ASCII bytes from `DTYPES`), its
rank (u8) and shape (u64 each), and its little-endian bytes. A file can
name only the dtypes of `DTYPES`, never an object dtype, and every length
is checked against the file size before a buffer is allocated.
"""

import math
import os
import struct
from contextlib import contextmanager, suppress

import numpy as np


class DiffcfError(Exception):
    """Base class for all deliberate failures. ``category`` feeds the CLI's
    machine-parsable stderr line."""

    category = "error"


class ContractError(DiffcfError):
    """An argument or configuration violates a documented precondition."""

    category = "contract"


class ShapeError(ContractError):
    """Operands passed to a tensor op have incompatible shapes."""

    category = "shape"


class NumericError(DiffcfError):
    """A computation produced NaN/Inf or hit a guarded singularity."""

    category = "numeric"


class ParseError(DiffcfError):
    """An input file is malformed. Carries a 1-based line number when known."""

    category = "parse"

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class EmptyInputError(ParseError):
    """An input file contained no usable records."""

    category = "empty-input"


class FormatError(DiffcfError):
    """A binary artifact has a bad magic, version, or structure."""

    category = "format"


class ExactReader:
    """Reads a binary artifact field by field. A field the file is too
    short for, or bytes left over at `end`, raise FormatError naming the
    byte offset; sizes are checked against the file length before any
    buffer is allocated, so a corrupt length field cannot ask for one."""

    def __init__(self, f, path):
        self.f, self.path = f, path
        self.size = os.fstat(f.fileno()).st_size

    def _fill(self, make, n: int):
        at = self.f.tell()
        if n <= self.size - at:
            if make is None:
                return self.f.seek(n, os.SEEK_CUR)
            buf = make()
            if self.f.readinto(buf) == n:
                return buf
        raise FormatError(f"{self.path}: truncated: {n} bytes wanted at byte {at} "
                          f"of {self.size}")

    def read(self, n: int) -> bytes:
        return bytes(self._fill(lambda: bytearray(n), n))

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.read(struct.calcsize(fmt)))

    def text(self, n: int) -> str:
        try:
            return self.read(n).decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{self.path}: text field before byte {self.f.tell()} "
                              "is not UTF-8") from None

    def array(self, dtype, count: int) -> np.ndarray:
        dtype = np.dtype(dtype)
        return self._fill(lambda: np.empty(count, dtype), dtype.itemsize * count)

    def skip(self, n: int) -> None:
        self._fill(None, n)

    def end(self) -> None:
        at = self.f.tell()
        if at != self.size:
            raise FormatError(f"{self.path}: {self.size - at} trailing bytes after byte {at}")


@contextmanager
def atomic_write(path, mode: str = "wb"):
    """Yields a file opened on a temporary file beside `path`, and renames
    it over `path` once the block ends. If the block raises, the temporary
    file is removed and `path` keeps its old contents. This guards against
    a failing writer or a killed process, not against power loss (nothing
    is fsynced)."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


DTYPES = ("<f4", "<f8", "<i4", "<i8", "<u4", "<u8", "|u1")


def write_arrays(path, magic: bytes, version: int, arrays: dict[str, np.ndarray]) -> None:
    """Writes `arrays` in the container layout, atomically; the same
    arrays give the same bytes."""
    with atomic_write(path) as f:
        f.write(magic + struct.pack("<HI", version, len(arrays)))
        for name, arr in arrays.items():
            arr, nb = np.asarray(arr), name.encode("utf-8")
            code = arr.dtype.newbyteorder("<").str
            if code not in DTYPES:
                raise ContractError(f"array {name!r}: dtype {arr.dtype} is not one of {DTYPES}")
            f.write(struct.pack(f"<H{len(nb)}s3sB{arr.ndim}Q", len(nb), nb, code.encode(),
                                arr.ndim, *arr.shape))
            f.write(np.ascontiguousarray(arr, dtype=code).reshape(-1))


def read_arrays(path, magic: bytes, version: int, what: str, keep=None) -> dict[str, np.ndarray]:
    """The arrays of a container file whose magic marks `what`, in file
    order; only those named in `keep` when it is given, the others being
    checked alike and skipped. A bad magic or version, a dtype outside
    `DTYPES`, a repeated name, a shape numpy cannot hold, and a cut or
    padded file are FormatErrors naming `path`."""
    with open(path, "rb") as f:
        r = ExactReader(f, path)
        if r.read(len(magic)) != magic:
            raise FormatError(f"{path}: not a {what} file (bad magic)")
        (found,) = r.unpack("<H")
        if found != version:
            raise FormatError(f"{path}: unsupported {what} version {found}; "
                              f"this build reads version {version}")
        arrays: dict[str, np.ndarray] = {}
        seen: set[str] = set()
        for _ in range(r.unpack("<I")[0]):
            name = r.text(r.unpack("<H")[0])
            code = r.read(3).decode("ascii", "replace")
            if code not in DTYPES:
                raise FormatError(f"{path}: array {name!r} has dtype {code!r}, "
                                  f"not one of {' '.join(DTYPES)}")
            if name in seen:
                raise FormatError(f"{path}: array {name!r} appears twice")
            seen.add(name)
            shape = r.unpack(f"<{r.unpack('<B')[0]}Q")
            # numpy 1's rank limit, and the byte limit an empty array also obeys.
            if (len(shape) > 32
                    or math.prod(filter(None, shape)) * np.dtype(code).itemsize >= 2**63):
                raise FormatError(f"{path}: array {name!r} of rank {len(shape)} has a shape "
                                  "numpy cannot hold")
            if keep is None or name in keep:
                arrays[name] = r.array(code, math.prod(shape)).reshape(shape)
            else:
                r.skip(np.dtype(code).itemsize * math.prod(shape))
        r.end()
    return arrays


def get_array(arrays: dict[str, np.ndarray], path, name: str, dtype: str,
              shape: tuple = (None,)) -> np.ndarray:
    """`arrays[name]`, which must be of `dtype` and `shape` (None matches
    any length), or a FormatError naming `path` and the array."""
    arr = arrays.get(name)
    if arr is None:
        raise FormatError(f"{path}: array {name!r} is missing")
    if arr.dtype.str != dtype or arr.ndim != len(shape) or any(
            want not in (None, got) for want, got in zip(shape, arr.shape)):
        raise FormatError(f"{path}: array {name!r} is {arr.dtype.str} of shape {arr.shape}, "
                          f"not {dtype} of shape {shape}")
    return arr
