"""Shared error taxonomy, and the exact reader and atomic writer of
binary artifacts.

Every failure the package raises deliberately goes through one of these
classes so the CLI can map it to an exit code and a stable stderr prefix.
"""

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
