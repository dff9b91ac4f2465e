"""Little-endian binary container primitives (named float64 tensors with
explicit shapes) for feature and checkpoint files, and the atomic writer."""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from typing import BinaryIO

import numpy as np

MAX_RANK = 8   # the highest tensor rank a container holds


class ContainerError(ValueError):
    pass


@contextmanager
def atomic_open(path, mode: str = "wb", encoding: str | None = None):
    """Write ``path`` through a temporary sibling renamed over it at the end
    of the block; a missing directory raises FileNotFoundError naming it. A
    block that raises removes the sibling and leaves ``path`` as it was."""
    path = os.fspath(path)
    tmp = path + ".tmp"
    try:
        fh = open(tmp, mode, encoding=encoding)
    except FileNotFoundError:
        raise FileNotFoundError(f"no such directory: {os.path.dirname(path)}") from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def write_u32(fh: BinaryIO, value: int) -> None:
    fh.write(struct.pack("<I", value))


def read_u32(fh: BinaryIO) -> int:
    raw = fh.read(4)
    if len(raw) != 4:
        raise ContainerError("truncated file: expected u32")
    return struct.unpack("<I", raw)[0]


def write_named_tensor(fh: BinaryIO, name: str, array: np.ndarray) -> None:
    data = np.asarray(array, dtype="<f8")  # keeps a 0-d shape
    encoded = name.encode("utf-8")
    write_u32(fh, len(encoded))
    fh.write(encoded)
    write_u32(fh, data.ndim)
    for dim in data.shape:
        write_u32(fh, dim)
    fh.write(data.tobytes())


def read_exact(fh: BinaryIO, size: int, what: str) -> bytes:
    """``size`` bytes; a size past the end of the file raises ContainerError
    naming ``what`` before anything is allocated."""
    start = fh.tell()
    end = fh.seek(0, os.SEEK_END)
    fh.seek(start)
    if size > end - start:
        raise ContainerError(f"truncated {what}")
    return fh.read(size)


def read_named_tensor(fh: BinaryIO) -> tuple[str, np.ndarray]:
    name_len = read_u32(fh)
    name = read_exact(fh, name_len, "tensor name").decode("utf-8")
    rank = read_u32(fh)
    if rank > MAX_RANK:
        raise ContainerError(f"implausible tensor rank {rank} for {name!r}")
    shape = tuple(read_u32(fh) for _ in range(rank))
    raw = read_exact(fh, math.prod(shape) * 8, f"tensor data for {name!r}")
    return name, np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


def write_magic(fh: BinaryIO, magic: bytes, version: int = 1) -> None:
    fh.write(magic)
    write_u32(fh, version)


def read_magic(fh: BinaryIO, magic: bytes) -> int:
    raw = fh.read(len(magic))
    if raw != magic:
        raise ContainerError(f"bad magic: expected {magic!r}, got {raw!r}")
    return read_u32(fh)
