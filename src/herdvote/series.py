"""Return series: rescaling, and the binary and text forms of a series.

A run records one signed integer return per step after equilibration and
writes it once, as a length-prefixed binary file (little-endian uint64
count, then int64 values); `herdvote analyze` reads it and sums windows of
k steps in memory.  The text form, one integer per line, is for people and
other tools: `write_returns_text(path, read_returns_binary(bin_path))`.
NumPy only: reading and rescaling a series loads no simulator code.
"""

from __future__ import annotations

import struct

import numpy as np

_TEXT_CHUNK = 1 << 13  # values per write in `write_returns_text`


def rescale_returns(series: np.ndarray, k: int) -> np.ndarray:
    """Sum non-overlapping windows of k consecutive returns; partial tail dropped."""
    if k < 1:
        raise ValueError(f"window length must be >= 1, got {k}")
    series = np.asarray(series)
    n = (len(series) // k) * k
    return series[:n].reshape(-1, k).sum(axis=1)


def write_returns_text(path, series) -> None:
    """One signed integer per line, LF endings."""
    series = np.asarray(series)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        # chunk by chunk: the text of a whole series is never in memory
        for start in range(0, len(series), _TEXT_CHUNK):
            fh.writelines(f"{v}\n" for v in series[start:start + _TEXT_CHUNK].tolist())


def read_returns_text(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return np.array([int(line) for line in fh if line.strip()], dtype=np.int64)


def write_returns_binary(path, series) -> None:
    """Length-prefixed binary: little-endian uint64 count, then int64 values."""
    arr = np.asarray(series, dtype="<i8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(arr)))
        fh.write(arr.tobytes())


def read_returns_binary(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return parse_returns_binary(fh.read())


def parse_returns_binary(data: bytes) -> np.ndarray:
    """The series held by the bytes of a `write_returns_binary` file.

    The count must match the values that follow it exactly.
    """
    if len(data) < 8:
        raise ValueError(f"{len(data)} bytes hold no 8-byte count")
    (count,) = struct.unpack_from("<Q", data)
    held, extra = divmod(len(data) - 8, 8)
    if held != count or extra:
        raise ValueError(f"expected {count} values, file holds {len(data) - 8} bytes of values")
    return np.frombuffer(data, dtype="<i8", offset=8).astype(np.int64)
