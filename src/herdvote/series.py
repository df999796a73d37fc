"""Return series: rescaling, and the binary and text forms of a series.

A run records one signed integer return per step after equilibration and
writes it once, as a length-prefixed binary file (little-endian uint64
count, then int64 values); `herdvote analyze` reads it into an
`array('q')` and sums windows of k steps in memory.  The text form, one
integer per line, is for people and other tools:
`write_returns_text(path, read_returns_binary(bin_path))`.
Standard library only: reading and rescaling a series loads neither NumPy
nor simulator code.  The writers take any sequence of integers; the
simulator's int64 NumPy array is copied through its buffer.
"""

from __future__ import annotations

import struct
import sys
from array import array
from collections.abc import Iterator
from operator import add

_TEXT_CHUNK = 1 << 13  # values per write in `write_returns_text`
_SWAP = sys.byteorder == "big"  # the files hold little-endian values


def _int64_array(series) -> array:
    """`series` as array('q'): a contiguous buffer of 8-byte integers, such
    as an int64 NumPy array, is copied whole, anything else value by value."""
    if isinstance(series, array) and series.typecode == "q":
        return series
    try:
        view = memoryview(series)
    except TypeError:
        return array("q", series)
    if view.itemsize != 8 or view.format not in ("q", "l") or not view.c_contiguous:
        return array("q", series)
    values = array("q")
    values.frombytes(view.cast("B"))
    return values


def window_sums(series, k: int) -> Iterator[int]:
    """The sums of non-overlapping windows of k consecutive returns, one at a
    time; the partial window at the end is dropped."""
    if k < 1:
        raise ValueError(f"window length must be >= 1, got {k}")
    values = _int64_array(series)
    n = (len(values) // k) * k
    sums = iter(values[0:n:k] if k > 1 else values)
    for offset in range(1, k):
        sums = map(add, sums, values[offset:n:k])
    return sums


def rescale_returns(series, k: int) -> array:
    """Sum non-overlapping windows of k consecutive returns; partial tail dropped."""
    return array("q", window_sums(series, k))


def write_returns_text(path, series) -> None:
    """One signed integer per line, LF endings."""
    values = _int64_array(series)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        # chunk by chunk: the text of a whole series is never in memory
        for start in range(0, len(values), _TEXT_CHUNK):
            fh.writelines(f"{v}\n" for v in values[start:start + _TEXT_CHUNK])


def read_returns_text(path) -> array:
    with open(path, "r", encoding="utf-8") as fh:
        return array("q", (int(line) for line in fh if line.strip()))


def write_returns_binary(path, series) -> None:
    """Length-prefixed binary: little-endian uint64 count, then int64 values."""
    values = _int64_array(series)
    if _SWAP:
        values = array("q", values)
        values.byteswap()
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(values)))
        fh.write(values)


def read_returns_binary(path) -> array:
    with open(path, "rb") as fh:
        return parse_returns_binary(fh.read())


def parse_returns_binary(data: bytes) -> array:
    """The series held by the bytes of a `write_returns_binary` file.

    The count must match the values that follow it exactly.
    """
    if len(data) < 8:
        raise ValueError(f"{len(data)} bytes hold no 8-byte count")
    (count,) = struct.unpack_from("<Q", data)
    held, extra = divmod(len(data) - 8, 8)
    if held != count or extra:
        raise ValueError(f"expected {count} values, file holds {len(data) - 8} bytes of values")
    values = array("q")
    values.frombytes(memoryview(data)[8:])
    if _SWAP:
        values.byteswap()
    return values
