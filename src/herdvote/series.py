"""Return series: rescaling, and the binary and text forms of a series.

A run records one signed integer return per step after equilibration and
writes it once, as a length-prefixed binary file (little-endian uint64
count, then int64 values).  A series is held once: the writers view the
simulator's int64 NumPy array (or any contiguous buffer of 8-byte
integers) in place, and the binary readers return a read-only int64
memoryview of the bytes read, which `herdvote analyze` sums in windows of
k steps through one iterator.  The text form, one integer per line, is for
people and other tools:
`write_returns_text(path, read_returns_binary(bin_path))`.
Standard library only: reading and rescaling a series loads neither NumPy
nor simulator code.  The writers take any sequence of integers; one that
is not such a buffer is copied into an `array('q')`.
"""

from __future__ import annotations

import struct
import sys
from array import array
from collections.abc import Iterator
from operator import add

from .config import _index

_TEXT_CHUNK = 1 << 13  # values per write in `write_returns_text`
_SWAP = sys.byteorder == "big"  # the files hold little-endian values


def _int64_view(series) -> memoryview:
    """`series` as a 'q' memoryview: a contiguous buffer of 8-byte integers,
    such as an array('q') or an int64 NumPy array, is viewed in place,
    anything else copied value by value."""
    try:
        view = memoryview(series)
    except TypeError:
        return memoryview(array("q", series))
    if view.itemsize != 8 or view.format not in ("q", "l") or not view.c_contiguous:
        return memoryview(array("q", series))
    return view.cast("B").cast("q")


def _byteswapped(values) -> memoryview:
    """A copy of int64 `values` with the bytes of each value reversed."""
    swapped = array("q", values)
    swapped.byteswap()
    return memoryview(swapped)


def window_sums(series, k: int) -> Iterator[int]:
    """The sums of non-overlapping windows of k consecutive returns, one at a
    time; the partial window at the end is dropped.

    Each `map(add, left, right)` below takes one sum from `left`, then one
    from `right`, off a single iterator of the series, so it sums the next
    window of their two lengths together.  Halving the window length gives a
    tree of at most two maps per level, ceil(log2 k) deep.
    """
    k = _index("window length", k)
    if k < 1:
        raise ValueError(f"window length must be >= 1, got {k}")
    sums = {1: iter(_int64_view(series))}  # window length -> its sums

    def of_length(length: int) -> Iterator[int]:
        if length not in sums:
            half = length // 2
            sums[length] = map(add, of_length(half), of_length(length - half))
        return sums[length]

    return of_length(k)


def rescale_returns(series, k: int) -> array:
    """Sum non-overlapping windows of k consecutive returns; partial tail dropped."""
    return array("q", window_sums(series, k))


def write_returns_text(path, series) -> None:
    """One signed integer per line, LF endings."""
    values = _int64_view(series)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        # chunk by chunk: the text of a whole series is never in memory
        for start in range(0, len(values), _TEXT_CHUNK):
            fh.writelines(f"{v}\n" for v in values[start:start + _TEXT_CHUNK])


def read_returns_text(path) -> array:
    with open(path, "r", encoding="utf-8") as fh:
        return array("q", (int(line) for line in fh if line.strip()))


def write_returns_binary(path, series) -> None:
    """Length-prefixed binary: little-endian uint64 count, then int64 values."""
    values = _int64_view(series)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(values)))
        fh.write(_byteswapped(values) if _SWAP else values)


def read_returns_binary(path) -> memoryview:
    with open(path, "rb") as fh:
        return parse_returns_binary(fh.read())


def parse_returns_binary(data) -> memoryview:
    """The series held by the bytes of a `write_returns_binary` file, as a
    read-only int64 view of `data` (a copy only on big-endian hosts).

    The count must match the values that follow it exactly.
    """
    if len(data) < 8:
        raise ValueError(f"{len(data)} bytes hold no 8-byte count")
    (count,) = struct.unpack_from("<Q", data)
    held, extra = divmod(len(data) - 8, 8)
    if held != count or extra:
        raise ValueError(f"expected {count} values, file holds {len(data) - 8} bytes of values")
    values = memoryview(data)[8:].cast("q")
    return (_byteswapped(values) if _SWAP else values).toreadonly()
