"""Exception types shared across the package."""
from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np


class StarclustError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(StarclustError):
    """Bad input data or configuration: malformed files, gaps, contract violations."""


class NumericalError(StarclustError):
    """Numerical failure: non-finite values, degenerate systems that cannot be recovered."""


def undecodable(path: str | Path) -> ValidationError:
    """The error for a file that is not valid UTF-8, naming its first bad byte.

    Readers decode in chunks, so the offset a `UnicodeDecodeError` carries is
    not a file position; the file is decoded again here to find the line.
    """
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return ValidationError(f"{path}:{line}: not valid UTF-8 "
                               f"(byte 0x{data[exc.start]:02x})")
    return ValidationError(f"{path}: not valid UTF-8")


def allocate(shape: tuple[int, ...]) -> np.ndarray:
    """`np.empty(shape)` once `check_formable` passes it: under overcommit an
    array past physical memory can be allocated, and the process killed on use."""
    check_formable(shape)
    return np.empty(shape)


def check_formable(shape: tuple[int, ...]) -> None:
    """Raise a MemoryError, without allocating, if numpy cannot form a float64
    array of `shape` or the machine's physical memory cannot hold it."""
    nbytes = math.prod(shape) * np.dtype(float).itemsize
    if nbytes > np.iinfo(np.intp).max:
        raise MemoryError(f"Unable to allocate an array with shape {shape}: array is too big")
    if nbytes > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        raise MemoryError(f"Unable to allocate {nbytes / 2**30:.3g} GiB for an array "
                          f"with shape {shape} and data type float64")
