"""The three dissimilarity matrices: warming-rate gap, variation gap, sign mismatch.

All matrices are exactly symmetric with a zero diagonal. Hamming distances are
integer counts widened to float in the shared matrix type. Each matrix is
formed in its own output array and checked without a K x K temporary, so
building one holds a single 8K^2-byte matrix.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .panel import TemperaturePanel
from .trends import panel_differences, sign_sequence

METRICS = ("slope", "diff", "hamming")
# Rows compared at once in the symmetry check (a _SYMMETRY_BLOCK x K bool).
_SYMMETRY_BLOCK = 64


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric nonnegative dissimilarities over an ordered label subset."""

    metric: str
    labels: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.metric not in METRICS:
            raise ValidationError(f"unknown metric {self.metric!r}; expected one of {METRICS}")
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", tuple(self.labels))
        k = len(self.labels)
        if values.shape != (k, k):
            raise ValidationError(f"distance matrix shape {values.shape} does not match {k} labels")
        if len(set(self.labels)) != k:
            raise ValidationError("distance labels must be unique")
        # min() and max() carry NaN, so neither check needs a K x K temporary.
        low, high = (values.min(), values.max()) if k else (0.0, 0.0)
        if not (np.isfinite(low) and np.isfinite(high)):
            raise ValidationError("distance matrix contains non-finite entries")
        if low < 0:
            raise ValidationError("distance matrix contains negative entries")
        if np.any(np.diagonal(values) != 0.0):
            raise ValidationError("distance matrix diagonal must be exactly zero")
        for start in range(0, k, _SYMMETRY_BLOCK):
            stop = start + _SYMMETRY_BLOCK
            if not np.array_equal(values[start:stop, start:], values[start:, start:stop].T):
                raise ValidationError("distance matrix must be exactly symmetric")
        values.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.labels)


def slope_distance(slopes: np.ndarray, ids: Sequence[str]) -> DistanceMatrix:
    """Absolute slope gap |b_i - b_j| between estimated warming rates."""
    if len(slopes) != len(ids):
        raise ValidationError("one slope per id is required")
    slopes = np.asarray(slopes, dtype=float)
    values = np.subtract.outer(slopes, slopes)
    np.abs(values, out=values)
    np.fill_diagonal(values, 0.0)
    return DistanceMatrix(metric="slope", labels=tuple(ids), values=values)


def diff_distance(panel: TemperaturePanel) -> DistanceMatrix:
    """Euclidean distance between the first-difference series of two countries.

    Only the upper triangle is formed: each row is compared with itself and
    the later rows, and the row is mirrored into the lower triangle. The gaps
    go to one buffer of K x (T-1) values, reused by every row: 0.77 MB at
    K = 800, T = 122. (b - a)**2 equals (a - b)**2 exactly and the sum over
    years runs in the same order for every pair, so the matrix is bit for
    bit the one a whole K x K x (T-1) tensor gives, and exactly symmetric.
    A distance that overflows is a NumericalError naming the country with
    the most of them.
    """
    diffs = panel_differences(panel)
    k = diffs.shape[0]
    values = np.empty((k, k))
    buffer = np.empty((k, diffs.shape[1]))
    # Overflow (differences near the float range) is caught by the check below.
    with np.errstate(over="ignore", invalid="ignore"):
        for row in range(k):
            gaps = np.subtract(diffs[row], diffs[row:], out=buffer[:k - row])
            line = np.einsum("jt,jt->j", gaps, gaps)
            np.sqrt(line, out=line)
            values[row, row:] = line
            values[row:, row] = line
    np.fill_diagonal(values, 0.0)
    if k and not np.isfinite(values.max()):
        worst = np.count_nonzero(~np.isfinite(values), axis=1).argmax()
        raise NumericalError(f"non-finite difference distances for {panel.ids[worst]}")
    return DistanceMatrix(metric="diff", labels=panel.ids, values=values)


def hamming_distance(signs: Sequence[np.ndarray] | np.ndarray,
                     ids: Sequence[str]) -> DistanceMatrix:
    """Number of differing positions between equal-length binary sign strings,
    given as a sequence or as the rows of an N x T array."""
    if len(signs) != len(ids):
        raise ValidationError("one sign string per id is required")
    lengths = {len(s) for s in signs}
    if len(lengths) > 1:
        raise ValidationError(f"sign strings have mixed lengths: {sorted(lengths)}")
    bits = np.array(signs, dtype=float).reshape(len(ids), max(lengths, default=0))
    if np.any((bits != 0.0) & (bits != 1.0)):
        raise ValidationError("sign strings must hold only 0 and 1")
    # Mismatches n1_i + n1_j - 2 (B B')_ij, from the ones each string holds
    # and the ones two strings share, formed in place in the product's output.
    # Every partial sum and every term is an integer count at most 2T, exact
    # in float64 below 2**53, so the product is the same in any summation
    # order BLAS picks, the matrix is exactly symmetric, and it equals the
    # count of positions where i has 1 and j has 0, plus the reverse.
    ones = bits.sum(axis=1)
    values = bits @ bits.T
    values *= -2.0
    values += ones[:, None]
    values += ones[None, :]
    return DistanceMatrix(metric="hamming", labels=tuple(ids), values=values)


def sign_distance(panel: TemperaturePanel) -> DistanceMatrix:
    """Hamming distance over the panel's change-sign strings."""
    bits = sign_sequence(panel_differences(panel))
    return hamming_distance(bits, panel.ids)
