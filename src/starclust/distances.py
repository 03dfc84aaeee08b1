"""The three dissimilarity matrices: warming-rate gap, variation gap, sign mismatch.

All matrices are exactly symmetric with a zero diagonal. Hamming distances are
integer counts widened to float in the shared matrix type.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .panel import TemperaturePanel
from .trends import TrendFit, panel_differences, sign_sequence

METRICS = ("slope", "diff", "hamming")
# Rows of pairwise gaps formed at once in diff_distance. A block's temporary
# holds _ROW_BLOCK x K x (T-1) doubles: 3.1 MB at K = 800, T = 122, which
# stays in cache, where 32 rows (24.8 MB) did not. Measured best of 1, 2, 4,
# 8 and 32 rows at K = 168 and K = 800.
_ROW_BLOCK = 4


@dataclass(frozen=True)
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
        if not np.all(np.isfinite(values)):
            raise ValidationError("distance matrix contains non-finite entries")
        if np.any(values < 0):
            raise ValidationError("distance matrix contains negative entries")
        if np.any(np.diagonal(values) != 0.0):
            raise ValidationError("distance matrix diagonal must be exactly zero")
        if not np.array_equal(values, values.T):
            raise ValidationError("distance matrix must be exactly symmetric")
        values.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.labels)


def slope_distance(trends: Sequence[TrendFit], ids: Sequence[str]) -> DistanceMatrix:
    """Absolute slope gap |b_i - b_j| between estimated warming rates."""
    if len(trends) != len(ids):
        raise ValidationError("one trend fit per id is required")
    slopes = np.array([fit.slope for fit in trends], dtype=float)
    values = np.abs(slopes[:, None] - slopes[None, :])
    np.fill_diagonal(values, 0.0)
    return DistanceMatrix(metric="slope", labels=tuple(ids), values=values)


def diff_distance(panel: TemperaturePanel) -> DistanceMatrix:
    """Euclidean distance between the first-difference series of two countries.

    Only the upper triangle is formed: each block of _ROW_BLOCK rows is
    compared with itself and the later rows, and the block is mirrored into
    the lower triangle. The temporary holds at most _ROW_BLOCK x K x (T-1)
    values. (b - a)**2 equals (a - b)**2 exactly and the sum over years runs
    in the same order for every pair, so the matrix is bit for bit the one a
    whole K x K x (T-1) tensor gives, and exactly symmetric. A distance that
    overflows is a NumericalError naming the country with the most of them.
    """
    diffs = panel_differences(panel)
    k = diffs.shape[0]
    values = np.empty((k, k))
    # Overflow (differences near the float range) is caught by the check below.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, k, _ROW_BLOCK):
            stop = start + _ROW_BLOCK
            gaps = diffs[start:stop, None, :] - diffs[None, start:, :]
            block = np.sqrt(np.einsum("ijt,ijt->ij", gaps, gaps))
            values[start:stop, start:] = block
            values[start:, start:stop] = block.T
    np.fill_diagonal(values, 0.0)
    overflows = ~np.isfinite(values)
    if overflows.any():
        worst = np.count_nonzero(overflows, axis=1).argmax()
        raise NumericalError(f"non-finite difference distances for {panel.ids[worst]}")
    return DistanceMatrix(metric="diff", labels=panel.ids, values=values)


def hamming_distance(signs: Sequence[np.ndarray], ids: Sequence[str]) -> DistanceMatrix:
    """Number of differing positions between equal-length binary sign strings."""
    if len(signs) != len(ids):
        raise ValidationError("one sign string per id is required")
    lengths = {len(s) for s in signs}
    if len(lengths) > 1:
        raise ValidationError(f"sign strings have mixed lengths: {sorted(lengths)}")
    bits = np.asarray(signs, dtype=float)
    if np.any((bits != 0.0) & (bits != 1.0)):
        raise ValidationError("sign strings must hold only 0 and 1")
    # Positions where i has 1 and j has 0, plus the reverse, without a
    # K x K x (T-1) tensor. Every partial sum is an integer count at most T,
    # exact in float64 below 2**53, so the product is the same in any
    # summation order BLAS picks, and the sum with its transpose is exactly
    # symmetric.
    ones_then_zeros = bits @ (1.0 - bits).T
    values = ones_then_zeros + ones_then_zeros.T
    return DistanceMatrix(metric="hamming", labels=tuple(ids), values=values)


def sign_distance(panel: TemperaturePanel) -> DistanceMatrix:
    """Hamming distance over the panel's change-sign strings."""
    bits = sign_sequence(panel_differences(panel))
    return hamming_distance(list(bits), panel.ids)
