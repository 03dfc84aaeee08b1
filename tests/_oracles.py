"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: explicit normal equations, a trend
fit that fits one country at a time, O(K^3)
linkage re-scans over the raw distance matrix, brute-force distance loops, a
differenced-series distance that forms both triangles, slope and Hamming
distances through whole K x K temporaries, a linkage that caches each row's
nearest neighbour and always works on a reordered copy of its matrix,
pure-Python forecast
recursions, a bootstrap that materialises the full reps x periods index
matrix, one that resamples year-major observations in whole-year blocks, a
model confidence set that rebuilds every pair's bootstrap terms in each
round, a row-by-row panel CSV reader, and a STAR fit that solves one
country's equation at a time.
"""
from __future__ import annotations

import csv
import itertools
import math
import warnings
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import stats

from starclust.clustering import Dendrogram, Merge
from starclust.distances import DistanceMatrix
from starclust.errors import NumericalError, ValidationError
from starclust.evaluation import ALPHA, LossSeries, McsReport, _start_chunks
from starclust.panel import _LONG_HEADER, TemperaturePanel, _parse_temperature
from starclust.star import EquationFit
from starclust.trends import TrendFit, panel_differences, student_t_sf2
from starclust.weights import WeightMatrix


def ols_normal_equations(design: np.ndarray, response: np.ndarray) -> np.ndarray:
    """Solve the least-squares problem via (X'X)^{-1} X'y explicitly."""
    xtx = design.T @ design
    xty = design.T @ response
    return np.linalg.solve(xtx, xty)


def trend_stats(series: np.ndarray) -> dict:
    """Linear trend on t = 1..T with classical OLS inference."""
    y = np.asarray(series, dtype=float)
    n = len(y)
    t = np.arange(1, n + 1, dtype=float)
    design = np.column_stack([np.ones(n), t])
    intercept, slope = ols_normal_equations(design, y)
    resid = y - design @ np.array([intercept, slope])
    s2 = float(resid @ resid) / (n - 2)
    cov = s2 * np.linalg.inv(design.T @ design)
    se = float(np.sqrt(cov[1, 1]))
    tstat = slope / se if se > 0 else np.inf * np.sign(slope)
    p = 2 * stats.t.sf(abs(tstat), n - 2)
    return {"intercept": float(intercept), "slope": float(slope), "se": se,
            "t": float(tstat), "p": float(p)}


# Per-series trend fit: `fit_linear_trend` and the loop that called it, as
# `starclust.trends.fit_panel_trends` was before it fitted every row in
# one array pass (verbatim, the loop renamed).

def fit_linear_trend(series: np.ndarray, alpha: float = 0.05) -> TrendFit:
    """Fit temperature = intercept + slope * t + noise with t = 1..T.

    Parameters
    ----------
    series : array of length T >= 3
        Annual temperatures for one country.
    alpha : float
        Two-sided significance level used to set the `significant` flag.

    Returns
    -------
    TrendFit with classical OLS slope standard error and a two-sided p-value
    from Student's t on T - 2 degrees of freedom.
    """
    y = np.asarray(series, dtype=float)
    if y.ndim != 1:
        raise ValidationError("series must be one-dimensional")
    n = y.shape[0]
    if n < 3:
        raise ValidationError(f"trend fit needs at least 3 observations, got {n}")
    if not (0.0 < alpha < 1.0):
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")

    t = np.arange(1, n + 1, dtype=float)
    t_centered = t - t.mean()
    sxx = float(t_centered @ t_centered)
    # Overflow (values near the float range) is caught by the check below.
    with np.errstate(over="ignore", invalid="ignore"):
        slope = float(t_centered @ (y - y.mean())) / sxx
        intercept = float(y.mean() - slope * t.mean())
        residuals = y - intercept - slope * t
        ssr = float(residuals @ residuals)
    df = n - 2
    s2 = ssr / df
    slope_se = float(np.sqrt(s2 / sxx))
    if not all(map(math.isfinite, (intercept, slope, slope_se))):
        raise NumericalError(f"non-finite trend fit (intercept {intercept}, "
                             f"slope {slope}, se {slope_se})")

    if slope_se > 0.0:
        t_stat = slope / slope_se
        p_value = student_t_sf2(t_stat, df)
    else:
        # Noiseless line: infinite evidence unless the slope itself is zero.
        t_stat = float(np.inf) * np.sign(slope) if slope != 0.0 else 0.0
        p_value = 0.0 if slope != 0.0 else 1.0
    return TrendFit(intercept=intercept, slope=slope, slope_se=slope_se,
                    t_stat=float(t_stat), p_value=p_value,
                    significant=p_value < alpha)


def loop_fit_panel_trends(panel: TemperaturePanel, alpha: float = 0.05) -> dict[str, TrendFit]:
    """Fit a linear trend for every country; keys follow the panel ordering."""
    fits = {}
    for cid, row in zip(panel.ids, panel.values):
        try:
            fits[cid] = fit_linear_trend(row, alpha=alpha)
        except NumericalError as exc:
            raise NumericalError(f"{cid}: {exc}") from None
    return fits


def brute_slope_distance(slopes: list[float]) -> np.ndarray:
    n = len(slopes)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = abs(slopes[i] - slopes[j])
    return out


def brute_diff_distance(values: np.ndarray) -> np.ndarray:
    """Euclidean distance between first-difference series, explicit loops."""
    diffs = np.diff(values, axis=1)
    n = diffs.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for t in range(diffs.shape[1]):
                acc += (diffs[i, t] - diffs[j, t]) ** 2
            out[i, j] = acc ** 0.5
    return out


def square_diff_distance(panel: TemperaturePanel) -> np.ndarray:
    """`diff_distance` as the package had it before only the upper triangle was
    formed (verbatim): every ordered pair, 32 rows of gaps at a time."""
    diffs = panel_differences(panel)
    values = np.empty((diffs.shape[0], diffs.shape[0]))
    for start in range(0, diffs.shape[0], 32):
        gaps = diffs[start:start + 32, None, :] - diffs[None, :, :]
        values[start:start + 32] = np.sqrt(np.einsum("ijt,ijt->ij", gaps, gaps))
    np.fill_diagonal(values, 0.0)
    return values


def brute_hamming_distance(values: np.ndarray) -> np.ndarray:
    """Hamming distance between sign strings of the annual changes."""
    diffs = np.diff(values, axis=1)
    signs = (diffs > 0).astype(int)
    n = signs.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = sum(1 for a, b in zip(signs[i], signs[j]) if a != b)
    return out


def broadcast_slope_distance(slopes: np.ndarray, ids: Sequence[str]) -> DistanceMatrix:
    """`slope_distance` as the package had it before it subtracted into its
    output (verbatim, but taking the slope array): |b_i - b_j| through two
    K x K matrices."""
    if len(slopes) != len(ids):
        raise ValidationError("one slope per id is required")
    slopes = np.asarray(slopes, dtype=float)
    values = np.abs(slopes[:, None] - slopes[None, :])
    np.fill_diagonal(values, 0.0)
    return DistanceMatrix(metric="slope", labels=tuple(ids), values=values)


def two_product_hamming_distance(signs: Sequence[np.ndarray],
                                 ids: Sequence[str]) -> DistanceMatrix:
    """`hamming_distance` as the package had it before it formed the counts in
    place (verbatim): the ones-then-zeros product plus its transpose."""
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


def copying_agglomerate(dist: DistanceMatrix) -> Dendrogram:
    """`agglomerate` as the package had it before it could link in place
    or kept lower bounds (verbatim): always on a sorted-label copy of the
    matrix, caching each row's nearest neighbour, its first minimum. A merge
    recomputes the merged row and the rows whose neighbour was one of the
    pair; every other row compares its cache with the new column."""
    k = dist.size
    if k < 2:
        raise ValidationError(f"clustering needs at least 2 items, got {k}")
    if not np.all(np.isfinite(dist.values)):
        raise ValidationError("distance matrix contains non-finite entries")

    order = sorted(range(k), key=dist.labels.__getitem__)
    work = dist.values[np.ix_(order, order)]
    np.fill_diagonal(work, np.inf)
    node_of = order
    sizes = [1] * k
    nearest = work.argmin(axis=1)
    nearest_d = work[np.arange(k), nearest]
    merges: list[Merge] = []

    for step in range(k - 1):
        # The first row holding the smallest cached distance owns the
        # smallest key, and its neighbour is a higher row.
        i = int(nearest_d.argmin())
        j = int(nearest[i])
        new_size = sizes[i] + sizes[j]
        merges.append(Merge(left=node_of[i], right=node_of[j],
                            height=float(nearest_d[i]), size=new_size))

        # Dead and diagonal entries are inf and stay inf through the update.
        merged_row = (sizes[i] * work[i] + sizes[j] * work[j]) / new_size
        work[i, :] = merged_row
        work[:, i] = merged_row
        work[j, :] = np.inf
        work[:, j] = np.inf
        node_of[i] = k + step
        sizes[i] = new_size

        stale = (nearest == i) | (nearest == j)
        stale[i], stale[j] = True, False
        nearest[j], nearest_d[j] = -1, np.inf
        closer = (merged_row < nearest_d) | ((merged_row == nearest_d) & (i < nearest))
        nearest[closer] = i
        nearest_d[closer] = merged_row[closer]
        rows = np.flatnonzero(stale)
        best = work[rows].argmin(axis=1)
        nearest[rows] = best
        nearest_d[rows] = work[rows, best]

    return Dendrogram(leaf_labels=dist.labels, merges=tuple(merges))


def naive_linkage(values: np.ndarray, labels: list[str]) -> list[tuple[frozenset, frozenset, float]]:
    """Average-linkage merge sequence recomputed from the raw matrix each step.

    Tie-break matches the package rule: among minimal-distance pairs, pick the
    one whose (smaller, larger) representative labels sort first, where the
    representative is the smallest member label.
    """
    clusters: list[set[int]] = [{i} for i in range(len(labels))]
    merges = []
    while len(clusters) > 1:
        best = None
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                dist = float(np.mean([values[i, j]
                                      for i in clusters[a] for j in clusters[b]]))
                rep_a = min(labels[i] for i in clusters[a])
                rep_b = min(labels[i] for i in clusters[b])
                key = (dist, min(rep_a, rep_b), max(rep_a, rep_b))
                if best is None or key < best[0]:
                    best = (key, a, b)
        (dist, _, _), a, b = best
        merges.append((frozenset(clusters[a]), frozenset(clusters[b]), dist))
        merged = clusters[a] | clusters[b]
        clusters = [c for idx, c in enumerate(clusters) if idx not in (a, b)]
        clusters.append(merged)
    return merges


def lance_williams_linkage(values: np.ndarray, labels: list[str]) -> list[tuple[frozenset, frozenset, float]]:
    """Average-linkage merge sequence from a full rescan of updated distances.

    Same tie rule as naive_linkage, but inter-cluster distances follow the
    package's floating-point recurrence (n_a d(a,c) + n_b d(b,c)) / (n_a + n_b)
    instead of a fresh mean over raw distances. The two can differ in the last
    bit, which is enough to break an exact tie the other way on integer
    (Hamming) matrices; this oracle reproduces the package's heights exactly.
    """
    k = len(labels)
    members = {i: frozenset([i]) for i in range(k)}
    reps = {i: labels[i] for i in range(k)}
    dist = {frozenset((a, b)): float(values[a, b])
            for a in range(k) for b in range(a + 1, k)}
    merges = []
    while len(members) > 1:
        pair = min(dist, key=lambda p: (dist[p], *sorted(reps[c] for c in p)))
        a, b = sorted(pair)
        na, nb = len(members[a]), len(members[b])
        node = k + len(merges)
        for c in members:
            if c not in pair:
                dist[frozenset((node, c))] = (na * dist.pop(frozenset((a, c)))
                                              + nb * dist.pop(frozenset((b, c)))) / (na + nb)
        merges.append((members[a], members[b], dist.pop(pair)))
        members[node] = members.pop(a) | members.pop(b)
        reps[node] = min(reps.pop(a), reps.pop(b))
    return merges


def dendrogram_leafset_merges(dendro) -> list[tuple[frozenset, frozenset, float]]:
    """Re-express a Dendrogram's merges as (leafset, leafset, height) triples."""
    k = dendro.n_leaves
    members = {i: frozenset([i]) for i in range(k)}
    out = []
    for step, merge in enumerate(dendro.merges):
        left = members.pop(merge.left)
        right = members.pop(merge.right)
        out.append((left, right, merge.height))
        members[k + step] = left | right
    return out


def mask_and_normalize(full_weights: np.ndarray, same_cluster: np.ndarray) -> np.ndarray:
    """Cluster-restriction oracle: zero out cross-cluster entries, renormalize."""
    masked = np.where(same_cluster, full_weights, 0.0)
    out = np.zeros_like(masked)
    for i in range(masked.shape[0]):
        total = masked[i].sum()
        if total > 0:
            out[i] = masked[i] / total
    return out


def clamped_weights(values: np.ndarray, rows: Sequence[int], n: int, rescale: bool,
                    codes: np.ndarray | None = None) -> np.ndarray:
    """Distance weights as the package formed them while the rescaled share
    of N could be 1: similarities (n - d)/n, with the largest distance mapped
    to 0.95 n under rescaling, clamped at 0, embedded at the panel `rows` of
    the distance labels, kept for same-cluster pairs when `codes` (panel
    order) are given, then row-normalized."""
    dmax = values.max() if values.size else 0.0
    sim = values * (n * 0.95 / dmax) if rescale and dmax > 0 else values.copy()
    sim = np.maximum(n - sim, 0.0) / n
    np.fill_diagonal(sim, 0.0)
    full = np.zeros((n, n))
    full[np.ix_(rows, rows)] = sim
    if codes is not None:
        full[(codes[:, None] != codes[None, :]) | (codes[:, None] <= 0)] = 0.0
    sums = full.sum(axis=1, keepdims=True)
    return np.divide(full, sums, out=np.zeros_like(full), where=sums > 0)


def contiguity_from_edges(path: str | Path, ids: list[str]) -> tuple[np.ndarray, list[str]]:
    """Contiguity weights read straight off an edge-list CSV, one cell at a time.

    Each country's neighbour set is collected from the rows in both
    directions; its row gives 1.0 / len(neighbours) to each neighbour.
    Returns the matrix and the countries without a neighbour, in `ids` order.
    """
    neighbours: dict[str, set[str]] = {cid: set() for cid in ids}
    with Path(path).open(newline="", encoding="utf-8-sig") as fh:
        for a, b in list(csv.reader(fh))[1:]:
            neighbours[a.strip()].add(b.strip())
            neighbours[b.strip()].add(a.strip())
    values = np.zeros((len(ids), len(ids)))
    for i, cid in enumerate(ids):
        for j, other in enumerate(ids):
            if other in neighbours[cid]:
                values[i, j] = 1.0 / len(neighbours[cid])
    return values, [cid for cid in ids if not neighbours[cid]]


def hand_forecast(c: np.ndarray, phi: np.ndarray, psi: np.ndarray,
                  weights: np.ndarray, last_diff: np.ndarray,
                  last_level: np.ndarray, horizon: int) -> np.ndarray:
    """Pure-Python iterated STAR forecast, returning the level path."""
    n = len(c)
    x = list(map(float, last_diff))
    levels = [list(map(float, last_level))]
    for _ in range(horizon):
        nxt = []
        for i in range(n):
            spatial = sum(weights[i][j] * x[j] for j in range(n))
            nxt.append(c[i] + phi[i] * x[i] + psi[i] * spatial)
        x = nxt
        levels.append([levels[-1][i] + x[i] for i in range(n)])
    return np.array(levels[1:]).T  # N x horizon


def scalar_ar1_forecast(c: float, phi: float, last_diff: float,
                        last_level: float, horizon: int) -> list[float]:
    """Univariate AR(1)-on-differences forecast for one unit."""
    x = last_diff
    level = last_level
    path = []
    for _ in range(horizon):
        x = c + phi * x
        level += x
        path.append(level)
    return path


def simulate_star(n_units: int, n_years: int, c: float, phi: float, psi: float,
                  weights: np.ndarray, seed: int, sigma: float = 1.0,
                  first_year: int = 1901, base_level: float = 10.0) -> np.ndarray:
    """Simulate levels whose differences follow the STAR recursion."""
    rng = np.random.default_rng(seed)
    diffs = np.zeros((n_units, n_years - 1))
    diffs[:, 0] = rng.normal(0, sigma, n_units)
    for t in range(1, n_years - 1):
        shock = rng.normal(0, sigma, n_units)
        diffs[:, t] = c + phi * diffs[:, t - 1] + psi * (weights @ diffs[:, t - 1]) + shock
    levels = np.empty((n_units, n_years))
    levels[:, 0] = base_level + rng.normal(0, 1, n_units)
    levels[:, 1:] = levels[:, [0]] + np.cumsum(diffs, axis=1)
    return levels


def _block_indices(rng: np.random.Generator, n_periods: int, block: int,
                   reps: int) -> np.ndarray:
    """Moving-block bootstrap index matrix (reps x n_periods), block=1 is iid."""
    n_blocks = math.ceil(n_periods / block)
    starts = rng.integers(0, n_periods - block + 1, size=(reps, n_blocks))
    idx = (starts[:, :, None] + np.arange(block)[None, None, :]).reshape(reps, -1)
    return idx[:, :n_periods]


def gather_boot_means(matrix: np.ndarray, block: int, reps: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Moving-block bootstrap means (models x reps) by gathering every
    resampled period through the index matrix, as mcs once did."""
    n_periods = matrix.shape[1]
    idx = _block_indices(rng, n_periods, block, reps)
    boot_means = np.empty((matrix.shape[0], reps))
    chunk = max(1, 500_000 // n_periods)
    for start in range(0, reps, chunk):
        sel = idx[start:start + chunk]
        boot_means[:, start:start + chunk] = matrix[:, sel].mean(axis=2)
    return boot_means


def year_block_boot_means(matrix: np.ndarray, n_countries: int, block: int,
                          reps: int, rng: np.random.Generator) -> np.ndarray:
    """Bootstrap means (models x reps) of year-major observation losses
    (models x H*N, every country of a year together) resampled in blocks of
    `block` whole years: each block is `block * N` observations starting at
    a year boundary, the starts drawn as the year bootstrap draws them, and
    the last block cut to the years left."""
    n_years = matrix.shape[1] // n_countries
    assert n_years * n_countries == matrix.shape[1]
    starts = rng.integers(0, n_years - block + 1,
                          size=(reps, math.ceil(n_years / block)))
    span = np.arange(block * n_countries)
    means = np.empty((matrix.shape[0], reps))
    for r in range(reps):
        idx = (starts[r, :, None] * n_countries + span).reshape(-1)[:matrix.shape[1]]
        means[:, r] = matrix[:, idx].sum(axis=1) / matrix.shape[1]
    return means


# The moving-block bootstrap and the model confidence set as the package had
# them before each pair's terms were formed once per call (verbatim, but for
# names and docstrings): exact oracles for bootstrap sums and reports.

def dense_boot_means(matrix: np.ndarray, block: int, reps: int,
                     rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """`starclust.evaluation._boot_means` as it was before it counted block
    starts as floats in place: an int64 key copy, int64 counts and a float
    copy of the counts per chunk."""
    n_models, n_periods = matrix.shape
    n_starts = n_periods - block + 1
    tail = n_periods - (math.ceil(n_periods / block) - 1) * block
    windows = sliding_window_view(matrix, block, axis=1)  # models x starts x block
    full = windows.sum(axis=2)
    last = windows[:, :, :tail].sum(axis=2)
    total = sliding_window_view(matrix, n_periods, axis=1).sum(axis=2)[:, 0]
    sums = np.empty((n_models, reps))
    done = 0
    for starts in _start_chunks(rng, n_periods, block, reps):
        rows = len(starts)
        # Offset each row's starts so one bincount counts every row at once.
        keys = starts[:, :-1] + (np.arange(rows) * n_starts)[:, None]
        counts = np.bincount(keys.ravel(), minlength=rows * n_starts)
        counts = counts.reshape(rows, n_starts).astype(float)
        sums[:, done:done + rows] = full @ counts.T + last[:, starts[:, -1]]
        done += rows
    return total / n_periods, sums / n_periods


def round_by_round_mcs(losses: Sequence[LossSeries], reps: int = 10_000, block: int = 2,
                       statistic: str = "SQ", seed: int = 0,
                       rounds: list | None = None) -> McsReport:
    """`starclust.mcs` as it was before each pair's terms were formed once per
    call: every round rebuilds its active pairs' bootstrap differentials,
    squares and valid-row copies. Its warning lists every degenerate pair, as
    the package's does. Survivors are kept at the package's level, ALPHA.
    Each round's null statistics (one per replication) are appended to
    `rounds` when it is given."""
    if not losses:
        raise ValidationError("the confidence set needs at least one model")
    if len(losses) == 1:
        # One candidate has nothing to be tested against; it survives trivially.
        return McsReport(statistic=statistic, reps=reps, block=block, seed=seed,
                         eliminations=((losses[0].model, 1.0),),
                         survivors=(losses[0].model,))
    ids = [ls.model for ls in losses]
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate model ids in loss list")
    periods = losses[0].periods
    if any(ls.periods != periods for ls in losses[1:]):
        raise ValidationError("loss series must share the same evaluation periods")
    n_periods = len(periods)
    if reps < 100:
        raise ValidationError(f"need at least 100 bootstrap replications, got {reps}")
    if not 1 <= block <= n_periods:
        raise ValidationError(f"block length {block} outside [1, {n_periods}]")
    if statistic not in ("SQ", "R"):
        raise ValidationError(f"statistic must be 'SQ' or 'R', got {statistic!r}")

    matrix = np.vstack([ls.values for ls in losses])
    # Resampled per-model means, computed once and centred; pairwise
    # differentials derive from them because d_ij(t) = L_i(t) - L_j(t).
    # Overflow (losses near the float range) makes some pair's variance
    # non-finite, which the loop below reports.
    with np.errstate(over="ignore", invalid="ignore"):
        full_means, centered = dense_boot_means(matrix, block, reps, np.random.default_rng(seed))
        centered -= full_means[:, None]
    rounding = 2 * np.finfo(float).eps * matrix.max(axis=1)  # losses are >= 0

    active = np.arange(len(ids))
    eliminations: list[tuple[str, float]] = []
    running_p = 0.0
    degenerate_pairs: set[tuple[int, int]] = set()

    while len(active) > 1:
        # Each pair of active models once, the model listed first as a.
        i, j = np.triu_indices(len(active), k=1)
        a, b = active[i], active[j]
        with np.errstate(over="ignore", invalid="ignore"):
            diff_boot = centered[a] - centered[b]  # pairs x reps
            var = (diff_boot ** 2).mean(axis=1)
            flat = np.ptp(matrix[a] - matrix[b], axis=1) <= np.maximum(rounding[a], rounding[b])
        bad = np.flatnonzero(~np.isfinite(var))
        if bad.size:
            raise NumericalError("non-finite bootstrap variance for models "
                                 f"{ids[a[bad[0]]]!r} and {ids[b[bad[0]]]!r}")
        valid = (var > 0) & ~flat
        degenerate_pairs.update(zip(a[~valid].tolist(), b[~valid].tolist()))
        i, j, diff_boot, var = i[valid], j[valid], diff_boot[valid], var[valid]
        se = np.sqrt(var)
        tstat = (full_means[active[i]] - full_means[active[j]]) / se
        if statistic == "SQ":
            observed_stat = float((tstat ** 2).sum())
            null_stats = (diff_boot ** 2 / var[:, None]).sum(axis=0)
        else:
            observed_stat = float(np.abs(tstat).max(initial=0.0))
            null_stats = (np.abs(diff_boot) / se[:, None]).max(axis=0, initial=0.0)
        if rounds is not None:
            rounds.append(null_stats)

        hits = int(np.sum(null_stats >= observed_stat))
        running_p = max(running_p, (1 + hits) / (reps + 1))

        # A model's worst t against the others: t_ab for a, t_ba = -t_ab for b.
        # With every pair degenerate all stay -inf and the first listed goes.
        worst = np.full(len(active), -np.inf)
        np.maximum.at(worst, i, tstat)
        np.maximum.at(worst, j, -tstat)
        out = int(np.argmax(worst))
        eliminations.append((ids[active[out]], running_p))
        active = np.delete(active, out)

    eliminations.append((ids[active[0]], 1.0))
    if degenerate_pairs:
        listed = sorted((ids[p], ids[q]) for p, q in degenerate_pairs)
        warnings.warn(f"zero bootstrap variance or constant loss differential for "
                      f"model pairs {listed}; their statistic contribution was set to 0",
                      RuntimeWarning)

    survivors = tuple(model for model, p in eliminations if p >= ALPHA)
    return McsReport(statistic=statistic, reps=reps, block=block, seed=seed,
                     eliminations=tuple(eliminations), survivors=survivors)


# Row-by-row panel reader: `_read_rows` and `_load_long` as the package had
# them before long panels were parsed column-wise (verbatim, except that
# messages give each row's physical line, as `csv.reader`'s `line_num`
# reports it, that a year outside 64 bits is reported, that gaps are listed
# without forming the full year span, and that a country's name, zone or
# area is not read), and `load_panel_rows` composing them as
# `starclust.panel.load_panel` does, which refuses a header without the long
# columns, then one naming a name, zone or area column, then one that repeats
# a long column in any case.

def _read_rows(path: str | Path) -> tuple[list[str], list[list[str]], list[int]]:
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"file not found: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        numbered = [(reader.line_num, row) for row in reader
                    if row and any(cell.strip() for cell in row)]
    if not numbered:
        raise ValidationError(f"empty file: {path}")
    lines = [line for line, _ in numbered[1:]]
    rows = [row for _, row in numbered]
    header = [cell.strip() for cell in rows[0]]
    return header, rows[1:], lines


def _load_long(header: list[str], rows: list[list[str]], lines: list[int]) -> TemperaturePanel:
    lowered = [h.lower() for h in header]
    col = {name: lowered.index(name) for name in _LONG_HEADER}

    cells: dict[tuple[str, int], float] = {}
    out_of_range: str | None = None
    for lineno, row in zip(lines, rows):
        if len(row) < len(header):
            raise ValidationError(f"line {lineno}: expected {len(header)} columns, got {len(row)}")
        country = row[col["country"]].strip()
        year_text = row[col["year"]].strip()
        try:
            year = int(year_text)
        except ValueError:
            raise ValidationError(
                f"line {lineno}: non-integer year {year_text!r} for country {country!r}"
            ) from None
        if out_of_range is None and not -2**63 <= year < 2**63:
            out_of_range = f"line {lineno}: year {year_text!r} for country {country!r} is out of range"
        value = _parse_temperature(row[col["temperature"]].strip(), country, year)
        if (country, year) in cells:
            raise ValidationError(f"duplicate entry for country {country!r}, year {year}")
        cells[(country, year)] = value

    if out_of_range:
        # A year that does not fit in 64 bits is reported once every row has
        # passed its other checks.
        raise ValidationError(out_of_range)
    if not cells:
        raise ValidationError("long panel has a header but no observations")
    ids = sorted({country for country, _ in cells})
    first = min(year for _, year in cells)
    last = max(year for _, year in cells)
    n_missing = len(ids) * (last - first + 1) - len(cells)
    if n_missing:
        # Lazy ranges between each country's sorted years, so a far-off year
        # lists its first gaps without forming the whole span.
        present: dict[str, list[int]] = {}
        for country, year in sorted(cells):
            present.setdefault(country, []).append(year)
        gaps = (f"{country}/{year}" for country in ids
                for lo, hi in itertools.pairwise([first - 1, *present[country], last + 1])
                for year in range(lo + 1, hi))
        shown = ", ".join(itertools.islice(gaps, 10))
        more = "" if n_missing <= 10 else f" (+{n_missing - 10} more)"
        raise ValidationError(f"missing observations: {shown}{more}")
    full_years = list(range(first, last + 1))

    if "" in ids:
        raise ValidationError("country id must be a non-empty string")

    values = np.array([[cells[(c, y)] for y in full_years] for c in ids], dtype=float)
    return TemperaturePanel(ids=ids, years=tuple(full_years), values=values)


def load_panel_rows(path: str | Path) -> TemperaturePanel:
    header, rows, lines = _read_rows(path)
    if not set(_LONG_HEADER) <= {h.lower() for h in header}:
        raise ValidationError("panel header must hold country, year and temperature columns")
    for name in header:
        if name.lower() in ("name", "zone", "area"):
            raise ValidationError(f"panel column {name!r} is not read: a country's "
                                  "name, zone and area belong in the zones file")
    lowered = [h.lower() for h in header]
    for name in _LONG_HEADER:
        if lowered.count(name) > 1:
            raise ValidationError(f"panel header repeats column {name!r}")
    return _load_long(header, rows, lines)


# Country-by-country STAR fit: `fit_star`, `_ols_with_fallback` and `_predict`
# as the package had them before the equations were solved as one batch
# (verbatim, except that the loop returns its equations instead of a model and
# forms the spatial lags inline).

def loop_fit_star(panel: TemperaturePanel, weights: WeightMatrix) -> dict[str, EquationFit]:
    """Estimate the per-country difference equations by OLS, one at a time.

    Usable rows run over t = 3..T of the level panel (T - 2 equations rows):
    differencing consumes the first year and the lag the second. A singular
    design (e.g. a constant spatial lag) drops the offending regressor, spatial
    term first, and records what was removed.
    """
    if tuple(weights.labels) != tuple(panel.ids):
        raise ValidationError("weight matrix labels must match panel id order")
    if panel.n_years < 4:
        raise ValidationError(f"need at least 4 years to fit, got {panel.n_years}")

    diffs = panel_differences(panel)      # N x (T-1), columns are years[1:]
    spatial = weights.values @ diffs
    response = diffs[:, 1:]               # x_t  for t = 3..T
    own_lag = diffs[:, :-1]               # x_{t-1}
    spatial_lag = spatial[:, :-1]         # sum_j w_ij x_{j,t-1}
    zero_row = weights.values.sum(axis=1) == 0.0

    equations: dict[str, EquationFit] = {}
    for i, cid in enumerate(panel.ids):
        y = response[i]
        columns: list[tuple[str, np.ndarray]] = [("const", np.ones_like(y)),
                                                 ("temporal", own_lag[i])]
        if not zero_row[i]:
            columns.append(("spatial", spatial_lag[i]))
        names, coefs, dropped = _ols_with_fallback(cid, columns, y)
        lookup = dict(zip(names, coefs))
        resid = y - _predict(columns, names, lookup)
        dof = len(y) - len(names)
        sigma2 = float(resid @ resid) / dof if dof > 0 else float(resid @ resid) / len(y)
        psi = lookup.get("spatial") if not zero_row[i] and "spatial" in lookup else None
        equations[cid] = EquationFit(country=cid,
                                     c=float(lookup.get("const", 0.0)),
                                     phi=float(lookup.get("temporal", 0.0)),
                                     psi=None if psi is None else float(psi),
                                     sigma2=sigma2,
                                     dropped=tuple(dropped))
    return equations


def _ols_with_fallback(cid: str, columns: list[tuple[str, np.ndarray]],
                       y: np.ndarray) -> tuple[list[str], np.ndarray, list[str]]:
    """Least squares, dropping the spatial then the temporal regressor on
    rank deficiency rather than returning an arbitrary minimum-norm solution."""
    drop_order = ("spatial", "temporal")
    kept = list(columns)
    dropped: list[str] = []
    while True:
        design = np.column_stack([col for _, col in kept])
        if np.linalg.matrix_rank(design) == design.shape[1]:
            coefs, *_ = np.linalg.lstsq(design, y, rcond=None)
            if not np.all(np.isfinite(coefs)):
                raise NumericalError(f"non-finite coefficients for {cid}")
            return [name for name, _ in kept], coefs, dropped
        candidates = [name for name in drop_order if any(n == name for n, _ in kept)]
        if not candidates:
            raise NumericalError(f"design matrix for {cid} is degenerate beyond repair")
        victim = candidates[0]
        kept = [(n, col) for n, col in kept if n != victim]
        dropped.append(victim)


def _predict(columns: list[tuple[str, np.ndarray]], names: list[str],
             lookup: dict[str, float]) -> np.ndarray:
    total = np.zeros_like(columns[0][1])
    for name, col in columns:
        if name in names:
            total = total + lookup[name] * col
    return total

