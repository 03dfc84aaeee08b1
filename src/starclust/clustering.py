"""Average-linkage agglomerative clustering, dendrogram cuts, and cross-tabs.

The merge order is fully deterministic: when two candidate pairs share the
minimal inter-cluster distance, the pair whose (smaller, larger) representative
labels sort lexicographically first wins, where a cluster's representative is
its smallest member label. Label-based tie-breaking makes partitions invariant
to the input ordering even on integer-valued (Hamming) matrices.

Linkage caches each row's nearest neighbour (the generic algorithm of
Muellner 2011, arXiv:1109.2378), so a merge costs O(K) plus a rescan of the
rows it invalidates: O(K^2) time for K items in the typical case. It works
on one K x K matrix: a copy of the distances, or the distances themselves
when the caller gives them up. Heights and tie-breaks are exactly those of a
full rescan of the Lance-Williams distances at every step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import compress
from pathlib import Path
from typing import Sequence

import numpy as np

from .distances import DistanceMatrix
from .errors import NumericalError, ValidationError
from .panel import ZONES, TemperaturePanel, write_csv, write_json


@dataclass(frozen=True)
class Merge:
    """One agglomeration step. Node ids: leaves 0..K-1, internal K..2K-2."""

    left: int
    right: int
    height: float
    size: int


@dataclass(frozen=True)
class Dendrogram:
    leaf_labels: tuple[str, ...]
    merges: tuple[Merge, ...]

    def __post_init__(self) -> None:
        k = len(self.leaf_labels)
        if len(self.merges) != k - 1:
            raise ValidationError(f"expected {k - 1} merges for {k} leaves, got {len(self.merges)}")

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_labels)

    def heights(self) -> np.ndarray:
        return np.array([m.height for m in self.merges], dtype=float)

    def components_at(self, n_components: int) -> list[list[int]]:
        """Leaf-index components after undoing all but the first K - m merges."""
        k = self.n_leaves
        if not (1 <= n_components <= k):
            raise ValidationError(f"component count {n_components} outside [1, {k}]")
        members: dict[int, list[int]] = {i: [i] for i in range(k)}
        for step in range(k - n_components):
            merge = self.merges[step]
            node = k + step
            members[node] = members.pop(merge.left) + members.pop(merge.right)
        return sorted(members.values(), key=lambda leaves: min(leaves))


def agglomerate(dist: DistanceMatrix, consume: bool = False) -> Dendrogram:
    """Build the average-linkage (UPGMA) merge sequence for a distance matrix.

    Inter-cluster distances are maintained with the Lance-Williams update
    d(a+b, c) = (n_a d(a,c) + n_b d(b,c)) / (n_a + n_b); merge heights are
    non-decreasing.

    Rows are held in sorted-label order and a merge keeps the lower row, so a
    cluster's row is the rank of its representative label and the tie key
    (height, smaller label, larger label) is (height, lower row, higher row).
    Each live row caches its nearest neighbour, the first minimum of the row.
    A merge recomputes only the merged row and the rows whose neighbour was
    one of the pair; every other row compares its cache with the new column.

    With `consume`, a matrix whose labels are already sorted is linked in
    place and its values are overwritten: the caller gives `dist` up and must
    not read it again. Otherwise, or when the labels need reordering, the
    linkage works on a copy.
    """
    k = dist.size
    if k < 2:
        raise ValidationError(f"clustering needs at least 2 items, got {k}")

    order = sorted(range(k), key=dist.labels.__getitem__)
    if order != list(range(k)):
        work = dist.values[np.ix_(order, order)]
    elif consume and dist.values.base is None:
        work = dist.values
        work.setflags(write=True)
    else:
        work = dist.values.copy()
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


@dataclass(frozen=True)
class CutRule:
    """How to flatten a dendrogram.

    kind 'count' cuts into exactly k components; 'main_count' searches for the
    cut yielding exactly k clusters of size >= min_size (smaller components
    become idiosyncratic); 'height' keeps merges at or below a height;
    'auto' cuts at the largest relative gap among the last ceil(K/3) merges.
    """

    kind: str
    k: int | None = None
    height_value: float | None = None
    min_size: int = 2

    def __post_init__(self) -> None:
        if self.kind not in ("count", "main_count", "height", "auto"):
            raise ValidationError(f"unknown cut rule kind {self.kind!r}")
        if self.kind in ("count", "main_count") and (self.k is None or self.k < 1):
            raise ValidationError(f"cut rule {self.kind!r} needs a positive k")
        if self.kind == "height" and (self.height_value is None
                                      or math.isnan(self.height_value)):
            raise ValidationError(f"height cut rule needs a height, got {self.height_value}")
        if self.min_size < 1:
            raise ValidationError("min_size must be at least 1")

    @classmethod
    def count(cls, k: int, min_size: int = 2) -> "CutRule":
        return cls(kind="count", k=k, min_size=min_size)

    @classmethod
    def main_count(cls, k: int, min_size: int = 2) -> "CutRule":
        return cls(kind="main_count", k=k, min_size=min_size)

    @classmethod
    def height(cls, h: float, min_size: int = 2) -> "CutRule":
        return cls(kind="height", height_value=h, min_size=min_size)

    @classmethod
    def auto(cls, min_size: int = 2) -> "CutRule":
        return cls(kind="auto", min_size=min_size)


# Group codes besides the cluster numbers 1..k.
IDIOSYNCRATIC = 0  # left in a component smaller than the cut's min_size
NULL = -1          # not clustered at all (scheme A: a non-significant slope)


@dataclass(frozen=True, eq=False)
class ClusterAssignment:
    """Flat partition: `codes[i]` is the cluster (1..k), IDIOSYNCRATIC or NULL
    of `ids[i]`, with ids in panel order."""

    scheme: str
    ids: tuple[str, ...]
    codes: np.ndarray
    cut: CutRule
    resolved_components: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "ids", tuple(self.ids))
        codes = np.array(self.codes, dtype=int)
        if codes.shape != (len(self.ids),) or np.any(codes < NULL):
            raise ValidationError(f"need one code >= {NULL} for each of {len(self.ids)} ids")
        indices = sorted(set(codes[codes > 0].tolist()))
        if indices != list(range(1, len(indices) + 1)):
            raise ValidationError(f"cluster indices must be contiguous 1..k, got {indices}")
        codes.flags.writeable = False
        object.__setattr__(self, "codes", codes)

    @property
    def n_clusters(self) -> int:
        return int(self.codes.max(initial=0))

    def members(self, code: int) -> list[str]:
        """Sorted ids of one group: a cluster number, IDIOSYNCRATIC or NULL."""
        return sorted(compress(self.ids, (self.codes == code).tolist()))

    def categories(self) -> tuple[list[str], np.ndarray]:
        """Nonempty category names (clusters 1..k, then "idiosyncratic", then
        "null") and each id's index among them."""
        k = self.n_clusters
        key = np.where(self.codes > 0, self.codes, k + 1 - self.codes)  # idio k+1, null k+2
        present = np.flatnonzero(np.bincount(key))
        names = [str(c) if c <= k else ("idiosyncratic", "null")[c - k - 1]
                 for c in present.tolist()]
        return names, np.searchsorted(present, key)


def cut(dendro: Dendrogram, rule: CutRule, scheme: str = "B",
        ids: Sequence[str] | None = None) -> ClusterAssignment:
    """Flatten a dendrogram into a ClusterAssignment over `ids` (default: the leaves).

    Components smaller than `rule.min_size` become idiosyncratic; remaining
    clusters are renumbered 1..k by decreasing size (ties by smallest label).
    Ids that are not leaves get NULL.
    """
    k = dendro.n_leaves
    heights = dendro.heights()
    if rule.kind == "count":
        m = int(rule.k)  # validated > 0; components_at checks the upper bound
    elif rule.kind == "height":
        m = k - int(np.sum(heights <= rule.height_value))
    elif rule.kind == "auto":
        m = _auto_components(heights, k)
    else:
        m = _main_count_components(dendro, int(rule.k), rule.min_size)

    components = dendro.components_at(m)
    clusters = [c for c in components if len(c) >= rule.min_size]
    clusters.sort(key=lambda c: (-len(c), min(dendro.leaf_labels[i] for i in c)))

    leaf_codes = np.full(k, IDIOSYNCRATIC)
    for code, comp in enumerate(clusters, start=1):
        leaf_codes[comp] = code
    ids = dendro.leaf_labels if ids is None else tuple(ids)
    code_of = dict(zip(dendro.leaf_labels, leaf_codes.tolist()))
    codes = [code_of.pop(cid, NULL) for cid in ids]
    if code_of:
        raise ValidationError(f"dendrogram leaves absent from ids: {sorted(code_of)[:5]}")
    return ClusterAssignment(scheme=scheme, ids=ids, codes=codes, cut=rule,
                             resolved_components=m)


def _gap_ratios(heights: np.ndarray) -> np.ndarray:
    """Relative gap heights[j + 1] / heights[j] between consecutive merges:
    inf from a zero height to a positive one, 1 between two zeros."""
    low, high = heights[:-1], heights[1:]
    ratios = np.where((low == 0) & (high > 0), np.inf, 1.0)
    return np.divide(high, low, out=ratios, where=low > 0)


def _auto_components(heights: np.ndarray, k: int) -> int:
    """Largest relative gap between consecutive merges among the last ceil(K/3)."""
    first = max(len(heights) - math.ceil(k / 3), 0)  # first merge in the window
    ratios = _gap_ratios(heights)[first:]  # ratio j: between merges first+j, first+j+1
    if ratios.size == 0:
        return 1
    best_j = first + ratios.size - 1 - int(np.argmax(ratios[::-1]))  # ties: later cut
    return k - (best_j + 1)


def _main_count_components(dendro: Dendrogram, k_main: int, min_size: int) -> int:
    """Component count m whose cut yields exactly k_main clusters of size >= min_size.

    Among all qualifying m, prefer the cut sitting at the largest relative
    height gap (the most natural place to cut the tree), ties to the coarsest.
    """
    k = dendro.n_leaves
    heights = dendro.heights()
    sizes: dict[int, int] = {i: 1 for i in range(k)}
    big = sum(1 for s in sizes.values() if s >= min_size)
    big_by_m = {k: big}
    for step, merge in enumerate(dendro.merges):
        sa = sizes.pop(merge.left)
        sb = sizes.pop(merge.right)
        sizes[k + step] = sa + sb
        big += (sa + sb >= min_size) - (sa >= min_size) - (sb >= min_size)
        big_by_m[k - step - 1] = big

    candidates = [m for m in range(1, k + 1) if big_by_m[m] == k_main]
    if not candidates:
        raise ValidationError(
            f"no dendrogram cut produces exactly {k_main} clusters of size >= {min_size}"
        )

    ratios = _gap_ratios(heights)

    def gap(m: int) -> float:
        applied = k - m  # number of merges kept
        return ratios[applied - 1] if 0 < applied < len(heights) else np.inf

    return min(candidates, key=lambda m: (-gap(m), m))


def _per_id(assign: ClusterAssignment, features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=float)
    if len(features) != len(assign.ids):
        raise ValidationError(f"{len(features)} feature rows for {len(assign.ids)} ids")
    return features


def relabel_by_feature(assign: ClusterAssignment, features: np.ndarray) -> ClusterAssignment:
    """Renumber clusters by mean feature value (one per id, e.g. slope), largest first."""
    features = _per_id(assign, features)
    k = assign.n_clusters
    means = np.array([np.mean(features[assign.codes == c]) for c in range(1, k + 1)])
    rank = np.zeros(k + 1, dtype=int)
    rank[np.argsort(-means, kind="stable") + 1] = np.arange(1, k + 1)
    return replace(assign, codes=np.where(assign.codes > 0, rank[assign.codes], assign.codes))


@dataclass(frozen=True)
class ContingencyTable:
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=int)
        object.__setattr__(self, "counts", counts)
        if counts.shape != (len(self.row_labels), len(self.col_labels)):
            raise ValidationError("contingency counts shape does not match labels")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def col_margins(self) -> np.ndarray:
        return self.counts.sum(axis=0)


def _require_panel_ids(assign: ClusterAssignment, panel: TemperaturePanel,
                       name: str = "") -> None:
    if assign.ids != panel.ids:
        raise ValidationError(f"{name}assignment does not cover the panel in its order")


def _contingency(rows: Sequence[str], row_of: np.ndarray,
                 cols: Sequence[str], col_of: np.ndarray) -> ContingencyTable:
    """Count the ids falling in each (row, column) pair of category indices."""
    counts = np.bincount(row_of * len(cols) + col_of, minlength=len(rows) * len(cols))
    return ContingencyTable(row_labels=tuple(rows), col_labels=tuple(cols),
                            counts=counts.reshape(len(rows), len(cols)))


def cross_tab(a: ClusterAssignment, b: ClusterAssignment,
              panel: TemperaturePanel) -> ContingencyTable:
    """Country counts by (category of a, category of b) over the full panel."""
    _require_panel_ids(a, panel, "first ")
    _require_panel_ids(b, panel, "second ")
    return _contingency(*a.categories(), *b.categories())


def zone_cross_tab(assign: ClusterAssignment, panel: TemperaturePanel) -> ContingencyTable:
    """Country counts by (geographical zone, assignment category)."""
    _require_panel_ids(assign, panel)
    missing = sorted(cid for cid, z in zip(panel.ids, panel.zones) if z not in ZONES)
    if missing:
        raise ValidationError(f"zone metadata missing or unknown for: {missing[:5]}"
                              + ("..." if len(missing) > 5 else ""))
    zone_of = np.array(panel.zones)
    present = [z for z in ZONES if z in zone_of]
    row_of = np.argmax(zone_of[:, None] == np.array(present)[None, :], axis=1)
    return _contingency(present, row_of, *assign.categories())


@dataclass(frozen=True)
class ClusterStats:
    cluster: int
    n_countries: int
    n_values: int
    mean: float
    sd: float
    degenerate: bool  # fewer than two pooled values; sd reported as 0


def cluster_summary(assign: ClusterAssignment,
                    features: np.ndarray) -> dict[int, ClusterStats]:
    """Per-cluster mean and sample SD of a feature, pooling vector features.

    `features` has one row per id, in the assignment's order: a vector of
    scalars (e.g. slopes) contributes one value per country, a matrix (e.g.
    annual changes) pools every element of every member's row. A mean or
    SD that overflows is a NumericalError.
    """
    features = _per_id(assign, features)
    out: dict[int, ClusterStats] = {}
    for index in range(1, assign.n_clusters + 1):
        rows = features[assign.codes == index]
        values = rows.ravel()
        degenerate = values.size < 2
        # Overflow (features near the float range) is caught by the check below.
        with np.errstate(over="ignore", invalid="ignore"):
            mean = float(values.mean())
            sd = 0.0 if degenerate else float(np.std(values, ddof=1))
        if not (math.isfinite(mean) and math.isfinite(sd)):
            raise NumericalError(f"non-finite summary of scheme {assign.scheme} cluster "
                                 f"{index} (mean {mean}, sd {sd})")
        out[index] = ClusterStats(cluster=index, n_countries=len(rows),
                                  n_values=int(values.size), mean=mean, sd=sd,
                                  degenerate=degenerate)
    return out


def dendrogram_to_json(dendro: Dendrogram, path: str | Path) -> None:
    write_json(path, {
        "leaves": list(dendro.leaf_labels),
        "merges": [{"left": m.left, "right": m.right,
                    "height": m.height, "size": m.size} for m in dendro.merges],
    })


def assignment_to_json(assign: ClusterAssignment, path: str | Path) -> None:
    write_json(path, {
        "scheme": assign.scheme,
        "labels": {cid: code for cid, code in zip(assign.ids, assign.codes.tolist())
                   if code > 0},
        "idiosyncratic": assign.members(IDIOSYNCRATIC),
        "null_excluded": assign.members(NULL),
        "cut": {"kind": assign.cut.kind, "k": assign.cut.k,
                "height": assign.cut.height_value, "min_size": assign.cut.min_size,
                "resolved_components": assign.resolved_components},
    })


def write_contingency_csv(table: ContingencyTable, path: str | Path) -> None:
    """CSV export with a trailing margin row and column."""
    counts = table.counts.tolist()
    rows = [[label, *row, sum(row)] for label, row in zip(table.row_labels, counts)]
    rows.append(["total", *table.col_margins().tolist(), table.total])
    write_csv(path, ["group\\group", *table.col_labels, "total"], rows)
