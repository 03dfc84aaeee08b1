"""Average-linkage agglomerative clustering, dendrogram cuts, and cross-tabs.

The merge order is fully deterministic: when two candidate pairs share the
minimal inter-cluster distance, the pair whose (smaller, larger) representative
labels sort lexicographically first wins, where a cluster's representative is
its smallest member label. Label-based tie-breaking makes partitions invariant
to the input ordering even on integer-valued (Hamming) matrices.

Linkage caches each row's nearest neighbour (the generic algorithm of
Muellner 2011, arXiv:1109.2378), so a merge costs O(K) plus a rescan of the
rows it invalidates: O(K^2) time for K items in the typical case, with a
K x K working matrix. Heights and tie-breaks are exactly those of a full
rescan of the Lance-Williams distances at every step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .distances import DistanceMatrix
from .errors import ValidationError
from .panel import TemperaturePanel, write_csv, write_json

_ZONE_ORDER = ("Europe", "Asia", "Eurasia", "Africa", "North America",
               "Central America", "South America", "Oceania")


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


def agglomerate(dist: DistanceMatrix) -> Dendrogram:
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
    """
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
        if self.kind == "height" and self.height_value is None:
            raise ValidationError("height cut rule needs a height")
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


@dataclass(frozen=True)
class ClusterAssignment:
    """Flat partition: numbered clusters plus idiosyncratic and excluded units."""

    scheme: str
    labels: dict[str, int]
    idiosyncratic: frozenset[str]
    null_excluded: frozenset[str]
    cut: CutRule
    resolved_components: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", dict(self.labels))
        object.__setattr__(self, "idiosyncratic", frozenset(self.idiosyncratic))
        object.__setattr__(self, "null_excluded", frozenset(self.null_excluded))
        overlap = (set(self.labels) & self.idiosyncratic) | \
                  (set(self.labels) & self.null_excluded) | \
                  (self.idiosyncratic & self.null_excluded)
        if overlap:
            raise ValidationError(f"ids assigned to multiple groups: {sorted(overlap)}")
        indices = sorted(set(self.labels.values()))
        if indices and indices != list(range(1, len(indices) + 1)):
            raise ValidationError(f"cluster indices must be contiguous 1..k, got {indices}")

    @property
    def n_clusters(self) -> int:
        return max(self.labels.values(), default=0)

    def members(self, index: int) -> list[str]:
        return sorted(cid for cid, c in self.labels.items() if c == index)

    def covered_ids(self) -> frozenset[str]:
        return frozenset(self.labels) | self.idiosyncratic | self.null_excluded

    def categories(self) -> list[tuple[str, frozenset[str]]]:
        """Ordered nonempty categories: clusters 1..k, then idiosyncratic, then null."""
        cats: list[tuple[str, frozenset[str]]] = []
        for index in range(1, self.n_clusters + 1):
            cats.append((str(index), frozenset(self.members(index))))
        if self.idiosyncratic:
            cats.append(("idiosyncratic", self.idiosyncratic))
        if self.null_excluded:
            cats.append(("null", self.null_excluded))
        return cats

    def category_of(self, country_id: str) -> str:
        if country_id in self.labels:
            return str(self.labels[country_id])
        if country_id in self.idiosyncratic:
            return "idiosyncratic"
        if country_id in self.null_excluded:
            return "null"
        raise ValidationError(f"id {country_id!r} not covered by assignment")


def cut(dendro: Dendrogram, rule: CutRule, scheme: str = "B",
        null_excluded: Iterable[str] = ()) -> ClusterAssignment:
    """Flatten a dendrogram into a ClusterAssignment.

    Components smaller than `rule.min_size` become idiosyncratic; remaining
    clusters are renumbered 1..k by decreasing size (ties by smallest label).
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
    single = [c for c in components if len(c) < rule.min_size]
    clusters.sort(key=lambda c: (-len(c), min(dendro.leaf_labels[i] for i in c)))

    labels: dict[str, int] = {}
    for index, comp in enumerate(clusters, start=1):
        for leaf in comp:
            labels[dendro.leaf_labels[leaf]] = index
    idio = frozenset(dendro.leaf_labels[leaf] for comp in single for leaf in comp)
    return ClusterAssignment(scheme=scheme, labels=labels, idiosyncratic=idio,
                             null_excluded=frozenset(null_excluded), cut=rule,
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


def relabel_by_feature(assign: ClusterAssignment, features: Mapping[str, float],
                       descending: bool = True) -> ClusterAssignment:
    """Renumber clusters by mean feature value (e.g. slope), largest first."""
    means = []
    for index in range(1, assign.n_clusters + 1):
        values = [features[cid] for cid in assign.members(index)]
        means.append((index, float(np.mean(values))))
    means.sort(key=lambda item: -item[1] if descending else item[1])
    remap = {old: new for new, (old, _) in enumerate(means, start=1)}
    return ClusterAssignment(scheme=assign.scheme,
                             labels={cid: remap[c] for cid, c in assign.labels.items()},
                             idiosyncratic=assign.idiosyncratic,
                             null_excluded=assign.null_excluded,
                             cut=assign.cut,
                             resolved_components=assign.resolved_components)


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


def cross_tab(a: ClusterAssignment, b: ClusterAssignment,
              panel: TemperaturePanel) -> ContingencyTable:
    """Country counts by (category of a, category of b) over the full panel."""
    ids = frozenset(panel.ids)
    for name, assign in (("first", a), ("second", b)):
        if assign.covered_ids() != ids:
            missing = sorted(ids - assign.covered_ids())[:5]
            extra = sorted(assign.covered_ids() - ids)[:5]
            raise ValidationError(
                f"{name} assignment does not cover the panel "
                f"(missing {missing}, extraneous {extra})"
            )
    rows = a.categories()
    cols = b.categories()
    col_index = {name: j for j, (name, _) in enumerate(cols)}
    counts = np.zeros((len(rows), len(cols)), dtype=int)
    for i, (_, members) in enumerate(rows):
        for cid in members:
            counts[i, col_index[b.category_of(cid)]] += 1
    return ContingencyTable(row_labels=tuple(name for name, _ in rows),
                            col_labels=tuple(name for name, _ in cols),
                            counts=counts)


def zone_cross_tab(assign: ClusterAssignment, panel: TemperaturePanel) -> ContingencyTable:
    """Country counts by (geographical zone, assignment category)."""
    if assign.covered_ids() != frozenset(panel.ids):
        raise ValidationError("assignment does not cover the panel")
    zones = panel.zones()
    missing = sorted(cid for cid, z in zones.items() if z is None)
    if missing:
        raise ValidationError(f"zone metadata missing for: {missing[:5]}"
                              + ("..." if len(missing) > 5 else ""))
    present = [z for z in _ZONE_ORDER if z in set(zones.values())]
    cols = assign.categories()
    col_index = {name: j for j, (name, _) in enumerate(cols)}
    counts = np.zeros((len(present), len(cols)), dtype=int)
    row_index = {z: i for i, z in enumerate(present)}
    for cid in panel.ids:
        counts[row_index[zones[cid]], col_index[assign.category_of(cid)]] += 1
    return ContingencyTable(row_labels=tuple(present),
                            col_labels=tuple(name for name, _ in cols),
                            counts=counts)


@dataclass(frozen=True)
class ClusterStats:
    cluster: int
    n_countries: int
    n_values: int
    mean: float
    sd: float
    degenerate: bool  # fewer than two pooled values; sd reported as 0


def cluster_summary(assign: ClusterAssignment,
                    features: Mapping[str, float | np.ndarray]) -> dict[int, ClusterStats]:
    """Per-cluster mean and sample SD of a feature, pooling vector features.

    Scalar features contribute one value per country; vector features (e.g.
    annual changes) pool every element of every member.
    """
    out: dict[int, ClusterStats] = {}
    for index in range(1, assign.n_clusters + 1):
        members = assign.members(index)
        pooled: list[float] = []
        for cid in members:
            if cid not in features:
                raise ValidationError(f"feature missing for clustered id {cid!r}")
            value = features[cid]
            pooled.extend(np.atleast_1d(np.asarray(value, dtype=float)).tolist())
        values = np.array(pooled, dtype=float)
        degenerate = values.size < 2
        sd = 0.0 if degenerate else float(np.std(values, ddof=1))
        out[index] = ClusterStats(cluster=index, n_countries=len(members),
                                  n_values=int(values.size),
                                  mean=float(values.mean()), sd=sd,
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
        "labels": dict(sorted(assign.labels.items())),
        "idiosyncratic": sorted(assign.idiosyncratic),
        "null_excluded": sorted(assign.null_excluded),
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
