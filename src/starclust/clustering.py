"""Average-linkage agglomerative clustering, dendrogram cuts, and cross-tabs.

The merge order is fully deterministic: when two candidate pairs share the
minimal inter-cluster distance, the pair whose (smaller, larger) representative
labels sort lexicographically first wins, where a cluster's representative is
its smallest member label. Label-based tie-breaking makes partitions invariant
to the input ordering even on integer-valued (Hamming) matrices.

Linkage keeps one lower bound per row on the row's smallest distance, the
generic algorithm of Muellner 2011 (arXiv:1109.2378) in its lower-bound
form: a step rescans only the row with the smallest bound, and a merge costs
O(K). That is O(K^2) time for K items in the typical case. It works on one
K x K matrix: a copy of the distances, or the distances themselves when the
caller gives them up. Heights and tie-breaks are exactly those of a full
rescan of the Lance-Williams distances at every step.
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

    Each live row r keeps a bound with bound[r] <= min(work[r]). A step
    rescans the first row holding the smallest bound. When the row's first
    minimum equals its bound, no row holds a smaller distance, and no lower
    row holds an equal one, since its bound would be that distance and come
    first; the minimum's column is then a higher row, whose own row holds the
    same distance. So that pair owns the smallest key and is merged.
    Otherwise the bound rises to the row's minimum and the step looks again.

    A merge lowers no distance in exact arithmetic: the Lance-Williams mean
    lies between its two inputs. In floating point it can round below both,
    (1 * 0.7 + 2 * 0.7) / 3 < 0.7, so every bound is lowered to its entry of
    the merged row, and the merged row's bound is its minimum. A dead row's
    bound is inf. Bounds that a merge left too low cost a rescan later.

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
    bound = work.min(axis=1)
    merges: list[Merge] = []

    for step in range(k - 1):
        while True:
            i = int(bound.argmin())
            row = work[i]
            j = int(row.argmin())
            height = row[j]
            if height == bound[i]:
                break
            bound[i] = height
        new_size = sizes[i] + sizes[j]
        merges.append(Merge(left=node_of[i], right=node_of[j],
                            height=float(height), size=new_size))

        # Dead and diagonal entries are inf and stay inf through the update.
        merged_row = (sizes[i] * row + sizes[j] * work[j]) / new_size
        work[i, :] = merged_row
        work[:, i] = merged_row
        work[j, :] = np.inf
        work[:, j] = np.inf
        node_of[i] = k + step
        sizes[i] = new_size
        np.minimum(bound, merged_row, out=bound)
        bound[i] = merged_row.min()
        bound[j] = np.inf

    return Dendrogram(leaf_labels=dist.labels, merges=tuple(merges))


# Group codes besides the cluster numbers 1..k.
IDIOSYNCRATIC = 0  # left as a singleton by the cut
NULL = -1          # not clustered at all (scheme A: a non-significant slope)


@dataclass(frozen=True, eq=False)
class ClusterAssignment:
    """Flat partition: `codes[i]` is the cluster (1..k), IDIOSYNCRATIC or NULL
    of `ids[i]`, with ids in panel order."""

    scheme: str
    ids: tuple[str, ...]
    codes: np.ndarray
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


def cut(dendro: Dendrogram, k: int, scheme: str, ids: Sequence[str]) -> ClusterAssignment:
    """Flatten a dendrogram into exactly `k` clusters of at least two leaves,
    as scheme `scheme`'s ClusterAssignment over `ids`.

    Singletons become idiosyncratic; the clusters are renumbered 1..k by
    decreasing size (ties by smallest label). Ids that are not leaves get NULL.
    """
    if k < 1:
        raise ValidationError(f"cut needs a positive k, got {k}")
    m = _main_count_components(dendro, k)
    clusters = [c for c in dendro.components_at(m) if len(c) > 1]
    clusters.sort(key=lambda c: (-len(c), min(dendro.leaf_labels[i] for i in c)))

    leaf_codes = np.full(dendro.n_leaves, IDIOSYNCRATIC)
    for code, comp in enumerate(clusters, start=1):
        leaf_codes[comp] = code
    ids = tuple(ids)
    code_of = dict(zip(dendro.leaf_labels, leaf_codes.tolist()))
    codes = [code_of.pop(cid, NULL) for cid in ids]
    if code_of:
        raise ValidationError(f"dendrogram leaves absent from ids: {sorted(code_of)[:5]}")
    return ClusterAssignment(scheme=scheme, ids=ids, codes=codes, resolved_components=m)


def _gap_ratios(heights: np.ndarray) -> np.ndarray:
    """Relative gap heights[j + 1] / heights[j] between consecutive merges:
    inf from a zero height to a positive one, 1 between two zeros."""
    low, high = heights[:-1], heights[1:]
    ratios = np.where((low == 0) & (high > 0), np.inf, 1.0)
    return np.divide(high, low, out=ratios, where=low > 0)


def _main_count_components(dendro: Dendrogram, k_main: int) -> int:
    """Component count m whose cut yields exactly k_main clusters of size >= 2.

    A cluster is a merged node (id >= K), so each merge adds one cluster and
    absorbs those among its two children. Among all qualifying m, prefer the
    cut sitting at the largest relative height gap (the most natural place to
    cut the tree), ties to the coarsest.
    """
    k = dendro.n_leaves
    heights = dendro.heights()
    big = 0
    big_by_m = {k: big}
    for step, merge in enumerate(dendro.merges):
        big += 1 - (merge.left >= k) - (merge.right >= k)
        big_by_m[k - step - 1] = big

    candidates = [m for m in range(1, k + 1) if big_by_m[m] == k_main]
    if not candidates:
        raise ValidationError(
            f"no dendrogram cut produces exactly {k_main} clusters of size >= 2"
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


@dataclass(frozen=True, eq=False)
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
        "cut": {"kind": "main_count", "k": assign.n_clusters, "height": None,
                "min_size": 2,
                "resolved_components": assign.resolved_components},
    })


def write_contingency_csv(table: ContingencyTable, path: str | Path) -> None:
    """CSV export with a trailing margin row and column."""
    counts = table.counts.tolist()
    rows = [[label, *row, sum(row)] for label, row in zip(table.row_labels, counts)]
    rows.append(["total", *table.col_margins().tolist(), table.total])
    write_csv(path, ["group\\group", *table.col_labels, "total"], rows)
