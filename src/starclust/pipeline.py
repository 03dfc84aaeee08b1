"""End-to-end recipes: panel -> trends -> clusters -> weight matrices.

Three clustering schemes share one code path:

  A: distance between estimated warming rates (absolute slope difference),
     countries with non-significant slopes excluded as "null";
  B: Euclidean distance between first-difference series;
  C: Hamming distance between signs of the annual changes.

Each scheme cuts the average-linkage dendrogram so that exactly k clusters of
at least min_size countries remain; smaller components become idiosyncratic.
Scheme A clusters are renumbered by mean slope, fastest warming first.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .clustering import (ClusterAssignment, CutRule, Dendrogram, agglomerate,
                         cut, relabel_by_feature)
from .distances import (DistanceMatrix, diff_distance, sign_distance,
                        slope_distance)
from .errors import ValidationError
from .panel import AdjacencyList, TemperaturePanel
from .trends import TrendFit, fit_panel_trends, panel_differences
from .weights import (KINDS, WeightMatrix, cluster_restricted_weights,
                      contiguity_weights, distance_weights)

SCHEMES = ("A", "B", "C")
DEFAULT_K = {"A": 4, "B": 5, "C": 12}


@dataclass(frozen=True)
class SchemeResult:
    scheme: str
    assignment: ClusterAssignment
    dendrogram: Dendrogram
    distance: DistanceMatrix
    trends: dict[str, TrendFit] | None  # fitted for scheme A, None otherwise


def compute_scheme(panel: TemperaturePanel, scheme: str, k: int | None = None,
                   alpha: float = 0.05, min_size: int = 2,
                   rule: CutRule | None = None) -> SchemeResult:
    """Cluster the panel under one scheme.

    The default cut searches for exactly k main clusters (k defaults to the
    per-scheme reproduction value); pass an explicit CutRule to override.
    """
    if scheme not in SCHEMES:
        raise ValidationError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if k is None:
        k = DEFAULT_K[scheme]
    if rule is None:
        rule = CutRule.main_count(k, min_size=min_size)

    trends: dict[str, TrendFit] | None = None
    null_ids: frozenset[str] = frozenset()
    if scheme == "A":
        trends = fit_panel_trends(panel, alpha=alpha)
        null_ids = frozenset(cid for cid, fit in trends.items() if not fit.significant)
        kept = [cid for cid in panel.ids if cid not in null_ids]
        if len(kept) < 2:
            raise ValidationError("fewer than 2 countries with significant trends")
        dist = slope_distance([trends[cid] for cid in kept], kept)
    elif scheme == "B":
        dist = diff_distance(panel)
    else:
        dist = sign_distance(panel)

    dendro = agglomerate(dist)
    assignment = cut(dendro, rule, scheme=scheme, null_excluded=null_ids)
    if scheme == "A" and assignment.n_clusters > 0:
        slopes = {cid: trends[cid].slope for cid in assignment.labels}
        assignment = relabel_by_feature(assignment, slopes, descending=True)
    return SchemeResult(scheme=scheme, assignment=assignment, dendrogram=dendro,
                        distance=dist, trends=trends)


def scheme_features(result: SchemeResult, panel: TemperaturePanel) -> dict[str, np.ndarray | float]:
    """Per-country feature used for cluster summaries: slope under scheme A,
    the first-difference series otherwise."""
    if result.scheme == "A":
        assert result.trends is not None
        return {cid: fit.slope for cid, fit in result.trends.items()}
    return dict(zip(panel.ids, panel_differences(panel)))


def _scheme_of_kind(kind: str) -> str:
    return kind[-1]


def build_weights(panel: TemperaturePanel, kinds: Sequence[str] = KINDS,
                  adjacency: AdjacencyList | None = None,
                  scheme_cache: dict[str, SchemeResult] | None = None,
                  include_null_in_dA: bool = True,
                  rescale: bool = False, rho: float = 0.95,
                  alpha: float = 0.05, min_size: int = 2,
                  k_by_scheme: Mapping[str, int] | None = None) -> dict[str, WeightMatrix]:
    """Construct the requested weight matrices, reusing scheme computations.

    dA uses slope distances over every country by default (the six null-slope
    countries still have estimated slopes); set include_null_in_dA=False to
    restrict it to significant-trend countries, as in cA.
    """
    unknown = [kind for kind in kinds if kind not in KINDS]
    if unknown:
        raise ValidationError(f"unknown weight kinds {unknown}; expected among {KINDS}")
    cache = scheme_cache if scheme_cache is not None else {}
    k_map = dict(DEFAULT_K)
    if k_by_scheme:
        k_map.update(k_by_scheme)
    trend_cache: dict[str, TrendFit] = {}

    def scheme_result(scheme: str) -> SchemeResult:
        if scheme not in cache:
            cache[scheme] = compute_scheme(panel, scheme, k=k_map[scheme],
                                           alpha=alpha, min_size=min_size)
        return cache[scheme]

    def panel_trends() -> dict[str, TrendFit]:
        if "A" in cache and cache["A"].trends is not None:
            return cache["A"].trends
        if not trend_cache:
            trend_cache.update(fit_panel_trends(panel, alpha=alpha))
        return trend_cache

    def full_distance(scheme: str) -> DistanceMatrix:
        # Full-distance kinds need no dendrogram cut, only the metric itself;
        # reuse a scheme result's matrix when clustering already ran.
        if scheme in cache and scheme != "A":
            return cache[scheme].distance
        if scheme == "B":
            return diff_distance(panel)
        if scheme == "C":
            return sign_distance(panel)
        fits = panel_trends()
        if include_null_in_dA:
            ids = list(panel.ids)
        else:
            ids = [cid for cid in panel.ids if fits[cid].significant]
        return slope_distance([fits[cid] for cid in ids], ids)

    out: dict[str, WeightMatrix] = {}
    for kind in kinds:
        if kind == "NN":
            if adjacency is None:
                raise ValidationError("contiguity weights need an adjacency list")
            out[kind] = contiguity_weights(adjacency, panel)
        elif kind.startswith("c"):
            result = scheme_result(_scheme_of_kind(kind))
            out[kind] = cluster_restricted_weights(result.distance,
                                                   result.assignment, panel,
                                                   kind=kind, rescale=rescale, rho=rho)
        else:
            dist = full_distance(_scheme_of_kind(kind))
            out[kind] = distance_weights(dist, panel, kind=kind,
                                         rescale=rescale, rho=rho)
    return out


def weight_builder(kinds: Sequence[str] = KINDS,
                   adjacency: AdjacencyList | None = None,
                   **params) -> Callable[[TemperaturePanel], dict[str, WeightMatrix]]:
    """Builder for the out-of-sample experiment: clusters, distances, and
    weights are re-estimated on whatever (training) panel it is handed."""
    def build(panel: TemperaturePanel) -> dict[str, WeightMatrix]:
        return build_weights(panel, kinds=kinds, adjacency=adjacency, **params)
    return build

