"""End-to-end recipes: panel -> trends -> clusters -> weight matrices.

Three clustering schemes share one code path:

  A: distance between estimated warming rates (absolute slope difference),
     countries with non-significant slopes excluded as "null";
  B: Euclidean distance between first-difference series;
  C: Hamming distance between signs of the annual changes.

Each scheme cuts the average-linkage dendrogram so that exactly k clusters of
at least min_size countries remain; smaller components become idiosyncratic.
Scheme A clusters are renumbered by mean slope, fastest warming first.
Every recipe reads k, min_size, the trend alpha and rescaling from a `RunConfig`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .clustering import (ClusterAssignment, CutRule, Dendrogram, agglomerate,
                         cut, relabel_by_feature)
from .config import RunConfig
from .distances import (DistanceMatrix, diff_distance, sign_distance,
                        slope_distance)
from .errors import ValidationError
from .panel import TemperaturePanel
from .trends import TrendFit, fit_panel_trends, panel_differences
from .weights import (KINDS, WeightMatrix, cluster_restricted_weights,
                      contiguity_weights, distance_weights)

SCHEMES = ("A", "B", "C")


@dataclass(frozen=True)
class SchemeResult:
    scheme: str
    assignment: ClusterAssignment
    dendrogram: Dendrogram
    distance: DistanceMatrix
    trends: dict[str, TrendFit] | None  # fitted for scheme A, None otherwise


def compute_scheme(panel: TemperaturePanel, scheme: str, cfg: RunConfig,
                   rule: CutRule | None = None) -> SchemeResult:
    """Cluster the panel under one scheme with the run config's parameters.

    Scheme A tests slopes at `cfg.trend_alpha`. The default cut searches for
    exactly `cfg.cluster_count(scheme)` main clusters of at least
    `cfg.min_cluster_size` countries; an explicit CutRule replaces it whole.
    """
    if scheme not in SCHEMES:
        raise ValidationError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if rule is None:
        rule = CutRule.main_count(cfg.cluster_count(scheme), min_size=cfg.min_cluster_size)

    trends: dict[str, TrendFit] | None = None
    if scheme == "A":
        trends = fit_panel_trends(panel, alpha=cfg.trend_alpha)
        kept = [cid for cid, fit in trends.items() if fit.significant]
        if len(kept) < 2:
            raise ValidationError("fewer than 2 countries with significant trends")
        dist = slope_distance([trends[cid] for cid in kept], kept)
    elif scheme == "B":
        dist = diff_distance(panel)
    else:
        dist = sign_distance(panel)

    dendro = agglomerate(dist)
    assignment = cut(dendro, rule, scheme=scheme, ids=panel.ids)
    if scheme == "A" and assignment.n_clusters > 0:
        slopes = np.array([fit.slope for fit in trends.values()])
        assignment = relabel_by_feature(assignment, slopes)
    return SchemeResult(scheme=scheme, assignment=assignment, dendrogram=dendro,
                        distance=dist, trends=trends)


def scheme_features(result: SchemeResult, panel: TemperaturePanel) -> np.ndarray:
    """Feature used for cluster summaries, one row per panel id: the N-vector
    of slopes under scheme A, the N x (T-1) first differences otherwise."""
    if result.scheme == "A":
        assert result.trends is not None
        return np.array([fit.slope for fit in result.trends.values()])
    return panel_differences(panel)


def _scheme_of_kind(kind: str) -> str:
    return kind[-1]


def build_weights(panel: TemperaturePanel, cfg: RunConfig,
                  kinds: Sequence[str] = KINDS,
                  adjacency: np.ndarray | None = None,
                  scheme_cache: dict[str, SchemeResult] | None = None) -> dict[str, WeightMatrix]:
    """Construct the requested weight matrices of a run config, reusing scheme computations.

    Clustered kinds cut their scheme as `compute_scheme` does, and distances
    are rescaled as `cfg.rescale_distances` and `cfg.rescale_rho` say. dA uses
    slope distances over every country: the null-slope countries still have
    estimated slopes.
    """
    unknown = [kind for kind in kinds if kind not in KINDS]
    if unknown:
        raise ValidationError(f"unknown weight kinds {unknown}; expected among {KINDS}")
    cache = scheme_cache if scheme_cache is not None else {}
    rescale, rho = cfg.rescale_distances, cfg.rescale_rho

    def scheme_result(scheme: str) -> SchemeResult:
        if scheme not in cache:
            cache[scheme] = compute_scheme(panel, scheme, cfg)
        return cache[scheme]

    def full_distance(scheme: str) -> DistanceMatrix:
        # Full-distance kinds need no dendrogram cut, only the metric itself;
        # reuse a scheme result's trends or matrix when clustering already ran.
        if scheme == "A":
            fits = (cache["A"].trends if "A" in cache
                    else fit_panel_trends(panel, alpha=cfg.trend_alpha))
            return slope_distance([fits[cid] for cid in panel.ids], list(panel.ids))
        if scheme in cache:
            return cache[scheme].distance
        return diff_distance(panel) if scheme == "B" else sign_distance(panel)

    out: dict[str, WeightMatrix] = {}
    for kind in kinds:
        if kind == "NN":
            if adjacency is None:
                raise ValidationError("contiguity weights need an adjacency list")
            out[kind] = contiguity_weights(adjacency, panel)
        elif kind.startswith("c"):
            result = scheme_result(_scheme_of_kind(kind))
            out[kind] = cluster_restricted_weights(result.distance, result.assignment, panel,
                                                   kind=kind, rescale=rescale, rho=rho)
        else:
            out[kind] = distance_weights(full_distance(_scheme_of_kind(kind)), panel,
                                         kind=kind, rescale=rescale, rho=rho)
    return out


def weight_builder(cfg: RunConfig, kinds: Sequence[str] = KINDS,
                   adjacency: np.ndarray | None = None
                   ) -> Callable[[TemperaturePanel], dict[str, WeightMatrix]]:
    """Builder for the out-of-sample experiment: clusters, distances, and
    weights are re-estimated on whatever (training) panel it is handed."""
    def build(panel: TemperaturePanel) -> dict[str, WeightMatrix]:
        return build_weights(panel, cfg, kinds, adjacency)
    return build
