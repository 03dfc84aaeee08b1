"""End-to-end recipes: panel -> trends -> clusters -> weight matrices, and
the paper's evaluation run over the seven weight kinds.

Three clustering schemes share one code path:

  A: distance between estimated warming rates (absolute slope difference),
     countries with non-significant slopes excluded as "null";
  B: Euclidean distance between first-difference series;
  C: Hamming distance between signs of the annual changes.

Each scheme cuts the average-linkage dendrogram so that exactly k clusters of
at least two countries remain; the countries left alone become idiosyncratic.
Scheme A clusters are renumbered by mean slope, fastest warming first.
Every recipe reads k and rescaling from a `RunConfig`; slopes are tested at
the paper's fixed 5% level.

Ownership of distance matrices: `compute_scheme` links in place a matrix it
computed itself, which nobody else sees, so clustering one scheme holds one
K x K matrix. It links a copy of a matrix its caller passes in and keeps.
`build_weights` holds the scheme B and C matrices that its weights need and
lends them to `compute_scheme` that way. A scheme result keeps no distances.

`evaluate` is the paper's run, used by the `evaluate` command and the
acceptance gate; the `mcs` command tests the losses file `evaluate` writes.
It reaches the evaluation stages as attributes of the `evaluation` module,
and `build_weights` and `weight_builder` through this module's globals,
both looked up at call time, so a caller that replaces one of them (a
tracer, a test) sees every call.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Callable, Sequence

import numpy as np

from . import evaluation
from .clustering import (NULL, ClusterAssignment, Dendrogram, agglomerate, cut,
                         relabel_by_feature)
from .config import RunConfig
from .distances import (DistanceMatrix, diff_distance, sign_distance,
                        slope_distance)
from .errors import ValidationError
from .panel import TemperaturePanel
from .trends import fit_panel_trends, panel_differences
from .weights import (KINDS, WeightMatrix, cluster_restricted_weights,
                      contiguity_weights, distance_weights)

SCHEMES = ("A", "B", "C")


@dataclass(frozen=True, eq=False)
class SchemeResult:
    scheme: str
    assignment: ClusterAssignment
    dendrogram: Dendrogram
    slopes: np.ndarray | None  # scheme A's N slopes in panel order, None otherwise


def compute_scheme(panel: TemperaturePanel, scheme: str, cfg: RunConfig,
                   distance: DistanceMatrix | None = None) -> SchemeResult:
    """Cluster the panel under one scheme with the run config's parameters.

    Scheme A tests slopes at the paper's 5% level, `trends.ALPHA`. The cut
    searches for exactly `cfg.cluster_count(scheme)` main clusters of at
    least two countries.
    A scheme B or C `distance` the caller already holds is linked as a copy
    and left unchanged; without it, the matrix is computed and linked in place.
    """
    if scheme not in SCHEMES:
        raise ValidationError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")

    slopes = None
    if scheme == "A":
        slopes, significant = _panel_slopes(panel)
        dist = _scheme_distance(panel, scheme, slopes, significant)
    else:
        dist = _scheme_distance(panel, scheme) if distance is None else distance

    dendro = agglomerate(dist, consume=dist is not distance)
    assignment = cut(dendro, cfg.cluster_count(scheme), scheme=scheme, ids=panel.ids)
    if scheme == "A":
        assignment = relabel_by_feature(assignment, slopes)
    return SchemeResult(scheme=scheme, assignment=assignment, dendrogram=dendro,
                        slopes=slopes)


def _panel_slopes(panel: TemperaturePanel) -> tuple[np.ndarray, np.ndarray]:
    """Scheme A's trend slopes in panel order and the mask of significant ones."""
    fits = fit_panel_trends(panel).values()
    return (np.array([fit.slope for fit in fits], dtype=float),
            np.array([fit.significant for fit in fits], dtype=bool))


def _scheme_distance(panel: TemperaturePanel, scheme: str,
                     slopes: np.ndarray | None = None,
                     keep: np.ndarray | None = None) -> DistanceMatrix:
    """The distance matrix of one scheme: difference gaps (B), sign
    mismatches (C), or scheme A's slope gaps over the countries `keep`
    marks, every country when it is None."""
    if scheme == "B":
        return diff_distance(panel)
    if scheme == "C":
        return sign_distance(panel)
    if keep is None:
        return slope_distance(slopes, panel.ids)
    if np.count_nonzero(keep) < 2:
        raise ValidationError("fewer than 2 countries with significant trends")
    return slope_distance(slopes[keep], tuple(compress(panel.ids, keep.tolist())))


def scheme_features(result: SchemeResult, panel: TemperaturePanel) -> np.ndarray:
    """Feature used for cluster summaries, one row per panel id: the N-vector
    of slopes under scheme A, the N x (T-1) first differences otherwise."""
    if result.scheme == "A":
        assert result.slopes is not None
        return result.slopes
    return panel_differences(panel)


def build_weights(panel: TemperaturePanel, cfg: RunConfig,
                  kinds: Sequence[str] = KINDS,
                  adjacency: np.ndarray | None = None) -> dict[str, WeightMatrix]:
    """Construct the requested weight matrices of a run config, keyed in `kinds` order.

    Clustered kinds cut their scheme as `compute_scheme` does, and distances
    are rescaled when `cfg.rescale_distances` is set. cA
    uses the slope distances among the significant-slope countries that
    scheme A clustered, taken from its slopes; dA uses slope distances
    over every country: the null-slope countries still have estimated slopes.
    Each scheme is clustered at most once, and scheme B and C matrices are
    computed once and shared by the clustering and both weight kinds.
    """
    unknown = [kind for kind in kinds if kind not in KINDS]
    if unknown:
        raise ValidationError(f"unknown weight kinds {unknown}; expected among {KINDS}")
    distances: dict[str, DistanceMatrix] = {}
    results: dict[str, SchemeResult] = {}
    out: dict[str, WeightMatrix] = {}
    for kind in kinds:
        scheme, clustered = kind[-1], kind[0] == "c"
        if kind == "NN":
            if adjacency is None:
                raise ValidationError("contiguity weights need an adjacency list")
            out[kind] = contiguity_weights(adjacency, panel)
            continue
        if scheme != "A" and scheme not in distances:
            distances[scheme] = _scheme_distance(panel, scheme)
        if clustered and scheme not in results:
            results[scheme] = compute_scheme(panel, scheme, cfg,
                                             distance=distances.get(scheme))
        result = results.get(scheme)
        if scheme != "A":
            dist = distances[scheme]
        elif clustered:
            dist = _scheme_distance(panel, scheme, result.slopes,
                                    result.assignment.codes != NULL)
        else:
            # dA needs no cut; it reuses scheme A's slopes when clustering ran.
            slopes = _panel_slopes(panel)[0] if result is None else result.slopes
            dist = _scheme_distance(panel, scheme, slopes)
        if clustered:
            out[kind] = cluster_restricted_weights(dist, result.assignment, panel, kind=kind,
                                                   rescale=cfg.rescale_distances)
        else:
            out[kind] = distance_weights(dist, panel, kind=kind, rescale=cfg.rescale_distances)
    return out


def weight_builder(cfg: RunConfig, adjacency: np.ndarray | None = None
                   ) -> Callable[[TemperaturePanel], dict[str, WeightMatrix]]:
    """Builder for the out-of-sample experiment: clusters, distances and all
    seven weight kinds, in KINDS order, re-estimated on whatever (training)
    panel it is handed."""
    def build(panel: TemperaturePanel) -> dict[str, WeightMatrix]:
        return build_weights(panel, cfg, KINDS, adjacency)
    return build


def confidence_set(losses: Sequence[evaluation.LossSeries],
                   cfg: RunConfig) -> evaluation.McsReport:
    """The MCS over `losses` at the paper's 1% level, with the run config's
    replications, block length, statistic and seed."""
    return evaluation.mcs(losses, reps=cfg.mcs_reps, block=cfg.mcs_block,
                          statistic=cfg.mcs_statistic, seed=cfg.seed)


def evaluate(panel: TemperaturePanel, cfg: RunConfig,
             adjacency: np.ndarray | None = None) -> evaluation.EvaluationReport:
    """The paper's run: in-sample and out-of-sample norms of every kind and
    the MCS over the out-of-sample losses, in one report.

    The out-of-sample run goes first, so that its horizon and origin checks
    fail before any clustering. Its training-slice weights are freed before
    the full-sample weights (7 N x N matrices) are built, and those once
    their norms are known. The MCS runs last: it is where the run reaches
    its peak memory (the bootstrap means, models x reps), and run before the
    in-sample fits it sets that peak higher. The report holds no weights.
    """
    oos = evaluation.oos_experiment(panel, weight_builder(cfg, adjacency),
                                    cfg.split_year, cfg.horizon)
    in_sample = evaluation.in_sample_fn(panel, build_weights(panel, cfg, KINDS, adjacency))
    return evaluation.build_report(in_sample, oos,
                                   confidence_set(list(oos.losses.values()), cfg))
