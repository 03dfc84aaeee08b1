"""Clustering of country temperature trajectories and space-time
autoregressive forecasting with cluster-based spatial weights."""

import os

# Every BLAS product here is small (168 x 168 x 121 at the paper's size),
# and after each call an idle OpenBLAS worker busy-waits on another core,
# spending CPU time and saving no wall time. So BLAS runs on the calling
# thread unless the caller chose a thread count. This takes effect only if
# starclust is imported before numpy loads OpenBLAS, which the command line does.
if not any(name in os.environ for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                           "OMP_NUM_THREADS", "MKL_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .clustering import (ClusterAssignment, ClusterStats, ContingencyTable,
                         Dendrogram, Merge, agglomerate, cluster_summary,
                         cross_tab, cut, relabel_by_feature, zone_cross_tab)
from .config import RunConfig, config_from_dict, load_config
from .distances import (DistanceMatrix, diff_distance, hamming_distance,
                        sign_distance, slope_distance)
from .errors import NumericalError, StarclustError, ValidationError
from .evaluation import (EvaluationReport, LossSeries, McsReport, OosResult,
                         build_report, frobenius_norm, in_sample_fn, loss_series,
                         mcs, oos_experiment)
from .panel import (TemperaturePanel, attach_zones, load_adjacency, load_panel,
                    split_panel)
from .pipeline import (SCHEMES, SchemeResult, build_weights, compute_scheme,
                       scheme_features, weight_builder)
from .star import EquationFit, StarModel, fit_star, fitted_levels, forecast
from .trends import (TrendFit, fit_panel_trends, panel_differences,
                     sign_sequence, student_t_sf2)
from .weights import (KINDS, WeightMatrix, cluster_restricted_weights,
                      contiguity_weights, distance_weights)

__version__ = "0.1.0"

__all__ = [
    "ClusterAssignment", "ClusterStats", "ContingencyTable",
    "Dendrogram", "DistanceMatrix",
    "EquationFit", "EvaluationReport", "KINDS",
    "LossSeries", "McsReport", "Merge", "NumericalError", "OosResult",
    "RunConfig", "SCHEMES", "SchemeResult", "StarModel", "StarclustError",
    "TemperaturePanel", "TrendFit", "ValidationError", "WeightMatrix",
    "agglomerate", "attach_zones", "build_report", "build_weights",
    "cluster_restricted_weights", "cluster_summary", "compute_scheme",
    "config_from_dict", "contiguity_weights", "cross_tab", "cut",
    "diff_distance", "distance_weights",
    "fit_panel_trends", "fit_star", "fitted_levels", "forecast",
    "frobenius_norm", "hamming_distance", "in_sample_fn", "load_adjacency",
    "load_config", "load_panel", "loss_series", "mcs", "oos_experiment",
    "panel_differences", "relabel_by_feature", "scheme_features",
    "sign_distance", "sign_sequence", "slope_distance", "split_panel",
    "student_t_sf2", "weight_builder", "zone_cross_tab",
]
