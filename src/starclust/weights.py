"""Row-normalized spatial weight matrices.

Seven kinds are defined: contiguity weights (NN), distance-based weights over
the full panel (dA, dB, dC), and distance-based weights restricted to pairs in
the same cluster (cA, cB, cC). Rows either sum to one or are identically zero;
a zero row marks a unit with no usable neighbours (isolated, idiosyncratic,
excluded, or alone in its cluster).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from pathlib import Path

import numpy as np

from .clustering import ClusterAssignment
from .distances import DistanceMatrix
from .errors import NumericalError, ValidationError
from .panel import TemperaturePanel, write_csv, write_json

KINDS = ("NN", "cA", "cB", "cC", "dA", "dB", "dC")
_RHO = 0.95  # rescaling maps the largest distance to _RHO * N ("rho" in weights_*.json)


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Row-stochastic or zero-row weights; a float64 `values` array is kept,
    not copied, and made read-only."""

    kind: str
    labels: tuple[str, ...]
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValidationError(f"unknown weight kind {self.kind!r}; expected one of {KINDS}")
        object.__setattr__(self, "labels", tuple(self.labels))
        values = np.asarray(self.values, dtype=float)
        n = len(self.labels)
        if values.shape != (n, n):
            raise ValidationError(f"weight matrix shape {values.shape} does not match {n} labels")
        # min() and max() carry NaN, so neither check needs an N x N temporary.
        low, high = (values.min(), values.max()) if n else (0.0, 0.0)
        if not (np.isfinite(low) and np.isfinite(high)):
            raise ValidationError("weight matrix contains non-finite entries")
        if low < 0:
            raise ValidationError("weight matrix contains negative entries")
        if np.any(np.diagonal(values) != 0):
            raise ValidationError("weight matrix diagonal must be zero")
        sums = values.sum(axis=1)
        bad = ~((np.abs(sums - 1.0) <= 1e-12) | (sums == 0.0))
        if np.any(bad):
            where = [self.labels[i] for i in np.nonzero(bad)[0][:5]]
            raise ValidationError(f"rows neither stochastic nor zero: {where}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def size(self) -> int:
        return len(self.labels)

    def zero_rows(self) -> tuple[str, ...]:
        return tuple(compress(self.labels, (self.values.sum(axis=1) == 0.0).tolist()))


def contiguity_weights(borders: np.ndarray, panel: TemperaturePanel) -> WeightMatrix:
    """1/m to each of a country's m bordering countries, zero row if none.

    `borders` is the boolean N x N matrix `load_adjacency` returns, in panel
    order; the countries with no border are listed as isolated.
    """
    isolated = list(compress(panel.ids, (~borders.any(axis=1)).tolist()))
    return WeightMatrix(kind="NN", labels=panel.ids, values=_normalize_rows(borders.astype(float)),
                        meta={"source": "contiguity", "isolated": isolated})


def _similarity(dist: DistanceMatrix, panel: TemperaturePanel,
                rescale: bool) -> tuple[np.ndarray, dict]:
    """Unnormalized similarities (N - d_ij)/N embedded in full panel order.

    N is the panel country count. Ids missing from the distance matrix get
    zero rows and columns. Distances above N are an error unless rescaling is
    enabled, which maps the maximum distance to _RHO * N, so no similarity is
    below 1 - _RHO. The result is one new array, embedded into a fresh N x N
    only when the distance labels are not the panel ids.
    """
    n = panel.n_countries
    d = dist.values
    dmax = float(d.max()) if d.size else 0.0
    scale_applied = bool(rescale and dmax > 0)
    if not scale_applied and dmax > n:
        raise ValidationError(f"distance {dmax} exceeds panel size {n}; enable rescaling "
                              f"(weights.rescale or --rescale) to map it to {_RHO}*N")
    scale = n * _RHO / dmax if scale_applied else 1.0
    if np.isinf(scale):
        raise NumericalError(f"largest distance {dmax} too small to rescale")
    # In place, the float64 operations of (n - d) / n in order; d * 1.0 copies d.
    sim = d * scale
    np.subtract(n, sim, out=sim)
    np.divide(sim, n, out=sim)
    np.fill_diagonal(sim, 0.0)

    if dist.labels != panel.ids:
        pos = panel.id_index
        rows = [pos[lab] for lab in dist.labels if lab in pos]
        if len(rows) != dist.size:
            unknown = sorted(set(dist.labels) - set(panel.ids))
            raise ValidationError(f"distance labels absent from panel: {unknown[:5]}")
        full = np.zeros((n, n))
        full[np.ix_(rows, rows)] = sim
        sim = full
    meta = {"metric": dist.metric, "rescaled": scale_applied,
            "rho": _RHO if scale_applied else None, "max_distance": dmax}
    return sim, meta


def _normalize_rows(sim: np.ndarray) -> np.ndarray:
    """Divide each row of `sim` in place by its sum; rows not summing above 0 become 0."""
    sums = sim.sum(axis=1, keepdims=True)
    positive = sums > 0
    np.divide(sim, sums, out=sim, where=positive)
    sim[~positive[:, 0]] = 0.0
    return sim


def distance_weights(dist: DistanceMatrix, panel: TemperaturePanel, kind: str,
                     rescale: bool = False) -> WeightMatrix:
    """Full-panel distance-based weights: (N - d_ij)/N, then row normalization."""
    sim, meta = _similarity(dist, panel, rescale)
    meta["restricted"] = False
    return WeightMatrix(kind=kind, labels=panel.ids,
                        values=_normalize_rows(sim), meta=meta)


def cluster_restricted_weights(dist: DistanceMatrix, assign: ClusterAssignment,
                               panel: TemperaturePanel, kind: str,
                               rescale: bool = False) -> WeightMatrix:
    """Distance-based weights keeping only same-cluster pairs.

    Idiosyncratic, excluded, and singleton-cluster units get zero rows.
    """
    if assign.ids != panel.ids:
        raise ValidationError("assignment ids do not match the panel order")
    codes = assign.codes
    missing = sorted(set(compress(assign.ids, (codes > 0).tolist())) - set(dist.labels))
    if missing:
        raise ValidationError(f"no distances available for clustered ids: {missing[:5]}")
    sim, meta = _similarity(dist, panel, rescale)
    sim[(codes[:, None] != codes[None, :]) | (codes[:, None] <= 0)] = 0.0
    meta["restricted"] = True
    meta["scheme"] = assign.scheme
    return WeightMatrix(kind=kind, labels=panel.ids,
                        values=_normalize_rows(sim), meta=meta)


def write_weight_csv(weights: WeightMatrix, path: str | Path) -> None:
    write_csv(path, ["country", *weights.labels],
              ([lab, *row] for lab, row in zip(weights.labels, weights.values.tolist())))


def write_weight_meta(weights: WeightMatrix, path: str | Path) -> None:
    write_json(path, {"kind": weights.kind, "n": weights.size,
                      "zero_rows": list(weights.zero_rows()), **weights.meta})
