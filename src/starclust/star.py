"""Space-time autoregression on first-differenced temperature panels.

Each country i gets its own OLS equation on the differenced series x = dy:

    x_{i,t} = c_i + phi_i x_{i,t-1} + psi_i sum_j w_ij x_{j,t-1} + e_{i,t}

The N equations are estimated together: their designs are stacked into one
N x (T-2) x 3 array, a boolean mask marks the columns each country keeps, and
every column pattern is solved by one batched SVD. Countries whose weight row
is zero never carry the spatial term and reduce to a univariate AR(1) on
differences. Fitted levels add the predicted difference to the previous
observed level; forecasts iterate the difference equation deterministically
and integrate from the last observed level.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import NumericalError, ValidationError, allocate
from .panel import TemperaturePanel, write_csv
from .trends import panel_differences
from .weights import WeightMatrix


@dataclass(frozen=True)
class EquationFit:
    """Per-country coefficients; psi is None when the weight row is zero."""

    country: str
    c: float
    phi: float
    psi: float | None
    sigma2: float
    dropped: tuple[str, ...] = ()  # regressors removed to cure rank deficiency

    def __post_init__(self) -> None:
        if self.sigma2 < 0:
            raise ValidationError(f"negative residual variance for {self.country}")


# Removed regressors by code: 1 = spatial term dropped, 2 = temporal term dropped.
_DROPPED = ((), ("spatial",), ("temporal",), ("spatial", "temporal"))


@dataclass(frozen=True, eq=False)
class StarModel:
    """Coefficient arrays in weight-label order.

    psi is 0 where has_psi is False (a zero weight row or a dropped spatial
    term); dropped holds each country's removed regressor names.
    """

    weights: WeightMatrix
    c: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    has_psi: np.ndarray
    sigma2: np.ndarray
    dropped: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.weights.labels)
        arrays = (self.c, self.phi, self.psi, self.has_psi, self.sigma2)
        if any(np.shape(a) != (n,) for a in arrays) or len(self.dropped) != n:
            raise ValidationError("coefficient arrays do not match weight matrix labels")

    @cached_property
    def equations(self) -> dict[str, EquationFit]:
        """The arrays as one EquationFit per country id."""
        rows = zip(self.weights.labels, self.c.tolist(), self.phi.tolist(),
                   self.psi.tolist(), self.has_psi.tolist(), self.sigma2.tolist(),
                   self.dropped)
        return {cid: EquationFit(country=cid, c=c, phi=phi, psi=psi if has else None,
                                 sigma2=sigma2, dropped=dropped)
                for cid, c, phi, psi, has, sigma2, dropped in rows}

    def nonstationary_countries(self) -> tuple[str, ...]:
        """Countries whose difference equation has |phi| + |psi| >= 1."""
        flagged = np.abs(self.phi) + np.abs(self.psi) >= 1.0
        return tuple(sorted(compress(self.weights.labels, flagged.tolist())))


def fit_star(panel: TemperaturePanel, weights: WeightMatrix) -> StarModel:
    """Estimate the per-country difference equations by OLS, all at once.

    Usable rows run over t = 3..T of the level panel (T - 2 equation rows):
    differencing consumes the first year and the lag the second. The designs
    are stacked as N x (T-2) x 3 (constant, own lag, spatial lag) and a mask
    marks each country's kept columns; a zero weight row starts without the
    spatial lag. Each column pattern, widest first, gets one batched SVD whose
    singular values give the rank (with numpy.linalg.matrix_rank's tolerance)
    and, where the rank equals the kept columns, the least-squares solution.
    A singular design (e.g. a constant spatial lag) drops the offending
    regressor, spatial term first, moves to the next pattern, and records
    what was removed.
    """
    if tuple(weights.labels) != tuple(panel.ids):
        raise ValidationError("weight matrix labels must match panel id order")
    if panel.n_years < 4:
        raise ValidationError(f"need at least 4 years to fit, got {panel.n_years}")

    diffs = panel_differences(panel)      # N x (T-1), columns are years[1:]
    overflow = np.flatnonzero(~np.isfinite(diffs).all(axis=1))
    if overflow.size:
        raise NumericalError(f"non-finite differences for {panel.ids[overflow[0]]}")
    spatial = weights.values @ diffs
    response = diffs[:, 1:]               # x_t  for t = 3..T
    own_lag = diffs[:, :-1]               # x_{t-1}
    spatial_lag = spatial[:, :-1]         # sum_j w_ij x_{j,t-1}
    n_rows = response.shape[1]
    design = np.stack([np.ones_like(response), own_lag, spatial_lag], axis=2)
    weighted = weights.values.sum(axis=1) != 0.0

    keep = np.ones((panel.n_countries, 3), dtype=bool)
    keep[:, 2] = weighted
    coefs = np.zeros((panel.n_countries, 3))
    for width in (3, 2, 1):
        rows = np.flatnonzero(keep.sum(axis=1) == width)
        if rows.size == 0:
            continue
        u, s, vh = np.linalg.svd(design[rows, :, :width], full_matrices=False)
        tol = s.max(axis=1, keepdims=True) * max(n_rows, width) * np.finfo(float).eps
        # Compare with the kept columns: T = 4 gives 2 singular values for 3.
        full = np.count_nonzero(s > tol, axis=1) == width
        # Drop the last kept column: spatial, then temporal. The constant
        # alone is never singular: its one singular value is sqrt(T - 2).
        keep[rows[~full], width - 1] = False
        solved = rows[full]
        scaled = np.einsum("nmk,nm->nk", u[full], response[solved]) / s[full]
        coefs[solved, :width] = np.einsum("nkj,nk->nj", vh[full], scaled)

    faults = np.flatnonzero(~np.isfinite(coefs).all(axis=1))
    if faults.size:
        raise NumericalError(f"non-finite coefficients for {panel.ids[faults[0]]}")

    c, phi, psi = coefs.T.copy()
    dof = n_rows - keep.sum(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        resid = response - (c[:, None] + phi[:, None] * own_lag + psi[:, None] * spatial_lag)
        sigma2 = np.einsum("nm,nm->n", resid, resid) / np.where(dof > 0, dof, n_rows)
    overflow = np.flatnonzero(~np.isfinite(sigma2))
    if overflow.size:
        raise NumericalError(f"non-finite residual variance for {panel.ids[overflow[0]]}")
    codes = (weighted & ~keep[:, 2]) + 2 * ~keep[:, 1]
    return StarModel(weights=weights, c=c, phi=phi, psi=psi, has_psi=keep[:, 2],
                     sigma2=sigma2, dropped=tuple(_DROPPED[code] for code in codes.tolist()))


def fitted_levels(model: StarModel, panel: TemperaturePanel) -> np.ndarray:
    """One-step in-sample fits: y_hat_{i,t} = y_{i,t-1} + x_hat_{i,t}, t = 3..T.

    Returns the N x (T-2) level array for `panel.years[2:]`, rows in panel
    order: one year is lost to differencing and one to the lag.
    """
    if tuple(model.weights.labels) != tuple(panel.ids):
        raise ValidationError("model weight labels must match panel id order")
    diffs = panel_differences(panel)
    spatial = model.weights.values @ diffs
    c, phi, psi = model.c, model.phi, model.psi
    pred_diffs = c[:, None] + phi[:, None] * diffs[:, :-1] + psi[:, None] * spatial[:, :-1]
    return panel.values[:, 1:-1] + pred_diffs


def forecast(model: StarModel, panel: TemperaturePanel, horizon: int) -> np.ndarray:
    """Iterate the difference equations h = 1..horizon steps past the panel end.

    Forecast differences feed back into both the temporal and the spatial lag;
    levels integrate the differences from the last observed level. Returns
    the N x horizon level array for the years after `panel.years[-1]`. The
    steps fill that array, which then holds their running sums: one
    allocation, so an impossible horizon, one past the address space
    included, fails at once with MemoryError.
    """
    if horizon < 1:
        raise ValidationError(f"forecast horizon must be at least 1, got {horizon}")
    if tuple(model.weights.labels) != tuple(panel.ids):
        raise ValidationError("model weight labels must match panel id order")
    c, phi, psi = model.c, model.phi, model.psi
    weights = model.weights.values
    current = panel_differences(panel)[:, -1]
    levels = allocate((panel.n_countries, horizon))
    for step in range(horizon):
        current = c + phi * current + psi * (weights @ current)
        levels[:, step] = current
    np.cumsum(levels, axis=1, out=levels)
    levels += panel.values[:, -1][:, None]
    return levels


def write_coefficients_csv(model: StarModel, path: str | Path) -> None:
    """One row per country in weight-label order; psi is empty where it is None."""
    write_csv(path, ["country", "c", "phi", "psi", "sigma2", "dropped"],
              ([eq.country, eq.c, eq.phi, eq.psi, eq.sigma2, ";".join(eq.dropped)]
               for eq in model.equations.values()))


def write_level_csv(countries: tuple[str, ...], years: Sequence[int],
                    levels: np.ndarray, path: str | Path) -> None:
    """Long-format CSV of a fitted or forecast level panel."""
    write_csv(path, ["country", "year", "temperature"],
              ([cid, year, value] for cid, row in zip(countries, levels.tolist())
               for year, value in zip(years, row)))
