"""Forecast evaluation: Frobenius-norm loss and the model confidence set.

The MCS procedure studentizes pairwise mean loss differentials with a
moving-block bootstrap variance, forms a semi-quadratic (or range) statistic,
and eliminates the worst model while the equivalence test rejects. Bootstrap
means are streamed from prefix sums and block starts drawn in fixed chunks of
replications from a seeded generator, so reports are bit-identical across
repeated calls and memory does not grow with reps x periods.
"""
from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .panel import TemperaturePanel, split_panel
from .star import ForecastPanel, fit_star, fitted_levels, forecast
from .weights import WeightMatrix

_REP_CHUNK = 64  # bootstrap replications drawn and summed at once in mcs


def frobenius_norm(observed: np.ndarray, predicted: np.ndarray) -> float:
    """Sum of squared entrywise errors, trace[(Y-Yhat)'(Y-Yhat)]."""
    obs = np.asarray(observed, dtype=float)
    pred = np.asarray(predicted, dtype=float)
    if obs.shape != pred.shape:
        raise ValidationError(f"shape mismatch: observed {obs.shape}, predicted {pred.shape}")
    err = obs - pred
    return float(np.sum(err * err))


@dataclass(frozen=True)
class LossSeries:
    """Per-period losses for one model; periods are evaluation years (or
    (year, country) pairs under per-observation granularity)."""

    model: str
    periods: tuple
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or len(values) != len(self.periods):
            raise ValidationError("loss values must be 1-D and match the periods")
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise ValidationError("losses must be finite and non-negative")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def total(self) -> float:
        return float(self.values.sum())


def loss_series(model: str, observed: np.ndarray, predicted: np.ndarray,
                years: Sequence[int], countries: Sequence[str] | None = None,
                granularity: str = "year") -> LossSeries:
    """Decompose a Frobenius norm into per-year (default) or per-observation losses."""
    obs = np.asarray(observed, dtype=float)
    pred = np.asarray(predicted, dtype=float)
    if obs.shape != pred.shape:
        raise ValidationError(f"shape mismatch: observed {obs.shape}, predicted {pred.shape}")
    if obs.shape[1] != len(years):
        raise ValidationError("year labels do not match the evaluation span")
    sq = (obs - pred) ** 2
    if granularity == "year":
        return LossSeries(model=model, periods=tuple(years), values=sq.sum(axis=0))
    if granularity == "observation":
        if countries is None or len(countries) != obs.shape[0]:
            raise ValidationError("per-observation losses need country labels")
        periods = tuple((year, cid) for year in years for cid in countries)
        return LossSeries(model=model, periods=periods, values=sq.T.reshape(-1))
    raise ValidationError(f"unknown granularity {granularity!r}")


@dataclass(frozen=True)
class OosResult:
    """Out-of-sample experiment output: one row per model, ordered by loss."""

    origin_year: int
    horizon: int
    fn: dict[str, float]
    losses: dict[str, LossSeries]
    forecasts: dict[str, ForecastPanel] = field(repr=False)

    def ranking(self) -> list[tuple[str, float]]:
        return sorted(self.fn.items(), key=lambda item: (item[1], item[0]))


def oos_experiment(panel: TemperaturePanel,
                   weight_builder: Callable[[TemperaturePanel], Mapping[str, WeightMatrix]],
                   origin_year: int, horizon: int,
                   granularity: str = "year") -> OosResult:
    """Fit every model on data through origin_year, forecast the next
    `horizon` years, and score each forecast against the held-out levels.

    weight_builder receives the training slice, so clusters and distances are
    re-estimated on the reduced sample; pass a builder closing over
    full-sample weights to reuse them instead. Results are keyed by kind, in
    the builder's order.
    """
    if horizon < 1:
        raise ValidationError(f"horizon must be at least 1, got {horizon}")
    if origin_year + horizon > panel.years[-1]:
        raise ValidationError(
            f"origin {origin_year} + horizon {horizon} runs past the panel end "
            f"{panel.years[-1]}"
        )
    train, test = split_panel(panel, origin_year)
    test_years = list(test.years[:horizon])
    test_values = test.values[:, :horizon]

    fn: dict[str, float] = {}
    losses: dict[str, LossSeries] = {}
    forecasts: dict[str, ForecastPanel] = {}
    for kind, weights in weight_builder(train).items():
        fc = forecast(fit_star(train, weights), train, horizon)
        fn[kind] = frobenius_norm(test_values, fc.levels)
        losses[kind] = loss_series(kind, test_values, fc.levels, test_years,
                                   countries=test.ids, granularity=granularity)
        forecasts[kind] = fc
    return OosResult(origin_year=origin_year, horizon=horizon, fn=fn,
                     losses=losses, forecasts=forecasts)


def in_sample_fn(panel: TemperaturePanel,
                 weight_map: Mapping[str, WeightMatrix]) -> dict[str, float]:
    """Frobenius norm of observed minus fitted levels for each weight kind."""
    out: dict[str, float] = {}
    observed = panel.values[:, 2:]
    for kind, weights in weight_map.items():
        model = fit_star(panel, weights)
        fitted = fitted_levels(model, panel)
        out[kind] = frobenius_norm(observed, fitted.levels)
    return out


@dataclass(frozen=True)
class McsReport:
    statistic: str
    reps: int
    block: int
    seed: int
    alpha: float
    eliminations: tuple[tuple[str, float], ...]  # full order, survivor last, p = 1
    survivors: tuple[str, ...]

    def __post_init__(self) -> None:
        pvals = [p for _, p in self.eliminations]
        if any(b < a for a, b in zip(pvals, pvals[1:])):
            raise ValidationError("max-adjusted p-values must be non-decreasing")
        if pvals and pvals[-1] != 1.0:
            raise ValidationError("the last surviving model must have p-value 1")

    def p_values(self) -> dict[str, float]:
        return {model: p for model, p in self.eliminations}


def _start_chunks(rng: np.random.Generator, n_periods: int, block: int,
                  reps: int) -> Iterator[np.ndarray]:
    """Block starts, _REP_CHUNK replications (rows) per draw.

    Row chunks drawn in sequence consume the generator exactly as one
    rng.integers(..., size=(reps, ceil(n_periods / block))) call does, so the
    stream does not depend on the chunk size.
    """
    n_blocks = math.ceil(n_periods / block)
    for done in range(0, reps, _REP_CHUNK):
        yield rng.integers(0, n_periods - block + 1,
                           size=(min(_REP_CHUNK, reps - done), n_blocks))


def _boot_means(matrix: np.ndarray, block: int, reps: int,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Sample means (models) and moving-block bootstrap means (models x reps).

    A replicate concatenates ceil(n/block) blocks from drawn starts and keeps
    the first n periods, so its sum is the full blocks at every start but the
    last plus the last block cut to n - (ceil(n/block) - 1) * block periods.
    Block sums are differences of prefix sums; per replicate, the full-block
    starts are counted and the counts multiplied by the block-sum table, so
    no reps x periods array is formed. Sample means come from the same prefix
    sums, so with block == n every replicate equals the sample mean exactly.
    """
    n_models, n_periods = matrix.shape
    n_starts = n_periods - block + 1
    tail = n_periods - (math.ceil(n_periods / block) - 1) * block
    prefix = np.zeros((n_models, n_periods + 1))
    np.cumsum(matrix, axis=1, out=prefix[:, 1:])
    full = prefix[:, block:] - prefix[:, :n_starts]           # models x starts
    last = prefix[:, tail:tail + n_starts] - prefix[:, :n_starts]
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
    return prefix[:, -1] / n_periods, sums / n_periods


def _constant_differentials(matrix: np.ndarray) -> np.ndarray:
    """models x models mask: L_i(t) - L_j(t) is the same double in every period."""
    constant = np.empty((len(matrix), len(matrix)), dtype=bool)
    for i, row in enumerate(matrix):
        gaps = row - matrix
        constant[i] = (gaps == gaps[:, :1]).all(axis=1)
    return constant


def mcs(losses: Sequence[LossSeries], alpha: float = 0.01, reps: int = 10_000,
        block: int = 2, statistic: str = "SQ", seed: int = 0) -> McsReport:
    """Model confidence set over equal-length loss series.

    Eliminations run to the last model regardless of alpha so every model gets
    a max-adjusted p-value; the surviving set keeps models with p >= alpha.
    Round p-values use add-one smoothing, (1 + hits)/(reps + 1), so they are
    strictly positive and alpha -> 0 retains everything.

    Blocks run over the periods in their given order. Per-observation losses
    are ordered year-major over (year, country), so there a block of length 2
    mostly pairs two countries in the same year rather than two years of one
    country; whether blocks should span years for all countries together is
    an open question, and the ordering is kept as it is.

    A pair whose loss differential L_i(t) - L_j(t) is the same double in every
    period, or whose bootstrap variance is 0, is degenerate: it contributes 0
    to every statistic and is listed in a RuntimeWarning.
    """
    if not losses:
        raise ValidationError("the confidence set needs at least one model")
    if len(losses) == 1:
        # One candidate has nothing to be tested against; it survives trivially.
        return McsReport(statistic=statistic, reps=reps, block=block, seed=seed,
                         alpha=alpha, eliminations=((losses[0].model, 1.0),),
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
    if not 0 < alpha < 1:
        raise ValidationError(f"alpha must be inside (0, 1), got {alpha}")
    if statistic not in ("SQ", "R"):
        raise ValidationError(f"statistic must be 'SQ' or 'R', got {statistic!r}")

    matrix = np.vstack([ls.values for ls in losses])
    # Resampled per-model means, computed once; pairwise differentials derive
    # from them because d_ij(t) = L_i(t) - L_j(t).
    full_means, boot_means = _boot_means(matrix, block, reps,
                                         np.random.default_rng(seed))
    # A constant differential has zero bootstrap variance in exact arithmetic,
    # whatever rounding leaves in var; decide it from the losses themselves.
    constant = _constant_differentials(matrix)

    active = list(range(len(ids)))
    eliminations: list[tuple[str, float]] = []
    running_p = 0.0
    degenerate_pairs: set[tuple[str, str]] = set()

    while len(active) > 1:
        sub = np.array(active)
        mu = full_means[sub]
        centered = boot_means[sub] - mu[:, None]        # m x reps
        dbar = mu[:, None] - mu[None, :]                # m x m
        diff_boot = centered[:, None, :] - centered[None, :, :]
        var = (diff_boot ** 2).mean(axis=2)             # m x m
        valid = (var > 0) & ~constant[np.ix_(sub, sub)]  # diagonal is constant
        for i in range(len(sub)):
            for j in range(i + 1, len(sub)):
                if not valid[i, j]:
                    degenerate_pairs.add((ids[sub[i]], ids[sub[j]]))

        se = np.sqrt(var)
        tstat = np.zeros_like(dbar)
        np.divide(dbar, se, out=tstat, where=valid)
        upper = np.triu(np.ones_like(valid), k=1) & valid
        if statistic == "SQ":
            observed_stat = float((tstat[upper] ** 2).sum())
            contrib = np.zeros_like(diff_boot)
            np.divide(diff_boot ** 2, var[:, :, None], out=contrib,
                      where=valid[:, :, None])
            null_stats = contrib[np.triu_indices(len(sub), k=1)].sum(axis=0)
        else:
            observed_stat = float(np.abs(tstat[upper]).max(initial=0.0))
            scaled = np.zeros_like(diff_boot)
            np.divide(np.abs(diff_boot), se[:, :, None], out=scaled,
                      where=valid[:, :, None])
            null_stats = scaled.reshape(-1, reps).max(axis=0)

        hits = int(np.sum(null_stats >= observed_stat))
        round_p = (1 + hits) / (reps + 1)
        running_p = max(running_p, round_p)

        relative = np.where(valid, tstat, -np.inf).max(axis=1)
        worst_local = int(np.argmax(relative))
        if not np.isfinite(relative[worst_local]):
            worst_local = 0  # all pairs degenerate; eliminate the first listed
        eliminations.append((ids[sub[worst_local]], running_p))
        active.pop(worst_local)

    eliminations.append((ids[active[0]], 1.0))
    if degenerate_pairs:
        listed = sorted(degenerate_pairs)[:5]
        warnings.warn(f"zero bootstrap variance for model pairs {listed}; "
                      f"their statistic contribution was set to 0", RuntimeWarning)

    survivors = tuple(model for model, p in eliminations if p >= alpha)
    return McsReport(statistic=statistic, reps=reps, block=block, seed=seed,
                     alpha=alpha, eliminations=tuple(eliminations),
                     survivors=survivors)


@dataclass(frozen=True)
class EvaluationReport:
    """Table-shaped summary: models ordered by the MCS elimination sequence."""

    models: tuple[str, ...]
    in_sample: dict[str, float]
    out_of_sample: dict[str, float]
    mcs_report: McsReport

    def rows(self) -> list[dict]:
        p = self.mcs_report.p_values()
        return [{"model": m,
                 "in_sample_fn": self.in_sample[m],
                 "out_of_sample_fn": self.out_of_sample[m],
                 "mcs_p": p[m]} for m in self.models]


def build_report(in_sample: Mapping[str, float], oos: OosResult,
                 mcs_report: McsReport) -> EvaluationReport:
    order = tuple(model for model, _ in mcs_report.eliminations)
    missing = set(order) - set(in_sample) | set(order) - set(oos.fn)
    if missing:
        raise ValidationError(f"report is missing results for {sorted(missing)}")
    return EvaluationReport(models=order, in_sample=dict(in_sample),
                            out_of_sample=dict(oos.fn), mcs_report=mcs_report)


def write_report_csv(report: EvaluationReport, path: str | Path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "in_sample_fn", "out_of_sample_fn", "mcs_p"])
        for row in report.rows():
            writer.writerow([row["model"], repr(row["in_sample_fn"]),
                             repr(row["out_of_sample_fn"]), repr(row["mcs_p"])])


def write_report_json(report: EvaluationReport, path: str | Path) -> None:
    payload = {
        "models": list(report.models),
        "in_sample_fn": {k: report.in_sample[k] for k in report.models},
        "out_of_sample_fn": {k: report.out_of_sample[k] for k in report.models},
        "mcs": {
            "statistic": report.mcs_report.statistic,
            "reps": report.mcs_report.reps,
            "block": report.mcs_report.block,
            "seed": report.mcs_report.seed,
            "alpha": report.mcs_report.alpha,
            "p_values": {m: p for m, p in report.mcs_report.eliminations},
            "survivors": list(report.mcs_report.survivors),
        },
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                          encoding="utf-8")


def write_mcs_json(report: McsReport, path: str | Path) -> None:
    payload = {"statistic": report.statistic, "reps": report.reps,
               "block": report.block, "seed": report.seed, "alpha": report.alpha,
               "eliminations": [[m, p] for m, p in report.eliminations],
               "survivors": list(report.survivors)}
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                          encoding="utf-8")
