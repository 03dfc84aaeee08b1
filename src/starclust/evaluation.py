"""Forecast evaluation: Frobenius-norm loss and the model confidence set.

The MCS procedure studentizes pairwise mean loss differentials with a
moving-block bootstrap variance, forms a semi-quadratic (or range) statistic,
and eliminates the worst model while the equivalence test rejects. The
bootstrap means are the only models x reps array; a pair's bootstrap
differential is rebuilt from them in one reps-long row whenever it is read,
once for its variance and once in each round that keeps both its models,
and folded into a reps-long accumulator of null statistics. So the MCS holds
models x reps plus two rows, never pairs x reps. Bootstrap means are
streamed from per-block window sums, with block starts drawn in fixed chunks
of replications from a seeded generator, so reports are bit-identical across
repeated calls and memory does not grow with reps x periods. The chunk size
also fixes the rounding of each chunk's count-times-block-sum product, so
changing it moves the bootstrap means in their last bits: outputs must then
be pinned again. The surviving set is fixed at the paper's 1% level, ALPHA;
every model's p-value is reported, so another level reads off the report.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NumericalError, ValidationError, allocate
from .panel import TemperaturePanel, split_panel, write_csv, write_json
from .star import fit_star, fitted_levels, forecast
from .weights import WeightMatrix

# Bootstrap replications drawn and summed at once in mcs. The size sets the
# shape of each count-times-block-sum product and so its rounding: another
# size gives other last bits in the bootstrap means, and outputs must then be
# pinned again.
_REP_CHUNK = 64

ALPHA = 0.01  # the paper's MCS level: a model with p >= 1% survives


def frobenius_norm(observed: np.ndarray, predicted: np.ndarray) -> float:
    """Sum of squared entrywise errors, trace[(Y-Yhat)'(Y-Yhat)]."""
    obs = np.asarray(observed, dtype=float)
    pred = np.asarray(predicted, dtype=float)
    if obs.shape != pred.shape:
        raise ValidationError(f"shape mismatch: observed {obs.shape}, predicted {pred.shape}")
    err = obs - pred
    return float(np.sum(err * err))


@dataclass(frozen=True, eq=False)
class LossSeries:
    """Per-period losses for one model. The experiment's periods are its
    evaluation years, each loss summed over every country; `mcs --losses`
    may name any periods."""

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


def loss_series(model: str, observed: np.ndarray, predicted: np.ndarray,
                years: Sequence[int]) -> LossSeries:
    """Decompose a Frobenius norm into per-year losses, summed over countries."""
    obs = np.asarray(observed, dtype=float)
    pred = np.asarray(predicted, dtype=float)
    if obs.shape != pred.shape:
        raise ValidationError(f"shape mismatch: observed {obs.shape}, predicted {pred.shape}")
    if obs.shape[1] != len(years):
        raise ValidationError("year labels do not match the evaluation span")
    return LossSeries(model=model, periods=tuple(years), values=((obs - pred) ** 2).sum(axis=0))


@dataclass(frozen=True)
class OosResult:
    """Out-of-sample experiment output, keyed by model kind: each model's
    Frobenius norm and its per-year losses."""

    fn: dict[str, float]
    losses: dict[str, LossSeries]


def oos_experiment(panel: TemperaturePanel,
                   weight_builder: Callable[[TemperaturePanel], Mapping[str, WeightMatrix]],
                   origin_year: int, horizon: int) -> OosResult:
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
    for kind, weights in weight_builder(train).items():
        levels = forecast(fit_star(train, weights), train, horizon)
        fn[kind] = frobenius_norm(test_values, levels)
        losses[kind] = loss_series(kind, test_values, levels, test_years)
    return OosResult(fn=fn, losses=losses)


def in_sample_fn(panel: TemperaturePanel,
                 weight_map: Mapping[str, WeightMatrix]) -> dict[str, float]:
    """Frobenius norm of observed minus fitted levels for each weight kind."""
    out: dict[str, float] = {}
    observed = panel.values[:, 2:]
    for kind, weights in weight_map.items():
        out[kind] = frobenius_norm(observed, fitted_levels(fit_star(panel, weights), panel))
    return out


@dataclass(frozen=True)
class McsReport:
    statistic: str
    reps: int
    block: int
    seed: int
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
    Each block is summed from its own window, so its rounding error is bounded
    by its own magnitude; per replicate, the full-block starts are counted and
    the counts multiplied by the block-sum table, so no reps x periods array
    is formed. Sample means are summed from the length-n window, so with
    block == n every replicate equals the sample mean exactly.
    """
    n_models, n_periods = matrix.shape
    n_starts = n_periods - block + 1
    tail = n_periods - (math.ceil(n_periods / block) - 1) * block
    windows = sliding_window_view(matrix, block, axis=1)  # models x starts x block
    full = windows.sum(axis=2)
    last = windows[:, :, :tail].sum(axis=2)
    total = sliding_window_view(matrix, n_periods, axis=1).sum(axis=2)[:, 0]
    sums = allocate((n_models, reps))
    offsets = (np.arange(_REP_CHUNK) * n_starts)[:, None]
    ones = np.ones(_REP_CHUNK * math.ceil(n_periods / block))
    done = 0
    for starts in _start_chunks(rng, n_periods, block, reps):
        rows = len(starts)
        tails = starts[:, -1].copy()
        # Offset each row's starts so one bincount counts every row at once,
        # as floats, then take each row's last start back out: it is cut short.
        starts += offsets[:rows]
        counts = np.bincount(starts.ravel(), weights=ones[:starts.size],
                             minlength=rows * n_starts)
        counts[starts[:, -1]] -= 1.0
        sums[:, done:done + rows] = full @ counts.reshape(rows, n_starts).T + last[:, tails]
        done += rows
        del starts, counts  # before the next chunk is drawn and counted
    sums /= n_periods  # in place: no second models x reps array
    return total / n_periods, sums


def _null_statistics(live: np.ndarray, pairs: list[tuple[int, int]], centered: np.ndarray,
                     term: np.ufunc, scale: np.ndarray, reduce: np.ufunc,
                     row: np.ndarray, out: np.ndarray) -> None:
    """One round's null statistics: the live pairs' terms term(d) / scale folded into `out`
    from 0.0 in pair order, d rebuilt in `row`, so with an axis-0 reduction's bits."""
    out.fill(0.0)
    for k in np.flatnonzero(live).tolist():
        p, q = pairs[k]
        np.subtract(centered[p], centered[q], out=row)
        np.divide(term(row, out=row), scale[k], out=row)
        reduce(out, row, out=out)


def mcs(losses: Sequence[LossSeries], reps: int = 10_000, block: int = 2,
        statistic: str = "SQ", seed: int = 0) -> McsReport:
    """Model confidence set over equal-length loss series.

    Eliminations run to the last model, whatever the level, so every model
    gets a max-adjusted p-value; the surviving set keeps models with
    p >= ALPHA. Round p-values use add-one smoothing, (1 + hits)/(reps + 1).

    Blocks run over the periods in their given order, so on the experiment's
    per-year losses they are blocks of `block` whole years, every country's
    losses for a year kept together (Kunsch 1989; Hansen, Lunde & Nason
    2011). A bootstrap of the year-major (year, country) losses in blocks of
    `block * N` observations that start at year boundaries draws the same
    starts, and its means are these means divided by N. Every statistic
    below is unchanged when all losses are scaled by one factor, so the
    per-year losses give the per-observation report too.

    A pair is degenerate when its bootstrap variance is 0 or its differential
    d(t) = L_i(t) - L_j(t) is constant to within rounding of the losses,
    max d - min d <= 2 eps max(L_i, L_j) over all periods: whatever rounding
    leaves in the variance of such a pair is noise. A degenerate pair
    contributes 0 to every statistic and is listed in a RuntimeWarning.
    Losses so large that a bootstrap mean or a pair's bootstrap variance
    overflows are a NumericalError naming the first such pair.

    A single model takes the same path, checks included: it has no pairs, so
    no round runs and it is returned with p = 1.
    """
    if not losses:
        raise ValidationError("the confidence set needs at least one model")
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
    if statistic not in ("SQ", "R"):
        raise ValidationError(f"statistic must be 'SQ' or 'R', got {statistic!r}")

    matrix = np.vstack([ls.values for ls in losses])
    # Resampled per-model means, computed once and centred; pairwise
    # differentials derive from them because d_ij(t) = L_i(t) - L_j(t).
    # Overflow (losses near the float range) makes some pair's variance
    # non-finite, which is reported below.
    with np.errstate(over="ignore", invalid="ignore"):
        full_means, centered = _boot_means(matrix, block, reps, np.random.default_rng(seed))
        centered -= full_means[:, None]
    rounding = 2 * np.finfo(float).eps * matrix.max(axis=1)  # losses are >= 0

    # Every pair of models once, the model listed first as a, in the order in
    # which each round reads its active pairs. A pair's differential d is
    # rebuilt in `row` whenever it is read; its variance, the pairwise-summed
    # mean of d^2, and its t-statistic are the same in every round.
    a, b = np.triu_indices(len(ids), k=1)
    pairs = list(zip(a.tolist(), b.tolist()))
    row = np.empty(reps)
    var = np.empty(len(pairs))
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (p, q) in enumerate(pairs):
            np.subtract(centered[p], centered[q], out=row)
            var[k] = np.square(row, out=row).mean()
        flat = np.ptp(matrix[a] - matrix[b], axis=1) <= np.maximum(rounding[a], rounding[b])
    bad = np.flatnonzero(~np.isfinite(var))
    if bad.size:
        raise NumericalError("non-finite bootstrap variance for models "
                             f"{ids[a[bad[0]]]!r} and {ids[b[bad[0]]]!r}")
    valid = (var > 0) & ~flat
    se = np.sqrt(var, where=valid, out=np.ones_like(var))  # 1 where no round reads it
    tstat = (full_means[a] - full_means[b]) / se
    # Null terms d^2 / var, added for SQ, or |d| / se, maxed for R; the
    # observed terms t^2 or |t| are reduced by the same ufunc.
    if statistic == "SQ":
        observed, reduce, term, scale = tstat ** 2, np.add, np.square, var
    else:
        observed, reduce, term, scale = np.abs(tstat), np.maximum, np.abs, se

    alive = np.ones(len(ids), dtype=bool)
    eliminations: list[tuple[str, float]] = []
    running_p = 0.0
    null_stats = np.empty(reps)
    for _ in range(len(ids) - 1):
        live = alive[a] & alive[b] & valid
        observed_stat = float(reduce.reduce(observed[live], initial=0.0))
        _null_statistics(live, pairs, centered, term, scale, reduce, row, null_stats)
        hits = int(np.sum(null_stats >= observed_stat))
        running_p = max(running_p, (1 + hits) / (reps + 1))

        # A model's worst t against the others: t_ab for a, t_ba = -t_ab for b.
        # With every pair degenerate all stay -inf and the first listed goes.
        worst = np.full(len(ids), -np.inf)
        np.maximum.at(worst, a[live], tstat[live])
        np.maximum.at(worst, b[live], -tstat[live])
        active = np.flatnonzero(alive)
        out = active[int(np.argmax(worst[active]))]
        eliminations.append((ids[out], running_p))
        alive[out] = False

    eliminations.append((ids[int(np.flatnonzero(alive)[0])], 1.0))
    listed = sorted((ids[p], ids[q]) for p, q in zip(a[~valid], b[~valid]))
    if listed:
        warnings.warn(f"zero bootstrap variance or constant loss differential for "
                      f"model pairs {listed}; their statistic contribution was set to 0",
                      RuntimeWarning)

    survivors = tuple(model for model, p in eliminations if p >= ALPHA)
    return McsReport(statistic=statistic, reps=reps, block=block, seed=seed,
                     eliminations=tuple(eliminations), survivors=survivors)


@dataclass(frozen=True)
class EvaluationReport:
    """Table-shaped summary: models ordered by the MCS elimination sequence,
    with the out-of-sample result whose losses the MCS tested."""

    models: tuple[str, ...]
    in_sample: dict[str, float]
    oos: OosResult
    mcs_report: McsReport

    def rows(self) -> list[dict]:
        p = self.mcs_report.p_values()
        return [{"model": m,
                 "in_sample_fn": self.in_sample[m],
                 "out_of_sample_fn": self.oos.fn[m],
                 "mcs_p": p[m]} for m in self.models]


def build_report(in_sample: Mapping[str, float], oos: OosResult,
                 mcs_report: McsReport) -> EvaluationReport:
    order = tuple(model for model, _ in mcs_report.eliminations)
    missing = set(order) - set(in_sample) | set(order) - set(oos.fn)
    if missing:
        raise ValidationError(f"report is missing results for {sorted(missing)}")
    return EvaluationReport(models=order, in_sample=dict(in_sample), oos=oos,
                            mcs_report=mcs_report)


def write_report_csv(report: EvaluationReport, path: str | Path) -> None:
    header = ["model", "in_sample_fn", "out_of_sample_fn", "mcs_p"]
    write_csv(path, header, ([row[name] for name in header] for row in report.rows()))


def write_report_json(report: EvaluationReport, path: str | Path) -> None:
    write_json(path, {
        "models": list(report.models),
        "in_sample_fn": {k: report.in_sample[k] for k in report.models},
        "out_of_sample_fn": {k: report.oos.fn[k] for k in report.models},
        "mcs": {
            "statistic": report.mcs_report.statistic,
            "reps": report.mcs_report.reps,
            "block": report.mcs_report.block,
            "seed": report.mcs_report.seed,
            "alpha": ALPHA,
            "p_values": {m: p for m, p in report.mcs_report.eliminations},
            "survivors": list(report.mcs_report.survivors),
        },
    })


def write_mcs_json(report: McsReport, path: str | Path) -> None:
    write_json(path, {"statistic": report.statistic, "reps": report.reps,
                      "block": report.block, "seed": report.seed, "alpha": ALPHA,
                      "eliminations": [[m, p] for m, p in report.eliminations],
                      "survivors": list(report.survivors)})
