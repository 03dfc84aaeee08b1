"""Command-line pipeline: trends, clustering, weights, STAR fits, forecasts,
and the full evaluation table.

Configuration comes from the YAML file named by --config; every flag
overrides its config key. The significance levels are the paper's, 5% for
slopes and 1% for the MCS, and every written p-value carries any other.
Outputs are deterministic: a fixed seed and config produce byte-identical
files.

Exit codes: 0 success, 2 configuration or validation error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import atexit
import contextlib
import errno
import gc
import os
import sys
from dataclasses import fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import clustering, evaluation, pipeline, star, trends, weights
from .config import RunConfig, load_config
from .errors import NumericalError, StarclustError, ValidationError, check_formable
from .panel import (TemperaturePanel, _column_index, _read_rows, attach_zones,
                    load_adjacency, load_panel, split_panel, write_csv)


def _base_parser() -> argparse.ArgumentParser:
    # Flags are spelled in full: argparse would otherwise take an abbreviation,
    # or a typo of one flag, as a flag that shares its prefix.
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument("--config", help="YAML run configuration")
    common.add_argument("--out", dest="output_dir", help="output directory")
    # Every command but `mcs` reads the panel.
    inputs = argparse.ArgumentParser(add_help=False, allow_abbrev=False, parents=[common])
    inputs.add_argument("--data", dest="panel_path", help="panel CSV (country,year,temperature)")
    inputs.add_argument("--adjacency", dest="adjacency_path", help="country adjacency CSV")
    inputs.add_argument("--zones", dest="zones_path", help="zone metadata CSV")

    parser = argparse.ArgumentParser(
        prog="starclust",
        description="Cluster country temperature series and evaluate STAR forecasts.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = partial(sub.add_parser, parents=[inputs], allow_abbrev=False)

    add_parser("trends", help="fit per-country linear trends")

    p = add_parser("cluster", help="cluster countries under one scheme")
    p.add_argument("--scheme", required=True, choices=pipeline.SCHEMES)
    p.add_argument("--k", type=int, help="target number of main clusters")

    p = add_parser("weights", help="build one spatial weight matrix")
    p.add_argument("--kind", required=True, choices=weights.KINDS)
    p.add_argument("--rescale", action="store_true", default=None, dest="rescale_distances",
                   help="map the maximum distance to 0.95*N")

    p = add_parser("fit", help="fit one STAR model on the full panel")
    p.add_argument("--kind", required=True, choices=weights.KINDS)

    p = add_parser("forecast", help="iterated level forecasts from one model")
    p.add_argument("--kind", required=True, choices=weights.KINDS)
    p.add_argument("--origin", type=int,
                   help="last year used for estimation (default: panel end)")
    p.add_argument("--horizon", type=int, help="number of years ahead")

    evaluate = add_parser("evaluate", help="in-sample + out-of-sample table with MCS p-values")
    mcs = add_parser("mcs", parents=[common], help="model confidence set over forecast losses")
    for p in (evaluate, mcs):
        p.add_argument("--seed", type=int, help="seed for the MCS bootstrap")
        p.add_argument("--reps", dest="mcs_reps", type=int)
        p.add_argument("--block", dest="mcs_block", type=int)
        p.add_argument("--statistic", dest="mcs_statistic", choices=("SQ", "R"))
    evaluate.add_argument("--origin", dest="split_year", type=int)
    evaluate.add_argument("--horizon", type=int)
    evaluate.add_argument("--granularity", choices=("year", "observation"),
                          help="MCS loss periods; both resample whole years and "
                               "give the same output")
    mcs.add_argument("--losses", required=True, help="losses CSV, e.g. evaluate's plot_losses.csv")
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """The config file's values, overridden by every flag named after a field."""
    cfg = load_config(args.config) if args.config else RunConfig()
    overrides = {f.name: getattr(args, f.name) for f in fields(RunConfig)
                 if getattr(args, f.name, None) is not None}
    if getattr(args, "k", None) is not None:
        overrides[f"k_{args.scheme.lower()}"] = args.k
    return replace(cfg, **overrides)


# Every file each command may write under --out, formatted with its flags.
_OUTPUTS = {
    "trends": ("trends.csv",),
    "cluster": ("dendrogram_{scheme}.json", "assignment_{scheme}.json",
                "summary_{scheme}.csv", "plot_cluster_feature_{scheme}.csv",
                "contingency_{scheme}.csv"),
    "weights": ("weights_{kind}.csv", "weights_{kind}.json"),
    "fit": ("coefficients_{kind}.csv", "fitted_{kind}.csv"),
    "forecast": ("forecast_{kind}.csv",),
    "evaluate": ("report.csv", "report.json", "plot_losses.csv"),
    "mcs": ("mcs.json",),
}


def _outdir(cfg: RunConfig, args: argparse.Namespace, created: list[Path]) -> Path:
    """Create the output directory, listing in `created` every directory that
    did not exist before, deepest first, and check that the command can write
    each of its files there, so that a blocked path fails before any is written."""
    out = Path(cfg.output_dir)
    try:
        created.extend(path for path in (out, *out.parents) if not path.exists())
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create output directory {out}: {exc.strerror}") from None
    for name in _OUTPUTS[args.command]:
        path = out / name.format_map(vars(args))
        if path.is_dir():
            raise ValidationError(f"cannot write output file {path}: "
                                  f"{os.strerror(errno.EISDIR)}")
    return out


def cmd_trends(args: argparse.Namespace, cfg: RunConfig, panel: TemperaturePanel,
               adjacency: np.ndarray | None, out: Path) -> int:
    fits = trends.fit_panel_trends(panel)
    trends.write_trend_table(fits, out / "trends.csv")
    null_ids = sorted(cid for cid, fit in fits.items() if not fit.significant)
    print(f"fitted {len(fits)} linear trends over {panel.years[0]}-{panel.years[-1]}")
    print(f"non-significant slopes at alpha={trends.ALPHA}: {len(null_ids)}"
          + (f" ({', '.join(null_ids)})" if null_ids else ""))
    print(f"wrote {out / 'trends.csv'}")
    return 0


def cmd_cluster(args: argparse.Namespace, cfg: RunConfig, panel: TemperaturePanel,
                adjacency: np.ndarray | None, out: Path) -> int:
    scheme = args.scheme
    assign = _write_scheme(pipeline.compute_scheme(panel, scheme, cfg), panel, out)

    # Companion cross-tab (zones for A, the neighbouring scheme for B/C) is
    # best-effort: its failure should not block the requested clustering.
    table = None
    try:
        if scheme == "A":
            if None not in panel.zones:
                table = clustering.zone_cross_tab(assign, panel)
        else:
            other = pipeline.compute_scheme(panel, "A" if scheme == "B" else "B",
                                            cfg).assignment
            first, second = (other, assign) if scheme == "B" else (assign, other)
            table = clustering.cross_tab(first, second, panel)
    except (ValidationError, NumericalError) as exc:
        print(f"note: skipped contingency table ({exc})")
    if table is not None:
        clustering.write_contingency_csv(table, out / f"contingency_{scheme}.csv")

    sizes = [len(assign.members(i)) for i in range(1, assign.n_clusters + 1)]
    print(f"scheme {scheme}: {assign.n_clusters} clusters (sizes {sizes}), "
          f"{len(assign.members(clustering.IDIOSYNCRATIC))} idiosyncratic, "
          f"{len(assign.members(clustering.NULL))} excluded")
    print(f"wrote outputs under {out}")
    return 0


def _write_scheme(result: pipeline.SchemeResult, panel: TemperaturePanel,
                  out: Path) -> clustering.ClusterAssignment:
    """Write one scheme's dendrogram, assignment, summary and feature files.

    Only the assignment is returned, so the dendrogram and features are
    freed before a companion scheme is computed. The distance matrix (5 MiB
    at K = 800) was linked in place and is already gone.
    """
    scheme, assign = result.scheme, result.assignment
    features = pipeline.scheme_features(result, panel)
    stats = clustering.cluster_summary(assign, features)
    means = _feature_means(assign, features)
    clustering.dendrogram_to_json(result.dendrogram, out / f"dendrogram_{scheme}.json")
    clustering.assignment_to_json(assign, out / f"assignment_{scheme}.json")
    _write_summary_csv(stats, out / f"summary_{scheme}.csv")
    _write_feature_csv(assign, means, out / f"plot_cluster_feature_{scheme}.csv")
    return assign


def _write_summary_csv(stats: dict[int, clustering.ClusterStats], path: Path) -> None:
    write_csv(path, ["cluster", "n_countries", "n_values", "mean",
                     "sd", "sd_convention", "degenerate"],
              ([s.cluster, s.n_countries, s.n_values, s.mean, s.sd, "sample (ddof=1)",
                s.degenerate] for _, s in sorted(stats.items())))


def _feature_means(assign: clustering.ClusterAssignment, features: np.ndarray) -> np.ndarray:
    """Each country's feature mean. `cluster_summary` checks only cluster
    members, so a non-finite mean of any country is a NumericalError here."""
    # Overflow (features near the float range) is caught by the check below.
    with np.errstate(over="ignore", invalid="ignore"):
        means = np.reshape(features, (len(assign.ids), -1)).mean(axis=1)
    bad = ~np.isfinite(means)
    if bad.any():
        raise NumericalError(f"non-finite scheme {assign.scheme} feature mean for "
                             f"{assign.ids[bad.argmax()]}")
    return means


def _write_feature_csv(assign: clustering.ClusterAssignment, means: np.ndarray,
                       path: Path) -> None:
    """Tidy boxplot data: one row per country with its category and feature mean."""
    names, index = assign.categories()
    write_csv(path, ["country", "category", "value"],
              ([cid, names[i], value] for cid, i, value
               in zip(assign.ids, index.tolist(), means.tolist())))


def cmd_weights(args: argparse.Namespace, cfg: RunConfig, panel: TemperaturePanel,
                adjacency: np.ndarray | None, out: Path) -> int:
    matrix = pipeline.build_weights(panel, cfg, [args.kind], adjacency)[args.kind]
    weights.write_weight_csv(matrix, out / f"weights_{args.kind}.csv")
    weights.write_weight_meta(matrix, out / f"weights_{args.kind}.json")
    print(f"{args.kind}: {matrix.size}x{matrix.size}, "
          f"{len(matrix.zero_rows())} zero rows")
    print(f"wrote {out / f'weights_{args.kind}.csv'}")
    return 0


def cmd_fit(args: argparse.Namespace, cfg: RunConfig, panel: TemperaturePanel,
            adjacency: np.ndarray | None, out: Path) -> int:
    matrix = pipeline.build_weights(panel, cfg, [args.kind], adjacency)[args.kind]
    model = star.fit_star(panel, matrix)
    fitted = star.fitted_levels(model, panel)
    star.write_coefficients_csv(model, out / f"coefficients_{args.kind}.csv")
    star.write_level_csv(panel.ids, panel.years[2:], fitted, out / f"fitted_{args.kind}.csv")
    fn = evaluation.frobenius_norm(panel.values[:, 2:], fitted)
    print(f"{args.kind}: in-sample Frobenius norm {fn:.1f} "
          f"over {panel.years[2]}-{panel.years[-1]}")
    flagged = model.nonstationary_countries()
    if flagged:
        print(f"note: |phi|+|psi| >= 1 for {len(flagged)} countries "
              f"({', '.join(flagged[:5])}{'...' if len(flagged) > 5 else ''})")
    print(f"wrote coefficients and fitted levels under {out}")
    return 0


def cmd_forecast(args: argparse.Namespace, cfg: RunConfig, panel: TemperaturePanel,
                 adjacency: np.ndarray | None, out: Path) -> int:
    origin = args.origin if args.origin is not None else panel.years[-1]
    if origin == panel.years[-1]:
        train = panel
    else:
        train, _ = split_panel(panel, origin)
    matrix = pipeline.build_weights(train, cfg, [args.kind], adjacency)[args.kind]
    model = star.fit_star(train, matrix)
    levels = star.forecast(model, train, cfg.horizon)
    star.write_level_csv(train.ids, range(origin + 1, origin + cfg.horizon + 1), levels,
                         out / f"forecast_{args.kind}.csv")
    print(f"{args.kind}: forecast {cfg.horizon} years from origin {origin}")
    print(f"wrote {out / f'forecast_{args.kind}.csv'}")
    return 0


def cmd_evaluate(args: argparse.Namespace, cfg: RunConfig, panel: TemperaturePanel,
                 adjacency: np.ndarray | None, out: Path) -> int:
    report = pipeline.evaluate(panel, cfg, adjacency)
    evaluation.write_report_csv(report, out / "report.csv")
    evaluation.write_report_json(report, out / "report.json")
    _write_loss_plot_csv(report, out / "plot_losses.csv")

    print(f"{'model':<6} {'in_sample_fn':>13} {'oos_fn':>10} {'mcs_p':>7}")
    for row in report.rows():
        print(f"{row['model']:<6} {row['in_sample_fn']:>13.1f} "
              f"{row['out_of_sample_fn']:>10.1f} {row['mcs_p']:>7.3f}")
    print(f"MCS survivors at alpha={evaluation.ALPHA}: "
          f"{', '.join(report.mcs_report.survivors)}")
    print(f"wrote report.csv, report.json, plot_losses.csv under {out}")
    return 0


def _write_loss_plot_csv(report: evaluation.EvaluationReport, path: Path) -> None:
    """Per-year loss decomposition for every model (stacked-area plot data)."""
    write_csv(path, ["model", "year", "loss"],
              ([kind, year, value] for kind, series in sorted(report.oos.losses.items())
               for year, value in zip(series.periods, series.values)))


def cmd_mcs(args: argparse.Namespace, cfg: RunConfig, losses: list[evaluation.LossSeries],
            adjacency: None, out: Path) -> int:
    report = pipeline.confidence_set(losses, cfg)
    payload_path = out / "mcs.json"
    evaluation.write_mcs_json(report, payload_path)
    print(f"{'model':<8} {'mcs_p':>7}")
    for model, p in report.eliminations:
        print(f"{model:<8} {p:>7.3f}")
    print(f"survivors at alpha={evaluation.ALPHA}: {', '.join(report.survivors)}")
    print(f"wrote {payload_path}")
    return 0


def _read_losses_csv(path: str) -> list[evaluation.LossSeries]:
    """Loss series from a `model,period,loss` CSV, or `model,year,loss` as
    `evaluate` writes it; a header that holds both could mean either."""
    p = Path(path)
    if not p.is_file():
        raise ValidationError(f"losses file not found: {p}")
    header, rows = _read_rows(p)
    if {"period", "year"} <= set(header):
        raise ValidationError("losses file header holds both 'period' and 'year'")
    columns = ("model", "year" if "year" in header else "period", "loss")
    if not set(columns) <= set(header):
        raise ValidationError("losses file needs columns model, period (or year) and loss")
    at = _column_index(header, columns, "losses file")
    by_model: dict[str, dict[str, float]] = {}  # model -> period -> loss, in file order
    for line, row in rows:
        absent = [name for name in columns if at[name] >= len(row)]
        if absent:
            raise ValidationError(f"{p}:{line}: missing {' and '.join(absent)}")
        model, period, text = (row[at[name]] for name in columns)
        blank = [name for name, cell in zip(columns, (model, period)) if not cell.strip()]
        if blank:
            raise ValidationError(f"{p}:{line}: blank {' and '.join(blank)}")
        try:
            value = float(text)
        except ValueError as exc:
            raise ValidationError(f"{p}:{line}: bad loss {text!r}") from exc
        periods = by_model.setdefault(model, {})
        if period in periods:
            raise ValidationError(f"{p}:{line}: duplicate entry for model {model!r}, "
                                  f"{columns[1]} {period!r}")
        periods[period] = value
    return [evaluation.LossSeries(model=model, periods=tuple(periods),
                                  values=np.array(list(periods.values())))
            for model, periods in sorted(by_model.items())]


_COMMANDS = {
    "trends": cmd_trends,
    "cluster": cmd_cluster,
    "weights": cmd_weights,
    "fit": cmd_fit,
    "forecast": cmd_forecast,
    "evaluate": cmd_evaluate,
    "mcs": cmd_mcs,
}


def main(argv: list[str] | None = None) -> int:
    """Run one command after the steps every command shares: resolve and
    validate the config, read the inputs the command uses and no others, and
    create the output directory, with every output path checked. `mcs` reads
    its losses file only; the others read the panel (with any zones), and
    `evaluate` and `--kind NN` the adjacency. `evaluate` checks its block
    length against the horizon, and its reps against the bootstrap means it
    can allocate, before the panel is read. A run that fails, a refused
    allocation included, removes each directory it created that is still empty.

    The collector is frozen at exit, once however often `main` runs, so the
    interpreter's final collections skip every object the run left and the
    OS reclaims them: `cluster --scheme C` at K = 800 exits in 6 ms instead
    of 24 (2-vCPU VM). Importing this module registers nothing."""
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    args = _base_parser().parse_args(argv)
    created: list[Path] = []
    try:
        cfg = _resolve_config(args)
        if args.command == "mcs":
            cfg.validate(require_panel=False)
            inputs = (_read_losses_csv(args.losses), None)
        else:
            reads_adjacency = args.command == "evaluate" or getattr(args, "kind", None) == "NN"
            cfg.validate(require_adjacency=reads_adjacency)
            if args.command == "evaluate":
                if cfg.mcs_block > cfg.horizon:
                    # The MCS resamples the horizon's years, as `evaluation.mcs` checks.
                    raise ValidationError(f"block length {cfg.mcs_block} outside "
                                          f"[1, {cfg.horizon}]")
                # The bootstrap means that `evaluation.mcs` allocates.
                check_formable((len(weights.KINDS), cfg.mcs_reps))
            panel = load_panel(cfg.panel_path)
            if cfg.zones_path:
                panel = attach_zones(panel, cfg.zones_path)
            inputs = (panel, load_adjacency(cfg.adjacency_path, panel)
                      if reads_adjacency else None)
        out = _outdir(cfg, args, created)
        return _COMMANDS[args.command](args, cfg, *inputs, out)
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        code = 3
    except StarclustError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except MemoryError as exc:
        print(f"error: not enough memory: {str(exc) or 'an allocation was refused'}",
              file=sys.stderr)
        code = 2
    for path in created:  # deepest first; one that holds anything stays
        with contextlib.suppress(OSError):
            path.rmdir()
    return code


if __name__ == "__main__":
    sys.exit(main())
