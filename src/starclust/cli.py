"""Command-line pipeline: trends, clustering, weights, STAR fits, forecasts,
and the full evaluation table.

Configuration comes from a YAML file (--config flag or the STARCLUST_CONFIG
environment variable); every flag overrides its config key. Outputs are
deterministic: a fixed seed and config produce byte-identical files.

Exit codes: 0 success, 2 configuration or validation error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import csv
import os
import sys
from pathlib import Path

import numpy as np

from . import clustering, evaluation, pipeline, star, trends, weights
from .config import RunConfig, load_config
from .errors import NumericalError, StarclustError, ValidationError
from .panel import (AdjacencyList, TemperaturePanel, attach_zones,
                    load_adjacency, load_panel, split_panel)

CONFIG_ENV = "STARCLUST_CONFIG"


def _base_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="YAML run configuration "
                        f"(default: ${CONFIG_ENV} if set)")
    common.add_argument("--data", dest="panel_path", help="panel CSV (long or wide)")
    common.add_argument("--adjacency", dest="adjacency_path",
                        help="country adjacency CSV")
    common.add_argument("--zones", dest="zones_path", help="zone metadata CSV")
    common.add_argument("--out", dest="output_dir", help="output directory")
    common.add_argument("--seed", type=int, help="seed for stochastic steps")

    parser = argparse.ArgumentParser(
        prog="starclust",
        description="Cluster country temperature series and evaluate STAR forecasts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trends", parents=[common],
                       help="fit per-country linear trends")
    p.add_argument("--alpha", dest="trend_alpha", type=float,
                   help="significance level for slopes")

    p = sub.add_parser("cluster", parents=[common],
                       help="cluster countries under one scheme")
    p.add_argument("--scheme", required=True, choices=pipeline.SCHEMES)
    p.add_argument("--k", type=int, help="target number of main clusters")
    p.add_argument("--min-size", dest="min_cluster_size", type=int,
                   help="smallest non-idiosyncratic cluster")
    p.add_argument("--cut", choices=("main_count", "count", "height", "auto"),
                   default="main_count", help="dendrogram cut rule")
    p.add_argument("--height", type=float, help="cut height for --cut height")

    p = sub.add_parser("weights", parents=[common],
                       help="build one spatial weight matrix")
    p.add_argument("--kind", required=True, choices=weights.KINDS)
    p.add_argument("--rescale", action="store_true", default=None,
                   dest="rescale_distances",
                   help="map the maximum distance to N*rho")
    p.add_argument("--rho", dest="rescale_rho", type=float)

    p = sub.add_parser("fit", parents=[common],
                       help="fit one STAR model on the full panel")
    p.add_argument("--kind", required=True, choices=weights.KINDS)

    p = sub.add_parser("forecast", parents=[common],
                       help="iterated level forecasts from one model")
    p.add_argument("--kind", required=True, choices=weights.KINDS)
    p.add_argument("--origin", type=int,
                   help="last year used for estimation (default: panel end)")
    p.add_argument("--horizon", type=int, help="number of years ahead")

    p = sub.add_parser("evaluate", parents=[common],
                       help="in-sample + out-of-sample table with MCS p-values")
    _mcs_flags(p)
    p.add_argument("--origin", dest="split_year", type=int)
    p.add_argument("--horizon", type=int)
    p.add_argument("--granularity", choices=("year", "observation"))

    p = sub.add_parser("mcs", parents=[common],
                       help="model confidence set over forecast losses")
    _mcs_flags(p)
    p.add_argument("--origin", dest="split_year", type=int)
    p.add_argument("--horizon", type=int)
    p.add_argument("--granularity", choices=("year", "observation"))
    p.add_argument("--losses", help="CSV of model,period,loss to test directly")
    return parser


def _mcs_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mcs-alpha", dest="mcs_alpha", type=float)
    p.add_argument("--reps", dest="mcs_reps", type=int)
    p.add_argument("--block", dest="mcs_block", type=int)
    p.add_argument("--statistic", dest="mcs_statistic", choices=("SQ", "R"))


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    path = args.config or os.environ.get(CONFIG_ENV)
    cfg = load_config(path) if path else RunConfig()
    overrides = {}
    for name in ("panel_path", "adjacency_path", "zones_path", "output_dir",
                 "seed", "trend_alpha", "min_cluster_size", "rescale_distances",
                 "rescale_rho", "split_year", "horizon", "mcs_alpha", "mcs_reps",
                 "mcs_block", "mcs_statistic", "granularity"):
        if hasattr(args, name):
            overrides[name] = getattr(args, name)
    if getattr(args, "k", None) is not None:
        overrides[f"k_{args.scheme.lower()}"] = args.k
    return cfg.with_overrides(**overrides)


def _load_inputs(cfg: RunConfig, need_adjacency: bool
                 ) -> tuple[TemperaturePanel, AdjacencyList | None]:
    panel = load_panel(cfg.panel_path)
    if cfg.zones_path:
        panel = attach_zones(panel, cfg.zones_path)
    adjacency = None
    if cfg.adjacency_path:
        adjacency = load_adjacency(cfg.adjacency_path, panel)
    elif need_adjacency:
        raise ValidationError("this command needs an adjacency file "
                              "(--adjacency or data.adjacency in the config)")
    return panel, adjacency


def _outdir(cfg: RunConfig) -> Path:
    out = Path(cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create output directory {out}: {exc.strerror}") from None
    return out


def _cut_rule(args: argparse.Namespace, cfg: RunConfig, k: int) -> clustering.CutRule:
    if args.cut == "height":
        if args.height is None:
            raise ValidationError("--cut height needs --height")
        return clustering.CutRule.height(args.height, min_size=cfg.min_cluster_size)
    if args.cut == "auto":
        return clustering.CutRule.auto(min_size=cfg.min_cluster_size)
    if args.cut == "count":
        return clustering.CutRule.count(k, min_size=cfg.min_cluster_size)
    return clustering.CutRule.main_count(k, min_size=cfg.min_cluster_size)


def cmd_trends(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    cfg.validate()
    panel, _ = _load_inputs(cfg, need_adjacency=False)
    out = _outdir(cfg)
    fits = trends.fit_panel_trends(panel, alpha=cfg.trend_alpha)
    trends.write_trend_table(fits, out / "trends.csv")
    null_ids = sorted(cid for cid, fit in fits.items() if not fit.significant)
    print(f"fitted {len(fits)} linear trends over {panel.years[0]}-{panel.years[-1]}")
    print(f"non-significant slopes at alpha={cfg.trend_alpha}: {len(null_ids)}"
          + (f" ({', '.join(null_ids)})" if null_ids else ""))
    print(f"wrote {out / 'trends.csv'}")
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    cfg.validate()
    panel, _ = _load_inputs(cfg, need_adjacency=False)
    out = _outdir(cfg)
    scheme = args.scheme
    k = {"A": cfg.k_a, "B": cfg.k_b, "C": cfg.k_c}[scheme]
    rule = _cut_rule(args, cfg, k)
    result = pipeline.compute_scheme(panel, scheme, k=k, alpha=cfg.trend_alpha,
                                     min_size=cfg.min_cluster_size, rule=rule)
    assign = result.assignment

    clustering.dendrogram_to_json(result.dendrogram, out / f"dendrogram_{scheme}.json")
    clustering.assignment_to_json(assign, out / f"assignment_{scheme}.json")
    features = pipeline.scheme_features(result, panel)
    stats = clustering.cluster_summary(assign, features)
    _write_summary_csv(stats, out / f"summary_{scheme}.csv")
    _write_feature_csv(assign, features, out / f"plot_cluster_feature_{scheme}.csv")

    # Companion cross-tab (zones for A, the neighbouring scheme for B/C) is
    # best-effort: its failure should not block the requested clustering.
    table = None
    try:
        if scheme == "A":
            if all(z is not None for z in panel.zones().values()):
                table = clustering.zone_cross_tab(assign, panel)
        else:
            other = "A" if scheme == "B" else "B"
            other_result = pipeline.compute_scheme(
                panel, other, k={"A": cfg.k_a, "B": cfg.k_b}[other],
                alpha=cfg.trend_alpha, min_size=cfg.min_cluster_size)
            first, second = ((other_result.assignment, assign) if scheme == "B"
                             else (assign, other_result.assignment))
            table = clustering.cross_tab(first, second, panel)
    except ValidationError as exc:
        print(f"note: skipped contingency table ({exc})")
    if table is not None:
        clustering.write_contingency_csv(table, out / f"contingency_{scheme}.csv")

    sizes = [len(assign.members(i)) for i in range(1, assign.n_clusters + 1)]
    print(f"scheme {scheme}: {assign.n_clusters} clusters (sizes {sizes}), "
          f"{len(assign.idiosyncratic)} idiosyncratic, "
          f"{len(assign.null_excluded)} excluded")
    print(f"wrote outputs under {out}")
    return 0


def _write_summary_csv(stats: dict[int, clustering.ClusterStats], path: Path) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cluster", "n_countries", "n_values", "mean",
                         "sd", "sd_convention", "degenerate"])
        for index in sorted(stats):
            s = stats[index]
            writer.writerow([s.cluster, s.n_countries, s.n_values, repr(s.mean),
                             repr(s.sd), s.sd_convention, s.degenerate])


def _write_feature_csv(assign: clustering.ClusterAssignment, features: dict,
                       path: Path) -> None:
    """Tidy boxplot data: one row per country with its category and feature mean."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["country", "category", "value"])
        for cid in sorted(assign.covered_ids()):
            value = features.get(cid)
            if value is None:
                continue
            writer.writerow([cid, assign.category_of(cid),
                             repr(float(np.mean(value)))])


def cmd_weights(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    cfg.validate(require_adjacency=args.kind == "NN")
    panel, adjacency = _load_inputs(cfg, need_adjacency=args.kind == "NN")
    out = _outdir(cfg)
    matrix = _build_kind(cfg, panel, adjacency, args.kind)
    weights.write_weight_csv(matrix, out / f"weights_{args.kind}.csv")
    weights.write_weight_meta(matrix, out / f"weights_{args.kind}.json")
    print(f"{args.kind}: {matrix.size}x{matrix.size}, "
          f"{len(matrix.zero_rows())} zero rows")
    print(f"wrote {out / f'weights_{args.kind}.csv'}")
    return 0


def _weight_params(cfg: RunConfig) -> dict:
    """The keyword arguments that `pipeline.build_weights` takes from a run config."""
    return {"include_null_in_dA": cfg.include_null_in_dA,
            "rescale": cfg.rescale_distances, "rho": cfg.rescale_rho,
            "alpha": cfg.trend_alpha, "min_size": cfg.min_cluster_size,
            "k_by_scheme": {"A": cfg.k_a, "B": cfg.k_b, "C": cfg.k_c}}


def _build_kind(cfg: RunConfig, panel: TemperaturePanel,
                adjacency: AdjacencyList | None, kind: str) -> weights.WeightMatrix:
    return pipeline.build_weights(panel, kinds=[kind], adjacency=adjacency,
                                  **_weight_params(cfg))[kind]


def cmd_fit(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    cfg.validate(require_adjacency=args.kind == "NN")
    panel, adjacency = _load_inputs(cfg, need_adjacency=args.kind == "NN")
    out = _outdir(cfg)
    matrix = _build_kind(cfg, panel, adjacency, args.kind)
    model = star.fit_star(panel, matrix)
    fitted = star.fitted_levels(model, panel)
    star.write_coefficients_csv(model, out / f"coefficients_{args.kind}.csv")
    star.write_level_csv(fitted.countries, fitted.years, fitted.levels,
                         out / f"fitted_{args.kind}.csv")
    fn = evaluation.frobenius_norm(panel.values[:, 2:], fitted.levels)
    print(f"{args.kind}: in-sample Frobenius norm {fn:.1f} "
          f"over {fitted.years[0]}-{fitted.years[-1]}")
    flagged = model.nonstationary_countries()
    if flagged:
        print(f"note: |phi|+|psi| >= 1 for {len(flagged)} countries "
              f"({', '.join(flagged[:5])}{'...' if len(flagged) > 5 else ''})")
    print(f"wrote coefficients and fitted levels under {out}")
    return 0


def cmd_forecast(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    cfg.validate(require_adjacency=args.kind == "NN")
    panel, adjacency = _load_inputs(cfg, need_adjacency=args.kind == "NN")
    out = _outdir(cfg)
    origin = args.origin if args.origin is not None else panel.years[-1]
    horizon = args.horizon if args.horizon is not None else cfg.horizon
    if origin == panel.years[-1]:
        train = panel
    else:
        train, _ = split_panel(panel, origin)
    matrix = _build_kind(cfg, train, adjacency, args.kind)
    model = star.fit_star(train, matrix)
    fc = star.forecast(model, train, horizon)
    star.write_level_csv(fc.countries, fc.years, fc.levels,
                         out / f"forecast_{args.kind}.csv")
    print(f"{args.kind}: forecast {horizon} years from origin {origin}")
    print(f"wrote {out / f'forecast_{args.kind}.csv'}")
    return 0


def _run_oos(cfg: RunConfig, panel: TemperaturePanel,
             adjacency: AdjacencyList) -> evaluation.OosResult:
    builder = pipeline.weight_builder(kinds=weights.KINDS, adjacency=adjacency,
                                      **_weight_params(cfg))
    return evaluation.oos_experiment(panel, builder, cfg.split_year, cfg.horizon,
                                     granularity=cfg.granularity)


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    cfg.validate(require_adjacency=True)
    panel, adjacency = _load_inputs(cfg, need_adjacency=True)
    out = _outdir(cfg)

    full_weights = pipeline.build_weights(panel, kinds=weights.KINDS, adjacency=adjacency,
                                          **_weight_params(cfg))
    in_sample = evaluation.in_sample_fn(panel, full_weights)
    oos = _run_oos(cfg, panel, adjacency)
    report_mcs = evaluation.mcs(list(oos.losses.values()), alpha=cfg.mcs_alpha,
                                reps=cfg.mcs_reps, block=cfg.mcs_block,
                                statistic=cfg.mcs_statistic, seed=cfg.seed)
    report = evaluation.build_report(in_sample, oos, report_mcs)
    evaluation.write_report_csv(report, out / "report.csv")
    evaluation.write_report_json(report, out / "report.json")
    _write_loss_plot_csv(panel, cfg, oos, out / "plot_losses.csv")

    print(f"{'model':<6} {'in_sample_fn':>13} {'oos_fn':>10} {'mcs_p':>7}")
    for row in report.rows():
        print(f"{row['model']:<6} {row['in_sample_fn']:>13.1f} "
              f"{row['out_of_sample_fn']:>10.1f} {row['mcs_p']:>7.3f}")
    print(f"MCS survivors at alpha={cfg.mcs_alpha}: "
          f"{', '.join(report.mcs_report.survivors)}")
    print(f"wrote report.csv, report.json, plot_losses.csv under {out}")
    return 0


def _write_loss_plot_csv(panel: TemperaturePanel, cfg: RunConfig,
                         oos: evaluation.OosResult, path: Path) -> None:
    """Per-year loss decomposition for every model (stacked-area plot data)."""
    _, test = split_panel(panel, cfg.split_year)
    years = list(test.years[:cfg.horizon])
    observed = test.values[:, :cfg.horizon]
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "year", "loss"])
        for kind in sorted(oos.forecasts):
            fc = oos.forecasts[kind]
            series = evaluation.loss_series(kind, observed, fc.levels, years,
                                            granularity="year")
            for year, value in zip(series.periods, series.values):
                writer.writerow([kind, year, repr(float(value))])


def cmd_mcs(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    if args.losses:
        cfg.validate(require_panel=False)
        out = _outdir(cfg)
        losses = _read_losses_csv(args.losses)
    else:
        cfg.validate(require_adjacency=True)
        out = _outdir(cfg)
        panel, adjacency = _load_inputs(cfg, need_adjacency=True)
        oos = _run_oos(cfg, panel, adjacency)
        losses = list(oos.losses.values())
    report = evaluation.mcs(losses, alpha=cfg.mcs_alpha, reps=cfg.mcs_reps,
                            block=cfg.mcs_block, statistic=cfg.mcs_statistic,
                            seed=cfg.seed)
    payload_path = out / "mcs.json"
    evaluation.write_mcs_json(report, payload_path)
    print(f"{'model':<8} {'mcs_p':>7}")
    for model, p in report.eliminations:
        print(f"{model:<8} {p:>7.3f}")
    print(f"survivors at alpha={cfg.mcs_alpha}: {', '.join(report.survivors)}")
    print(f"wrote {payload_path}")
    return 0


def _read_losses_csv(path: str) -> list[evaluation.LossSeries]:
    p = Path(path)
    if not p.is_file():
        raise ValidationError(f"losses file not found: {p}")
    by_model: dict[str, list[tuple[str, float]]] = {}
    with p.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        columns = ("model", "period", "loss")
        if reader.fieldnames is None or not set(columns) <= set(reader.fieldnames):
            raise ValidationError(f"losses file needs columns {sorted(columns)}")
        for row in reader:
            line = reader.line_num  # physical line: blank lines are skipped
            absent = [name for name in columns if row[name] is None]
            if absent:
                raise ValidationError(f"{p}:{line}: missing {' and '.join(absent)}")
            try:
                value = float(row["loss"])
            except ValueError as exc:
                raise ValidationError(f"{p}:{line}: bad loss {row['loss']!r}") from exc
            by_model.setdefault(row["model"], []).append((row["period"], value))
    series = []
    for model, pairs in sorted(by_model.items()):
        series.append(evaluation.LossSeries(
            model=model, periods=tuple(period for period, _ in pairs),
            values=np.array([v for _, v in pairs])))
    return series


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
    parser = _base_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except StarclustError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
