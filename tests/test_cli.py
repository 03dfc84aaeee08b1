"""End-to-end command line checks, driving main() in-process."""
import argparse
import contextlib
import dataclasses
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import starclust
from starclust import RunConfig, cli, evaluation, pipeline
from starclust.cli import main
from starclust.config import _SCHEMA, _TOP_LEVEL
from starclust.weights import KINDS


def _write_dataset(root):
    """Drop a small panel with known group structure plus side files.

    Nine countries in three groups of three: strong trend, mild trend,
    flat.  Group-specific oscillation patterns keep the first-difference
    and sign-string clusterings aligned with the slope grouping.
    """
    rng = np.random.default_rng(3)
    n, t = 9, 41
    slopes = [0.12, 0.05, 0.0]
    patterns = [
        np.tile([1.0, 1.0, -1.0, -1.0], 11)[:t],
        np.tile([1.0, -1.0], 21)[:t],
        np.tile([1.0, -1.0, -1.0, 1.0, 1.0, -1.0], 7)[:t],
    ]
    lines = ["country,year,temperature"]
    for i in range(n):
        g = i // 3
        noise = rng.normal(0, 0.004, t)
        series = 12.0 + 2 * i + slopes[g] * np.arange(t) + 0.8 * patterns[g] + noise
        for j in range(t):
            lines.append(f"C{i:02d},{1950 + j},{float(series[j])!r}")
    panel = root / "panel.csv"
    panel.write_text("\n".join(lines) + "\n", encoding="utf-8")

    adjacency = root / "adjacency.csv"
    adjacency.write_text(
        "country_a,country_b\n"
        + "\n".join(f"C{i:02d},C{i + 1:02d}" for i in range(n - 1))
        + "\n",
        encoding="utf-8",
    )

    zones = root / "zones.csv"
    zone_names = ["Europe"] * 3 + ["Asia"] * 3 + ["Africa"] * 3
    zones.write_text(
        "country,zone\n"
        + "\n".join(f"C{i:02d},{zone_names[i]}" for i in range(n))
        + "\n",
        encoding="utf-8",
    )

    # Sign distances can exceed the panel length, so rescaling stays on.
    config = root / "run.yaml"
    config.write_text(
        f"data:\n"
        f"  panel: {panel}\n"
        f"  adjacency: {adjacency}\n"
        f"clusters:\n"
        f"  A: 2\n"
        f"  B: 3\n"
        f"  C: 3\n"
        f"weights:\n"
        f"  rescale: true\n"
        f"split_year: 1980\n"
        f"horizon: 5\n"
        f"mcs:\n"
        f"  reps: 200\n",
        encoding="utf-8",
    )
    # Out-of-sample losses of the seven kinds over the 5-year horizon, with
    # the header that `evaluate` writes to plot_losses.csv.
    losses = root / "losses.csv"
    draws = rng.uniform(1.0, 2.0, (len(KINDS), 5))
    losses.write_text("model,year,loss\n" + "".join(
        f"{kind},{1981 + t},{float(loss)!r}\n" for kind, row in zip(sorted(KINDS), draws)
        for t, loss in enumerate(row)), encoding="utf-8")
    return {"panel": panel, "adjacency": adjacency, "zones": zones,
            "config": config, "losses": losses}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    return _write_dataset(root)


def run(args, dataset, out, *extra):
    argv = [*args, "--config", str(dataset["config"]), "--out", str(out), *extra]
    return main(argv)


@pytest.fixture()
def calls(monkeypatch):
    """The names of `cli.load_panel` and `pipeline.build_weights` in call order."""
    called = []
    for module, name in ((cli, "load_panel"), (pipeline, "build_weights")):
        def counted(*args, _call=getattr(module, name), _name=name, **kwargs):
            called.append(_name)
            return _call(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return called


class TestTrends:
    def test_writes_table_and_reports_null_countries(self, dataset, tmp_path, capsys):
        rc = run(["trends"], dataset, tmp_path)
        captured = capsys.readouterr()
        assert rc == 0
        assert "non-significant slopes at alpha=0.05: 3 (C06, C07, C08)" in captured.out
        header = (tmp_path / "trends.csv").read_text().splitlines()[0]
        assert header == "country,intercept,slope,se,t,p,significant"

    def test_missing_panel_file(self, dataset, tmp_path, capsys):
        rc = main(["trends", "--data", str(tmp_path / "ghost.csv"),
                   "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "panel file not found" in captured.err
        assert "ghost.csv" in captured.err

    def test_no_panel_configured(self, tmp_path, capsys):
        rc = main(["trends", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "no panel data file configured" in captured.err


class TestCluster:
    def test_scheme_a_with_zones_writes_contingency(self, dataset, tmp_path, capsys):
        rc = run(["cluster", "--scheme", "A"], dataset, tmp_path,
                 "--zones", str(dataset["zones"]))
        captured = capsys.readouterr()
        assert rc == 0
        assert "scheme A: 2 clusters (sizes [3, 3]), 0 idiosyncratic, 3 excluded" \
            in captured.out
        for name in ("dendrogram_A.json", "assignment_A.json", "summary_A.csv",
                     "plot_cluster_feature_A.csv", "contingency_A.csv"):
            assert (tmp_path / name).is_file()
        assign = json.loads((tmp_path / "assignment_A.json").read_text())
        assert sorted(assign["null_excluded"]) == ["C06", "C07", "C08"]
        # Zone table: perfect separation puts each cluster in one zone.
        table = (tmp_path / "contingency_A.csv").read_text().splitlines()
        assert table[0] == "group\\group,1,2,null,total"
        assert table[1] == "Europe,3,0,0,3"
        assert table[-1] == "total,3,3,3,9"

    def test_scheme_a_without_zones_skips_contingency(self, dataset, tmp_path):
        rc = run(["cluster", "--scheme", "A"], dataset, tmp_path)
        assert rc == 0
        assert not (tmp_path / "contingency_A.csv").exists()

    def test_companion_failure_prints_note(self, dataset, tmp_path, capsys):
        # Default k_a=4 is unreachable on two slope groups, so the B run's
        # companion cross-tab fails while the clustering itself succeeds.
        rc = main(["cluster", "--scheme", "B", "--k", "3",
                   "--data", str(dataset["panel"]), "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "note: skipped contingency table" in captured.out
        assert not (tmp_path / "contingency_B.csv").exists()
        assert (tmp_path / "assignment_B.json").is_file()

    def test_companion_numerical_error_prints_note(self, dataset, tmp_path, capsys,
                                                   monkeypatch):
        # Scheme C's companion clusters B, whose distances here overflow.
        def overflow(panel):
            raise starclust.NumericalError("non-finite difference distances for C04")
        monkeypatch.setattr(cli.pipeline, "diff_distance", overflow)
        rc = main(["cluster", "--scheme", "C", "--k", "3",
                   "--data", str(dataset["panel"]), "--out", str(tmp_path)])
        assert rc == 0
        assert ("note: skipped contingency table (non-finite difference distances for C04)"
                in capsys.readouterr().out)
        assert (tmp_path / "summary_C.csv").is_file()

    def test_scheme_c_cross_tabs_against_b(self, dataset, tmp_path):
        rc = run(["cluster", "--scheme", "C"], dataset, tmp_path)
        assert rc == 0
        assert (tmp_path / "contingency_C.csv").is_file()

    def test_requested_scheme_freed_before_companion(self, dataset, tmp_path, monkeypatch):
        # Its distance matrix and dendrogram are written, then let go, so the
        # two schemes' K x K matrices are never held at once.
        compute, results, alive = cli.pipeline.compute_scheme, [], []

        def tracked(*args, **kwargs):
            alive.append([ref() is not None for ref in results])
            result = compute(*args, **kwargs)
            results.append(weakref.ref(result))
            return result
        monkeypatch.setattr(cli.pipeline, "compute_scheme", tracked)
        assert run(["cluster", "--scheme", "C"], dataset, tmp_path) == 0
        assert alive == [[], [False]]
        assert (tmp_path / "contingency_C.csv").is_file()

    def test_k_flag_overrides_config(self, dataset, tmp_path, capsys):
        rc = run(["cluster", "--scheme", "B"], dataset, tmp_path, "--k", "2")
        captured = capsys.readouterr()
        assert rc == 0
        assert "scheme B: 2 clusters" in captured.out

    def test_unknown_scheme_rejected_by_parser(self, dataset, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run(["cluster", "--scheme", "Z"], dataset, tmp_path)
        assert excinfo.value.code == 2


class TestWeights:
    def test_contiguity(self, dataset, tmp_path, capsys):
        rc = run(["weights", "--kind", "NN"], dataset, tmp_path)
        captured = capsys.readouterr()
        assert rc == 0
        assert "NN: 9x9, 0 zero rows" in captured.out
        header = (tmp_path / "weights_NN.csv").read_text().splitlines()[0]
        assert header.split(",")[:2] == ["country", "C00"]
        meta = json.loads((tmp_path / "weights_NN.json").read_text())
        assert meta["kind"] == "NN"
        assert meta["n"] == 9

    def test_contiguity_needs_adjacency(self, dataset, tmp_path, capsys):
        rc = main(["weights", "--kind", "NN", "--data", str(dataset["panel"]),
                   "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "no adjacency file configured" in captured.err

    def test_cluster_restricted_kind_reports_zero_rows(self, dataset, tmp_path,
                                                       capsys):
        # Sign-string clustering leaves one noisy country idiosyncratic.
        rc = run(["weights", "--kind", "cC"], dataset, tmp_path)
        captured = capsys.readouterr()
        assert rc == 0
        assert "cC: 9x9, 1 zero rows" in captured.out

    def test_unknown_kind_rejected_by_parser(self, dataset, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run(["weights", "--kind", "xx"], dataset, tmp_path)
        assert excinfo.value.code == 2


class TestFit:
    def test_outputs_and_summary_line(self, dataset, tmp_path, capsys):
        rc = run(["fit", "--kind", "dB"], dataset, tmp_path)
        captured = capsys.readouterr()
        assert rc == 0
        assert "in-sample Frobenius norm" in captured.out
        assert "over 1952-1990" in captured.out
        header = (tmp_path / "coefficients_dB.csv").read_text().splitlines()[0]
        assert header == "country,c,phi,psi,sigma2,dropped"
        fitted = (tmp_path / "fitted_dB.csv").read_text().splitlines()
        assert fitted[0] == "country,year,temperature"
        assert len(fitted) == 1 + 9 * (41 - 2)
        # The panel's years but the first two (differencing and the lag).
        assert {int(r.split(",")[1]) for r in fitted[1:]} == set(range(1952, 1991))


@pytest.fixture()
def refused_allocations(monkeypatch):
    """`np.empty` refuses any array over 4 GiB, with the message numpy gives
    when the system refuses it, and never tries: under overcommit a real
    attempt can succeed and the process is killed when it touches the pages."""
    empty = np.empty

    def guarded(shape, dtype=float, *args, **kwargs):
        dims = tuple(shape) if np.iterable(shape) else (shape,)
        size = int(np.prod(dims, dtype=object)) * np.dtype(dtype).itemsize
        if size > 2**32:
            raise MemoryError(f"Unable to allocate {size / 2**30:.3g} GiB for an array "
                              f"with shape {dims} and data type {np.dtype(dtype)}")
        return empty(shape, dtype, *args, **kwargs)
    monkeypatch.setattr(np, "empty", guarded)


class TestForecast:
    def test_impossible_horizon_fails_at_one_allocation(self, dataset, tmp_path, capsys,
                                                        refused_allocations):
        out = tmp_path / "out"
        assert run(["forecast", "--kind", "dB", "--horizon", "100000000"], dataset, out) == 2
        assert capsys.readouterr().err == (
            "error: not enough memory: Unable to allocate 6.71 GiB for an array "
            "with shape (9, 100000000) and data type float64\n")
        assert not out.exists()

    def test_default_origin_is_panel_end(self, dataset, tmp_path, capsys):
        rc = run(["forecast", "--kind", "dB", "--horizon", "3"],
                 dataset, tmp_path)
        captured = capsys.readouterr()
        assert rc == 0
        assert "forecast 3 years from origin 1990" in captured.out
        rows = (tmp_path / "forecast_dB.csv").read_text().splitlines()
        assert len(rows) == 1 + 9 * 3
        years = {int(r.split(",")[1]) for r in rows[1:]}
        assert years == {1991, 1992, 1993}

    def test_explicit_origin_refits_on_training_slice(self, dataset, tmp_path,
                                                      capsys):
        rc = run(["forecast", "--kind", "dB", "--origin", "1980",
                  "--horizon", "5"], dataset, tmp_path)
        captured = capsys.readouterr()
        assert rc == 0
        assert "forecast 5 years from origin 1980" in captured.out
        rows = (tmp_path / "forecast_dB.csv").read_text().splitlines()
        years = {int(r.split(",")[1]) for r in rows[1:]}
        assert years == {1981, 1982, 1983, 1984, 1985}

    def test_horizon_flag_beats_config(self, dataset, tmp_path):
        rc = run(["forecast", "--kind", "dB", "--horizon", "2"],
                 dataset, tmp_path)
        assert rc == 0
        rows = (tmp_path / "forecast_dB.csv").read_text().splitlines()
        assert len(rows) == 1 + 9 * 2

    def test_config_horizon_is_the_default(self, dataset, tmp_path):
        rc = run(["forecast", "--kind", "dB"], dataset, tmp_path)
        assert rc == 0
        rows = (tmp_path / "forecast_dB.csv").read_text().splitlines()
        assert len(rows) == 1 + 9 * 5


class TestEvaluate:
    def test_full_run(self, dataset, tmp_path, capsys):
        rc = run(["evaluate"], dataset, tmp_path)
        captured = capsys.readouterr()
        assert rc == 0
        assert "MCS survivors at alpha=0.01:" in captured.out
        report = json.loads((tmp_path / "report.json").read_text())
        assert sorted(report["models"]) == ["NN", "cA", "cB", "cC",
                                            "dA", "dB", "dC"]
        assert set(report["in_sample_fn"]) == set(report["models"])
        assert max(report["mcs"]["p_values"].values()) == 1.0
        assert report["mcs"]["survivors"]
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert lines[0] == "model,in_sample_fn,out_of_sample_fn,mcs_p"
        assert len(lines) == 8
        plot = (tmp_path / "plot_losses.csv").read_text().splitlines()
        assert plot[0] == "model,year,loss"
        assert len(plot) == 1 + 7 * 5

    def test_repeat_runs_are_byte_identical(self, dataset, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["evaluate"], dataset, out_a) == 0
        assert run(["evaluate"], dataset, out_b) == 0
        assert (out_a / "report.json").read_bytes() == \
            (out_b / "report.json").read_bytes()
        assert (out_a / "report.csv").read_bytes() == \
            (out_b / "report.csv").read_bytes()

    def test_stages_run_in_order(self, dataset, tmp_path, monkeypatch):
        # The out-of-sample run, its training-slice weights built and freed
        # inside it, comes before the full-sample weights; the MCS, which
        # sets the peak memory, comes after the in-sample fits.
        events, weight_ends = [], []
        for module, name in ((evaluation, "oos_experiment"), (pipeline, "build_weights"),
                             (evaluation, "in_sample_fn"), (evaluation, "mcs"),
                             (evaluation, "build_report")):
            def recorded(*args, _call=getattr(module, name), _name=name, **kwargs):
                if _name == "build_weights":
                    weight_ends.append(args[0].years[-1])
                events.append(_name)
                result = _call(*args, **kwargs)
                events.append(f"/{_name}")
                return result
            monkeypatch.setattr(module, name, recorded)
        assert run(["evaluate"], dataset, tmp_path) == 0
        assert events == ["oos_experiment", "build_weights", "/build_weights", "/oos_experiment",
                          "build_weights", "/build_weights", "in_sample_fn", "/in_sample_fn",
                          "mcs", "/mcs", "build_report", "/build_report"]
        assert weight_ends == [1980, 1990]  # the training slice, then the full sample

    def test_split_past_panel_end(self, dataset, tmp_path, capsys):
        rc = run(["evaluate", "--origin", "1988", "--horizon", "10"],
                 dataset, tmp_path)
        captured = capsys.readouterr()
        assert rc == 2
        assert "runs past the panel end 1990" in captured.err

    @pytest.mark.parametrize("flags, message", [
        (("--horizon", "30"), "origin 1980 + horizon 30 runs past the panel end 1990"),
        (("--origin", "2030"), "origin 2030 + horizon 5 runs past the panel end 1990"),
        (("--origin", "1900"), "last_train_year 1900 must be strictly inside 1950..1990"),
    ], ids=["horizon", "late-origin", "early-origin"])
    def test_split_checked_before_clustering(self, dataset, tmp_path, capsys, calls,
                                             flags, message):
        assert run(["evaluate", *flags], dataset, tmp_path) == 2
        assert message in capsys.readouterr().err
        assert calls == ["load_panel"]

    # `mcs` reads no panel at all: it tests the dataset's losses file, whose
    # seven models span the 5-year horizon.
    @pytest.mark.parametrize("command", ["evaluate", "mcs"])
    def test_block_checked_before_panel_is_read(self, dataset, tmp_path, capsys, calls,
                                                command):
        assert run([*_command_argv(command, dataset), "--block", "6"], dataset, tmp_path) == 2
        assert "error: block length 6 outside [1, 5]" in capsys.readouterr().err
        assert calls == []

    # 2**63 - 1 replications are past the address space; 10**14 (4.97 PiB
    # of bootstrap means) are past any machine's memory.
    @pytest.mark.parametrize("command", ["evaluate", "mcs"])
    def test_unformable_reps_refused_before_panel_is_read(self, dataset, tmp_path, capsys,
                                                          calls, command):
        for reps, refusal in [
                (2**63 - 1, f"an array with shape (7, {2**63 - 1}): array is too big"),
                (10**14, "5.22e+06 GiB for an array with shape (7, 100000000000000) "
                         "and data type float64")]:
            out = tmp_path / "a" / "b"
            argv = [*_command_argv(command, dataset), "--reps", str(reps)]
            assert run(argv, dataset, out) == 2
            assert capsys.readouterr().err == ("error: not enough memory: Unable to allocate "
                                               f"{refusal}\n")
            assert calls == []
            assert list(tmp_path.iterdir()) == []


def _command_argv(command, dataset):
    """`command` with the flags it needs to run on the dataset."""
    return ["mcs", "--losses", str(dataset["losses"])] if command == "mcs" else [command]


def _losses_text():
    """Dominance setup: one model's losses sit a unit above the other's."""
    rng = np.random.default_rng(0)
    lines = ["model,period,loss"]
    for t in range(20):
        base = float(rng.normal(1.0, 0.05))
        lines.append(f"good,{2000 + t},{base}")
        lines.append(f"bad,{2000 + t},{base + 1.0 + float(rng.normal(0, 0.01))}")
    return "\n".join(lines) + "\n"


class TestMcs:
    @pytest.fixture()
    def losses_csv(self, tmp_path):
        path = tmp_path / "losses.csv"
        path.write_text(_losses_text(), encoding="utf-8")
        return path

    def test_from_losses_csv(self, losses_csv, tmp_path, capsys):
        rc = main(["mcs", "--losses", str(losses_csv), "--reps", "500",
                   "--seed", "7", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "survivors at alpha=0.01: good" in captured.out
        payload = json.loads((tmp_path / "mcs.json").read_text())
        assert payload["survivors"] == ["good"]
        first_out, first_p = payload["eliminations"][0]
        assert first_out == "bad"
        assert first_p < 0.01
        assert payload["seed"] == 7
        assert payload["reps"] == 500

    def test_mcs_json_bytes_are_pinned(self, losses_csv, tmp_path, capsys):
        rc = main(["mcs", "--losses", str(losses_csv), "--reps", "500",
                   "--seed", "7", "--out", str(tmp_path)])
        capsys.readouterr()
        assert rc == 0
        assert (tmp_path / "mcs.json").read_text(encoding="utf-8") == (
            '{\n  "alpha": 0.01,\n  "block": 2,\n  "eliminations": [\n'
            '    [\n      "bad",\n      0.001996007984031936\n    ],\n'
            '    [\n      "good",\n      1.0\n    ]\n  ],\n  "reps": 500,\n'
            '  "seed": 7,\n  "statistic": "SQ",\n  "survivors": [\n'
            '    "good"\n  ]\n}\n')

    def test_losses_read_like_other_csv_inputs(self, losses_csv, tmp_path, capsys):
        # Header cells are stripped and whitespace-only rows skipped, as in
        # panel, zones and adjacency files; a later fault keeps its line.
        lines = _losses_text().splitlines()
        lines[0] = " model , period ,loss "
        lines.insert(3, "  ,  ")
        spaced = tmp_path / "spaced.csv"
        spaced.write_text("\n".join(lines) + "\n", encoding="utf-8")
        outputs = []
        for path in (losses_csv, spaced):
            out = tmp_path / path.stem
            assert main(["mcs", "--losses", str(path), "--reps", "200",
                         "--out", str(out)]) == 0
            outputs.append((out / "mcs.json").read_bytes())
        assert outputs[0] == outputs[1]
        spaced.write_text("\n".join(lines) + "\nbad,2099,x\n", encoding="utf-8")
        assert main(["mcs", "--losses", str(spaced), "--out", str(tmp_path)]) == 2
        assert f"{spaced}:{len(lines) + 1}: bad loss 'x'" in capsys.readouterr().err

    def test_losses_header_in_any_case(self, tmp_path, capsys):
        # Header names match in any case, as in panel, zones and adjacency
        # files, and the period column may be named year; one name given
        # twice in two cases is a repeated column, and so are period and year.
        lines = _losses_text().splitlines()
        cased = tmp_path / "cased.csv"
        outputs = []
        for i, header in enumerate(("model,period,loss", "Model,PERIOD,Loss", "model,Year,loss")):
            cased.write_text("\n".join([header, *lines[1:]]) + "\n", encoding="utf-8")
            out = tmp_path / f"out{i}"
            assert main(["mcs", "--losses", str(cased), "--reps", "200",
                         "--out", str(out)]) == 0
            outputs.append((out / "mcs.json").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        cased.write_text("\n".join(["Model,period,loss,model", *lines[1:]]) + "\n",
                         encoding="utf-8")
        assert main(["mcs", "--losses", str(cased), "--out", str(tmp_path / "repeat")]) == 2
        assert "losses file header repeats column 'model'" in capsys.readouterr().err
        cased.write_text("\n".join(["model,Period,loss,year",
                                    *(f"{line},{line.split(',')[1]}" for line in lines[1:])])
                         + "\n", encoding="utf-8")
        assert main(["mcs", "--losses", str(cased), "--out", str(tmp_path / "both")]) == 2
        assert capsys.readouterr().err == ("error: losses file header holds both "
                                           "'period' and 'year'\n")
        assert not (tmp_path / "both").exists()

    def test_losses_that_evaluate_writes(self, dataset, tmp_path, capsys):
        # `evaluate`'s plot_losses.csv, as it stands, gives the MCS that
        # `evaluate` reports.
        assert run(["evaluate"], dataset, tmp_path) == 0
        assert run(["mcs", "--losses", str(tmp_path / "plot_losses.csv")], dataset, tmp_path) == 0
        capsys.readouterr()
        reported = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))["mcs"]
        payload = json.loads((tmp_path / "mcs.json").read_text(encoding="utf-8"))
        assert len(payload["eliminations"]) == 7
        assert dict(payload["eliminations"]) == reported["p_values"]
        assert payload["survivors"] == reported["survivors"]

    def test_losses_flag_is_required(self, dataset, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["mcs"], dataset, tmp_path / "out")
        assert excinfo.value.code == 2
        assert "the following arguments are required: --losses" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_reads_no_panel_zones_or_adjacency(self, losses_csv, tmp_path, capsys):
        # Inputs that fail every other command are configured but not opened;
        # `mcs` takes no flag naming them.
        bad = tmp_path / "bad.csv"
        bad.write_text("country,year,temperature\n\nA,MMXX,1.0\n", encoding="utf-8")
        config = tmp_path / "run.yaml"
        config.write_text(f"data:\n  panel: {bad}\n  zones: {bad}\n  adjacency: {bad}\n",
                          encoding="utf-8")
        outputs = []
        for inputs in ([], ["--config", str(config)]):
            out = tmp_path / f"out{len(inputs)}"
            assert main(["mcs", "--losses", str(losses_csv), "--reps", "200", *inputs,
                         "--out", str(out)]) == 0
            outputs.append((out / "mcs.json").read_bytes())
        assert outputs[0] == outputs[1]

    def test_losses_file_missing(self, tmp_path, capsys):
        rc = main(["mcs", "--losses", str(tmp_path / "none.csv"),
                   "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "losses file not found" in captured.err

    def test_losses_bad_number(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("model,period,loss\ngood,2000,oops\n")
        rc = main(["mcs", "--losses", str(path), "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert f"{path}:2: bad loss 'oops'" in captured.err

    @pytest.mark.parametrize("rows, message", [
        ("a,1,1.0\na,1,2.0\na,2,1.5\nb,1,1.0\nb,1,1.2\nb,2,0.5\n",
         ":3: duplicate entry for model 'a', period '1'"),
        ("a,1,1.0\n ,2,1.5\n", ":3: blank model"),
        ("a,1,1.0\na,\t,1.5\n", ":3: blank period"),
        ("a,1,1.0\n,,1.5\n", ":3: blank model and period"),
    ], ids=["duplicate", "blank-model", "blank-period", "both-blank"])
    def test_losses_rows_outside_the_contract(self, tmp_path, capsys, rows, message):
        # One row per model and period, each named by a non-blank cell.
        path = tmp_path / "losses.csv"
        path.write_text("model,period,loss\n" + rows, encoding="utf-8")
        assert main(["mcs", "--losses", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"error: {path}{message}\n" == capsys.readouterr().err

    def test_losses_cells_compared_as_written(self, tmp_path, capsys):
        # " 1" and "1" are two periods, so each model has one row per period.
        path = tmp_path / "losses.csv"
        path.write_text("model,period,loss\na,1,1.0\na, 1,2.0\nb,1,1.5\nb, 1,0.5\n",
                        encoding="utf-8")
        assert main(["mcs", "--losses", str(path), "--reps", "200", "--block", "1",
                     "--out", str(tmp_path / "out")]) == 0

    def test_losses_row_shorter_than_header(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("model,period,loss\ngood,2000,1.0\n\ngood,2001\nbad\n")
        rc = main(["mcs", "--losses", str(path), "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert f"{path}:4: missing loss" in captured.err

    def test_single_model_block_checked(self, tmp_path, capsys):
        # One model is checked like many: its block must fit its 10 periods.
        path = tmp_path / "losses.csv"
        path.write_text("model,period,loss\n" + "".join(f"only,{t},{t / 10}\n" for t in range(10)),
                        encoding="utf-8")
        rc = main(["mcs", "--losses", str(path), "--block", "50", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == "error: block length 50 outside [1, 10]\n"

    def test_losses_needs_columns(self, tmp_path, capsys):
        path = tmp_path / "cols.csv"
        path.write_text("model,year,value\ngood,2000,1.0\n")
        # The losses are read before the output directory is made, so an
        # --out under a file does not hide their fault.
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory\n", encoding="utf-8")
        for out in (tmp_path, blocker / "out"):
            rc = main(["mcs", "--losses", str(path), "--out", str(out)])
            captured = capsys.readouterr()
            assert rc == 2
            assert "losses file needs columns" in captured.err


class TestConfigResolution:
    def test_env_var_supplies_config(self, dataset, tmp_path, monkeypatch,
                                     capsys):
        # STARCLUST_CONFIG supplies no config: only --config names one.
        monkeypatch.setenv("STARCLUST_CONFIG", str(dataset["config"]))
        out = tmp_path / "out"
        assert main(["trends", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: no panel data file configured\n"
        assert not out.exists()

    def test_config_flag_beats_env_var(self, dataset, tmp_path, monkeypatch,
                                       capsys):
        # With STARCLUST_CONFIG naming a broken config, --config alone decides.
        bad = tmp_path / "bad.yaml"
        bad.write_text("data:\n  panel: /nonexistent/panel.csv\n")
        monkeypatch.setenv("STARCLUST_CONFIG", str(bad))
        rc = main(["trends", "--config", str(dataset["config"]),
                   "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        assert (tmp_path / "trends.csv").is_file()

    def test_workers_flag_and_key_are_unknown(self, dataset, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["evaluate", "--workers", "2"], dataset, tmp_path)
        assert excinfo.value.code == 2
        config = tmp_path / "workers.yaml"
        config.write_text(dataset["config"].read_text() + "workers: 2\n")
        rc = main(["evaluate", "--config", str(config), "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "unknown config key 'workers'" in captured.err

    def test_include_null_in_dA_key_is_unknown(self, dataset, tmp_path, capsys):
        config = tmp_path / "knob.yaml"
        config.write_text(dataset["config"].read_text().replace(
            "weights:\n", "weights:\n  include_null_in_dA: false\n"))
        rc = main(["evaluate", "--config", str(config), "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "unknown config key weights.include_null_in_dA" in captured.err
        assert "Traceback" not in captured.err

    def test_data_flag_beats_config_file(self, dataset, tmp_path, capsys):
        rc = main(["trends", "--config", str(dataset["config"]),
                   "--data", str(tmp_path / "missing.csv"),
                   "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "missing.csv" in captured.err


# Flags that choose what a command does rather than a run parameter.
CLI_ONLY = {"config", "scheme", "k", "kind", "origin", "losses"}
REQUIRED_FLAGS = {"cluster": ["--scheme", "A"], "weights": ["--kind", "NN"],
                  "fit": ["--kind", "NN"], "forecast": ["--kind", "NN"],
                  "mcs": ["--losses", "losses.csv"]}


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = cli._base_parser()
    return next(action.choices for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))


def _yaml_key(field: str) -> list[str]:
    """The config file path (section, key) or (key,) that sets a RunConfig field."""
    for key, (name, _) in _TOP_LEVEL.items():
        if name == field:
            return [key]
    for section, keys in _SCHEMA.items():
        for key, (name, _) in keys.items():
            if name == field:
                return [section, key]
    raise AssertionError(f"no config key sets {field}")


class TestFlagCoverage:
    """Every flag either overrides the RunConfig field it is named after or is CLI-only."""

    FIELDS = {field.name for field in dataclasses.fields(RunConfig)}

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_every_flag_is_a_field_or_cli_only(self, command):
        for action in _subcommands()[command]._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            assert action.dest in self.FIELDS | CLI_ONLY, (command, action.option_strings)

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_every_field_flag_beats_its_config_key(self, command, tmp_path):
        parser = cli._base_parser()
        checked = []
        for action in _subcommands()[command]._actions:
            if action.dest not in self.FIELDS:
                continue
            flag = action.option_strings[0]
            if action.nargs == 0:       # a switch can only turn a field on
                from_file, from_flag, argv = False, True, [flag]
            elif action.choices:
                from_file, from_flag = action.choices[-1], action.choices[0]
                argv = [flag, from_flag]
            elif action.type is int:
                from_file, from_flag = 3, 7
                argv = [flag, str(from_flag)]
            else:
                from_file, from_flag = "from-file", "from-flag"
                argv = [flag, from_flag]
            *sections, key = _yaml_key(action.dest)
            document = {key: from_file}
            for section in sections:
                document = {section: document}
            path = tmp_path / f"{action.dest}.yaml"
            path.write_text(yaml.safe_dump(document), encoding="utf-8")
            base = [command, *REQUIRED_FLAGS.get(command, []), "--config", str(path)]
            file_only = cli._resolve_config(parser.parse_args(base))
            assert getattr(file_only, action.dest) == from_file, flag
            both = cli._resolve_config(parser.parse_args([*base, *argv]))
            assert getattr(both, action.dest) == from_flag, flag
            checked.append(action.dest)
        # `mcs` reads no panel, and only `evaluate` and `mcs` draw at random.
        assert {"output_dir", *(() if command == "mcs" else ("panel_path",)),
                *(("seed",) if command in ("evaluate", "mcs") else ())} <= set(checked)

    def test_every_readme_flag_exists(self):
        # pip's flag in the install instructions is not a starclust option.
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme)) - {"--no-build-isolation"}
        options = {flag for parser in _subcommands().values()
                   for action in parser._actions for flag in action.option_strings}
        assert named and named <= options, sorted(named - options)


class TestOutputNames:
    @pytest.mark.parametrize("argv", [
        ["trends"], ["cluster", "--scheme", "A", "--zones", "ZONES"],
        ["cluster", "--scheme", "B"], ["cluster", "--scheme", "C"],
        ["weights", "--kind", "dB"], ["fit", "--kind", "NN"],
        ["forecast", "--kind", "cA", "--origin", "1985"], ["evaluate"],
        ["mcs", "--losses", "LOSSES"]],
        ids=["trends", "cluster-A", "cluster-B", "cluster-C", "weights-dB", "fit-NN",
             "forecast-cA", "evaluate", "mcs"])
    def test_every_written_file_is_checked(self, dataset, tmp_path, capsys, argv):
        argv = [str(dataset[arg.lower()]) if arg in ("ZONES", "LOSSES") else arg for arg in argv]
        assert run(argv, dataset, tmp_path) == 0
        capsys.readouterr()
        args = cli._base_parser().parse_args([*argv, "--out", str(tmp_path)])
        checked = {name.format_map(vars(args)) for name in cli._OUTPUTS[argv[0]]}
        written = {path.name for path in tmp_path.iterdir()}
        assert written and written <= checked


class TestAdjacencyReaders:
    """Only `evaluate` and the `--kind NN` commands read the adjacency file:
    one whose second line names ids outside the panel fails them alone."""

    @pytest.fixture()
    def unknown_ids(self, tmp_path):
        path = tmp_path / "adjacency.csv"
        path.write_text("country_a,country_b\nX,Y\n", encoding="utf-8")
        return path

    @pytest.mark.parametrize("argv, reads", [
        (["trends"], False), (["cluster", "--scheme", "C"], False),
        (["weights", "--kind", "dB"], False), (["fit", "--kind", "cC"], False),
        (["forecast", "--kind", "dA"], False), (["weights", "--kind", "NN"], True),
        (["fit", "--kind", "NN"], True), (["forecast", "--kind", "NN"], True),
        (["evaluate"], True)],
        ids=lambda value: "-".join(value[::2]) if isinstance(value, list) else None)
    def test_only_readers_fail(self, dataset, tmp_path, capsys, unknown_ids, argv, reads):
        rc = run(argv, dataset, tmp_path / "out", "--adjacency", str(unknown_ids))
        err = capsys.readouterr().err
        if reads:
            assert (rc, err) == (2, f"error: {unknown_ids}:2: unknown country id 'X' "
                                    "in adjacency\n")
        else:
            assert (rc, err) == (0, "")

    def test_cluster_writes_the_same_bytes(self, dataset, tmp_path, capsys, unknown_ids):
        written = []
        for name, adjacency in (("good", dataset["adjacency"]), ("bad", unknown_ids)):
            out = tmp_path / name
            assert run(["cluster", "--scheme", "C"], dataset, out,
                       "--adjacency", str(adjacency)) == 0
            written.append({path.name: path.read_bytes() for path in out.iterdir()})
        capsys.readouterr()
        assert written[0] and written[0] == written[1]


class TestMalformedInputs:
    """Bad files and paths end in exit 2 with a message, never a traceback."""

    @staticmethod
    def run_cli(*argv):
        env = dict(os.environ, PYTHONPATH=str(Path(starclust.__file__).parents[1]))
        return subprocess.run([sys.executable, "-m", "starclust.cli", *argv],
                              capture_output=True, text=True, env=env)

    def assert_clean_exit_2(self, result, message):
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert message in result.stderr

    def test_header_only_panel(self, tmp_path):
        panel = tmp_path / "panel.csv"
        panel.write_text("country,year,temperature\n", encoding="utf-8")
        result = self.run_cli("trends", "--data", str(panel), "--out", str(tmp_path))
        self.assert_clean_exit_2(result, "no observations")

    def test_non_numeric_zone_area(self, dataset, tmp_path):
        zones = tmp_path / "zones.csv"
        zones.write_text("country,zone,area\nC00,Europe,large\n", encoding="utf-8")
        result = self.run_cli("trends", "--data", str(dataset["panel"]),
                              "--zones", str(zones), "--out", str(tmp_path))
        self.assert_clean_exit_2(result, "non-numeric area 'large' for country 'C00'")

    def test_short_zone_row(self, dataset, tmp_path):
        zones = tmp_path / "zones.csv"
        zones.write_text("country,zone,area\nC00,Europe\n", encoding="utf-8")
        result = self.run_cli("trends", "--data", str(dataset["panel"]),
                              "--zones", str(zones), "--out", str(tmp_path))
        self.assert_clean_exit_2(result, f"{zones}:2: expected 3 columns, got 2")

    def test_short_losses_row(self, tmp_path):
        losses = tmp_path / "losses.csv"
        losses.write_text("model,period,loss\na,1,0.5\na,2\nb,1,0.7\nb,2,0.8\n",
                          encoding="utf-8")
        result = self.run_cli("mcs", "--losses", str(losses), "--out", str(tmp_path))
        self.assert_clean_exit_2(result, f"{losses}:3: missing loss")

    def test_negative_seed_flag(self, tmp_path):
        losses = tmp_path / "losses.csv"
        losses.write_text("model,period,loss\na,1,0.5\na,2,0.6\nb,1,0.7\nb,2,0.8\n",
                          encoding="utf-8")
        result = self.run_cli("mcs", "--losses", str(losses), "--seed", "-1",
                              "--out", str(tmp_path))
        self.assert_clean_exit_2(result, "seed must be >= 0, got -1")

    def test_negative_seed_in_config(self, dataset, tmp_path):
        # Rejected in the shared prologue, before any model work.
        config = tmp_path / "run.yaml"
        config.write_text("seed: -3\n", encoding="utf-8")
        result = self.run_cli("evaluate", "--config", str(config),
                              "--data", str(dataset["panel"]),
                              "--adjacency", str(dataset["adjacency"]), "--out", str(tmp_path))
        self.assert_clean_exit_2(result, "seed must be >= 0, got -3")
        assert not (tmp_path / "report.csv").exists()

    # Each removed flag after the command that took it: cluster's cut rule
    # flags and smallest cluster size, weights' rescaling share, the
    # significance levels of trends and of the MCS, the out-of-sample run's
    # flags that `mcs` took before it tested a losses file only, the seed of
    # commands that draw nothing at random, and `mcs`'s panel input flags.
    @pytest.mark.parametrize("flags", [
        (("cluster", "--scheme", "B"), ("--cut", "height")),
        (("cluster", "--scheme", "B"), ("--height", "0")),
        (("weights", "--kind", "dB", "--rescale"), ("--rho", "0.9")),
        (("cluster", "--scheme", "B"), ("--min-size", "2")),
        (("trends",), ("--alpha", "0.1")),
        (("evaluate",), ("--mcs-alpha", "0.05")),
        (("mcs", "--losses", "losses.csv"), ("--mcs-alpha", "0.05")),
        (("mcs", "--losses", "losses.csv"), ("--origin", "2000")),
        (("mcs", "--losses", "losses.csv"), ("--horizon", "10")),
        (("mcs", "--losses", "losses.csv"), ("--granularity", "year")),
        (("trends",), ("--seed", "1")),
        (("cluster", "--scheme", "B"), ("--seed", "1")),
        (("mcs", "--losses", "losses.csv"), ("--data", "p.csv"))])
    def test_removed_cut_flags_exit_2(self, tmp_path, flags):
        command, removed = flags
        result = self.run_cli(*command, *removed, "--out", str(tmp_path))
        self.assert_clean_exit_2(result, f"unrecognized arguments: {' '.join(removed)}")
        assert result.stderr.startswith("usage: starclust ")
        assert not any(tmp_path.iterdir())

    # Each would run as another flag if argparse took abbreviations: `--kin`
    # and `--k` as weights' `--kind`, `--gran` as evaluate's `--granularity`.
    @pytest.mark.parametrize("argv", [
        ("weights", "--kind", "dB", "--kin", "dC"),
        ("weights", "--kind", "cB", "--k", "cC"),
        ("evaluate", "--gran", "year")], ids=["kin", "k", "gran"])
    def test_abbreviated_flag_exits_2(self, dataset, tmp_path, argv):
        out = tmp_path / "out"
        result = self.run_cli(*argv, "--data", str(dataset["panel"]),
                              "--adjacency", str(dataset["adjacency"]), "--out", str(out))
        self.assert_clean_exit_2(result, f"unrecognized arguments: {' '.join(argv[-2:])}")
        assert not out.exists()

    # Rescaling maps the largest distance to 0.95 N, a cluster holds at least
    # two countries, and slopes and the MCS are read at the paper's 5% and
    # 1%; no key sets another share, size or level.
    @pytest.mark.parametrize("text, message", [
        ("weights:\n  rho: 0.9\n", "unknown config key weights.rho"),
        ("clusters:\n  min_size: 2\n", "unknown config key clusters.min_size"),
        ("trend_alpha: 0.1\n", "unknown config key 'trend_alpha'"),
        ("mcs:\n  alpha: 0.05\n", "unknown config key mcs.alpha")],
        ids=["weights.rho", "clusters.min_size", "trend_alpha", "mcs.alpha"])
    def test_removed_config_key_exits_2(self, dataset, tmp_path, text, message):
        config = tmp_path / "run.yaml"
        config.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        result = self.run_cli("weights", "--kind", "dB", "--config", str(config),
                              "--data", str(dataset["panel"]), "--out", str(out))
        self.assert_clean_exit_2(result, message)
        assert not out.exists()

    def test_repeated_config_key_exits_2(self, dataset, tmp_path):
        config = tmp_path / "run.yaml"
        config.write_text("mcs:\n  reps: 100\nmcs:\n  reps: 300\n", encoding="utf-8")
        out = tmp_path / "out"
        result = self.run_cli("trends", "--config", str(config),
                              "--data", str(dataset["panel"]), "--out", str(out))
        self.assert_clean_exit_2(result, f"{config}:3: config key 'mcs' repeated")
        assert not out.exists()

    def test_overflowing_differences_exit_3(self, dataset, tmp_path):
        # Finite levels whose first difference overflows to inf. C04's other
        # years repeat with period 3, a sign pattern no other country shares.
        def c04(row):
            cid, year, value = row.split(",")
            if cid != "C04":
                return row
            level = {"1960": "1.7e308", "1961": "-1.7e308"}.get(
                year, repr(20.0 + (int(year) % 3) * 0.5))
            return f"{cid},{year},{level}"
        panel = tmp_path / "panel.csv"
        panel.write_text("\n".join(map(c04, dataset["panel"].read_text(encoding="utf-8")
                                        .splitlines())) + "\n", encoding="utf-8")
        for command, message in [
                (("fit", "--kind", "NN"), "non-finite differences for C04"),
                (("cluster", "--scheme", "B", "--k", "3"),
                 "non-finite difference distances for C04"),
                # C04 is left idiosyncratic, so no cluster summary overflows.
                (("cluster", "--scheme", "C", "--k", "3"),
                 "non-finite scheme C feature mean for C04")]:
            result = self.run_cli(*command, "--data", str(panel), "--adjacency",
                                  str(dataset["adjacency"]), "--out", str(tmp_path))
            assert result.returncode == 3
            assert "Traceback" not in result.stderr and "Warning" not in result.stderr
            assert message in result.stderr
            assert [path.name for path in tmp_path.iterdir()] == ["panel.csv"]

    @pytest.mark.parametrize("command, message", [
        (("trends",), "numerical error: C00: non-finite trend fit"),
        (("fit", "--kind", "NN"), "numerical error: non-finite residual variance for C00"),
        (("cluster", "--scheme", "C", "--k", "3"),
         "numerical error: non-finite summary of scheme C cluster 1"),
        (("cluster", "--scheme", "B", "--k", "3"),
         "numerical error: non-finite difference distances for C00"),
        (("weights", "--kind", "dB"), "numerical error: non-finite difference distances for C00"),
    ], ids=["trends", "fit", "cluster-C", "cluster-B", "weights-dB"])
    def test_overflowing_squares_exit_3(self, dataset, tmp_path, command, message):
        # Levels near 1e282 are finite, but their squared residuals and
        # squared annual changes overflow.
        header, *rows = dataset["panel"].read_text(encoding="utf-8").splitlines()
        scaled = [f"{cid},{year},{float(value) * 1e280!r}"
                  for cid, year, value in (row.split(",") for row in rows)]
        panel = tmp_path / "panel.csv"
        panel.write_text("\n".join([header, *scaled]) + "\n", encoding="utf-8")
        result = self.run_cli(*command, "--data", str(panel),
                              "--adjacency", str(dataset["adjacency"]), "--out", str(tmp_path))
        assert result.returncode == 3
        assert result.stderr.startswith(message)
        assert "Traceback" not in result.stderr and "Warning" not in result.stderr
        assert [path.name for path in tmp_path.iterdir()] == ["panel.csv"]

    def test_overflowing_losses_exit_3(self, tmp_path):
        losses = tmp_path / "losses.csv"
        losses.write_text("model,period,loss\na,1,1e308\na,2,0\nb,1,0\nb,2,1e308\n",
                          encoding="utf-8")
        result = self.run_cli("mcs", "--losses", str(losses), "--reps", "200",
                              "--block", "1", "--out", str(tmp_path / "out"))
        assert result.returncode == 3
        assert result.stderr == ("numerical error: non-finite bootstrap variance "
                                 "for models 'a' and 'b'\n")
        assert not (tmp_path / "out").exists()

    def test_block_longer_than_horizon_at_observation_granularity(self, tmp_path):
        # Observation-level blocks are whole years, so the bound is the
        # horizon. The benchmark generator's panel spans 1901-2022.
        paths = _generated_inputs(tmp_path / "inputs")
        config = tmp_path / "run.yaml"
        config.write_text(
            f"data:\n  panel: {paths['panel']}\n  adjacency: {paths['adjacency']}\n"
            "clusters:\n  A: 1\n  B: 3\n  C: 4\nweights:\n  rescale: true\n"
            "split_year: 2000\nhorizon: 22\ngranularity: observation\n"
            "mcs:\n  reps: 200\n  block: 23\n", encoding="utf-8")
        result = self.run_cli("evaluate", "--config", str(config),
                              "--out", str(tmp_path / "out"))
        self.assert_clean_exit_2(result, "block length 23 outside [1, 22]")
        assert not any((tmp_path / "out").glob("*"))

    @pytest.mark.parametrize("argv", [["fit", "--kind", "dC"], ["forecast", "--kind", "dC"],
                                      ["evaluate"]], ids=["fit", "forecast", "evaluate"])
    def test_wide_distances_name_the_rescale_key(self, tmp_path, capsys, argv):
        # Without rescaling, sign mismatches over 121 years exceed N = 40.
        # Every command reads weights.rescale; only `weights` has --rescale.
        paths = _generated_inputs(tmp_path / "inputs")
        config = tmp_path / "run.yaml"
        config.write_text(
            f"data:\n  panel: {paths['panel']}\n  adjacency: {paths['adjacency']}\n"
            "clusters:\n  A: 1\n  B: 3\n  C: 4\nweights:\n  rescale: false\n"
            "mcs:\n  reps: 200\n", encoding="utf-8")
        assert main([*argv, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: distance \S+ exceeds panel size 40; "
                            r"set weights\.rescale to map it to 0\.95\*N\n", err)
        assert "--rescale" not in err

    @pytest.mark.parametrize("argv, message", [
        (["evaluate", "--horizon", "30"], "origin 1980 + horizon 30 runs past the panel end 1990"),
        (["forecast", "--kind", "dC", "--origin", "1850"],
         "last_train_year 1850 must be strictly inside 1950..1990"),
        (["cluster", "--scheme", "B", "--k", "150"],
         "no dendrogram cut produces exactly 150 clusters of size >= 2"),
        (["mcs", "--losses", "{losses}", "--block", "50"], "block length 50 outside [1, 10]"),
    ], ids=["evaluate-horizon", "forecast-origin", "cluster-k", "mcs-block"])
    @pytest.mark.parametrize("out", ["out", "a/b"])
    def test_failed_run_removes_the_output_directory_it_made(self, dataset, tmp_path, capsys,
                                                              argv, message, out):
        losses = tmp_path / "losses.csv"
        losses.write_text("model,period,loss\n" + "".join(
            f"{m},{t},{t / 10 + i}\n" for i, m in enumerate("ab") for t in range(10)),
            encoding="utf-8")
        argv = [arg.format(losses=losses) for arg in argv]
        assert run(argv, dataset, tmp_path / out) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["losses.csv"]

    def test_refused_allocation_is_a_clean_failure(self, dataset, tmp_path, capsys,
                                                   refused_allocations):
        out = tmp_path / "a" / "b"
        assert run(["evaluate", "--reps", "100000000000"], dataset, out) == 2
        assert capsys.readouterr().err == (
            "error: not enough memory: Unable to allocate 5.22e+03 GiB for an array "
            "with shape (7, 100000000000) and data type float64\n")
        assert list(tmp_path.iterdir()) == []

    # A shape past the address space, which numpy refuses with ValueError
    # before it takes any memory, is a refused allocation like any other.
    @pytest.mark.parametrize("argv, shape", [
        (("forecast", "--kind", "dA", "--horizon", str(10**20)), f"(9, {10**20})"),
        (("forecast", "--kind", "dA", "--horizon", str(2**63 - 1)), f"(9, {2**63 - 1})"),
        (("evaluate", "--reps", str(2**63 - 1)), f"(7, {2**63 - 1})"),
        (("mcs", "--losses", "{losses}", "--reps", str(10**20)), f"(7, {10**20})")],
        ids=["forecast-1e20", "forecast-int64", "evaluate-int64", "mcs-1e20"])
    def test_shape_past_the_address_space_is_a_refused_allocation(self, dataset, tmp_path,
                                                                  argv, shape):
        argv = [arg.format(losses=dataset["losses"]) for arg in argv]
        result = self.run_cli(*argv, "--config", str(dataset["config"]),
                              "--out", str(tmp_path / "a" / "b"))
        self.assert_clean_exit_2(result, "error: not enough memory: Unable to allocate "
                                         f"an array with shape {shape}: ")
        assert list(tmp_path.iterdir()) == []

    def test_bare_memory_error_is_named(self, dataset, tmp_path, capsys, monkeypatch):
        def refused(path):
            raise MemoryError
        monkeypatch.setattr(cli, "load_panel", refused)
        assert run(["trends"], dataset, tmp_path / "out") == 2
        assert capsys.readouterr().err == "error: not enough memory: an allocation was refused\n"

    def test_failed_run_keeps_an_output_directory_that_existed(self, dataset, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        assert run(["evaluate", "--horizon", "30"], dataset, out) == 2
        assert out.is_dir() and list(out.iterdir()) == []

    def test_uncreatable_output_directory(self, dataset, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory\n", encoding="utf-8")
        out = blocker / "run" / "out"
        result = self.run_cli("trends", "--data", str(dataset["panel"]),
                              "--out", str(out))
        self.assert_clean_exit_2(result, f"cannot create output directory {out}")

    @pytest.mark.parametrize("command, blocked", [
        (("trends",), "trends.csv"),
        (("weights", "--kind", "dC", "--rescale"), "weights_dC.json"),
        (("cluster", "--scheme", "B"), "summary_B.csv"),
        (("evaluate",), "plot_losses.csv"),
    ], ids=["csv", "json", "cluster", "evaluate"])
    def test_unwritable_output_file(self, dataset, tmp_path, command, blocked):
        # An output file's path is taken by a directory. Every path is
        # checked before the first write, so no file is written, although
        # the blocked file is not the command's first.
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        result = self.run_cli(*command, "--config", str(dataset["config"]), "--out", str(out))
        self.assert_clean_exit_2(
            result, f"cannot write output file {out / blocked}: Is a directory")
        assert [path.name for path in out.iterdir()] == [blocked]

    @pytest.mark.parametrize("rows, message", [
        ("C00,Europe\nC00,Asia\n", "conflicting zone for country 'C00': 'Europe' vs 'Asia'"),
        ("C00,Europe\nZZ,Africa\n", "{zones}:3: unknown country id 'ZZ' in zone file"),
    ], ids=["conflict", "unknown-id"])
    def test_contradictory_zones(self, dataset, tmp_path, rows, message):
        zones = tmp_path / "zones.csv"
        zones.write_text("country,zone\n" + rows, encoding="utf-8")
        result = self.run_cli("cluster", "--scheme", "A", "--data", str(dataset["panel"]),
                              "--zones", str(zones), "--out", str(tmp_path))
        self.assert_clean_exit_2(result, message.format(zones=zones))

    @pytest.mark.parametrize("target", ["panel", "zones", "adjacency", "losses", "config"])
    def test_non_utf8_input(self, dataset, tmp_path, target):
        if target == "losses":
            valid = b"model,period,loss\n" + b"".join(
                b"m%d,%d,0.5\n" % (i % 2, i // 2) for i in range(2000))
        else:
            valid = dataset[target].read_bytes()
        # A Latin-1 byte on the last line, past the reader's first decoded chunk
        # wherever the file is longer than one.
        lines = valid.splitlines(keepends=True)
        lines[-1] = b"\xe9" + lines[-1]
        bad = tmp_path / f"bad_{target}"
        bad.write_bytes(b"".join(lines))
        out = str(tmp_path / "out")
        argv = {"panel": ["trends", "--data", str(bad)],
                "zones": ["trends", "--data", str(dataset["panel"]), "--zones", str(bad)],
                "adjacency": ["weights", "--kind", "NN", "--data", str(dataset["panel"]),
                              "--adjacency", str(bad)],
                "losses": ["mcs", "--losses", str(bad)],
                "config": ["trends", "--config", str(bad)]}[target]
        result = self.run_cli(*argv, "--out", out)
        self.assert_clean_exit_2(result, f"{bad}:{len(lines)}: not valid UTF-8 (byte 0xe9)")

    @pytest.mark.parametrize("header, command", [
        (b"country,year,temperature\nA,1901,", ["trends", "--data"]),
        (b"model,period,loss\na,1,", ["mcs", "--losses"]),
    ], ids=["panel", "losses"])
    def test_field_over_csv_limit(self, tmp_path, header, command):
        bad = tmp_path / "long_field.csv"
        bad.write_bytes(header + b"1" * 131_073 + b"\n")
        result = self.run_cli(*command, str(bad), "--out", str(tmp_path / "out"))
        self.assert_clean_exit_2(result, f"{bad}:2: field larger than field limit (131072)")


class TestByteOrderMark:
    """A UTF-8 byte-order mark, as spreadsheet exports write it, changes nothing."""

    @pytest.mark.parametrize("target", ["panel", "zones", "adjacency", "losses"])
    def test_same_outputs_with_and_without_mark(self, dataset, tmp_path, capsys, target):
        outputs = {}
        for mark in (b"", b"\xef\xbb\xbf"):
            root = tmp_path / ("bom" if mark else "plain")
            root.mkdir()
            paths = {name: root / f"{name}.csv" for name in ("panel", "zones", "adjacency")}
            for name, path in paths.items():
                path.write_bytes(dataset[name].read_bytes())
            paths["losses"] = root / "losses.csv"
            paths["losses"].write_text(_losses_text(), encoding="utf-8")
            paths[target].write_bytes(mark + paths[target].read_bytes())
            argv = {"panel": ["trends", "--data", str(paths["panel"])],
                    "zones": ["cluster", "--scheme", "A", "--k", "2", "--data",
                              str(paths["panel"]), "--zones", str(paths["zones"])],
                    "adjacency": ["weights", "--kind", "NN", "--data", str(paths["panel"]),
                                  "--adjacency", str(paths["adjacency"])],
                    "losses": ["mcs", "--losses", str(paths["losses"]), "--reps", "200"]}[target]
            assert main([*argv, "--out", str(root / "out")]) == 0
            outputs[mark] = {f.name: f.read_bytes() for f in (root / "out").iterdir()}
        capsys.readouterr()
        assert outputs[b""] == outputs[b"\xef\xbb\xbf"]
        if target == "zones":
            assert "contingency_A.csv" in outputs[b""]


class TestRepeatedColumn:
    """A column that a reader uses, named twice in the header, exits 2: either
    column could be the one meant. A repeated column no reader uses is allowed.
    A wide panel is refused for its layout before any repeat is looked at."""

    @staticmethod
    def run_with_column_repeated(dataset, root, target, column):
        texts = {name: dataset[name].read_text(encoding="utf-8")
                 for name in ("panel", "zones", "adjacency")}
        texts["losses"] = _losses_text()
        by_country: dict[str, list[str]] = {}
        for row in texts["panel"].splitlines()[1:]:
            cid, year, value = row.split(",")
            by_country.setdefault(cid, []).append(value)
        years = [row.split(",")[1] for row in texts["panel"].splitlines()[1:]
                 if row.startswith("C00,")]
        texts["wide"] = "\n".join([",".join(["country", *years]),
                                   *(",".join([cid, *values])
                                     for cid, values in by_country.items())]) + "\n"
        # Each row repeats the cell of the column named `column`, or of the
        # first column when the header has none.
        header, *rows = texts[target].splitlines()
        names = header.split(",")
        at = names.index(column) if column in names else 0
        texts[target] = "\n".join([f"{header},{column}",
                                   *(f"{row},{row.split(',')[at]}" for row in rows)]) + "\n"
        paths = {name: root / f"{name}.csv" for name in texts}
        for name, path in paths.items():
            path.write_text(texts[name], encoding="utf-8")
        panel = ["--data", str(paths["wide" if target == "wide" else "panel"])]
        argv = {"panel": ["trends", *panel], "wide": ["trends", *panel],
                "zones": ["cluster", "--scheme", "A", "--k", "2", *panel,
                          "--zones", str(paths["zones"])],
                "adjacency": ["weights", "--kind", "NN", *panel,
                              "--adjacency", str(paths["adjacency"])],
                "losses": ["mcs", "--losses", str(paths["losses"]), "--reps", "200"]}[target]
        return main([*argv, "--out", str(root / "out")])

    @pytest.mark.parametrize("target, column", [
        ("panel", "temperature"), ("wide", "country"), ("wide", "1990"),
        ("zones", "zone"), ("adjacency", "country_b"), ("losses", "loss")])
    def test_used_column_exits_2_naming_it(self, dataset, tmp_path, capsys, target, column):
        assert self.run_with_column_repeated(dataset, tmp_path, target, column) == 2
        captured = capsys.readouterr()
        if target == "wide":
            assert captured.err == ("error: panel header must hold country, year and "
                                    "temperature columns\n")
        else:
            assert f"header repeats column {column!r}" in captured.err
        assert "Traceback" not in captured.err

    def test_unused_column_may_repeat(self, dataset, tmp_path, capsys):
        assert self.run_with_column_repeated(dataset, tmp_path, "panel", "note") == 0
        capsys.readouterr()


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                     "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _generated_inputs(root: Path) -> dict:
    """The benchmark generator's seed-7 panel of 40 countries, 1901-2022,
    and its side files, written under `root`."""
    spec = importlib.util.spec_from_file_location(
        "cli_gen_panel", Path(__file__).resolve().parent.parent / "bench" / "gen_panel.py")
    gen_panel = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_panel)
    return gen_panel.write_inputs(gen_panel.generate(7, 40), root)


def _blas_is_openblas() -> bool:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.25 cannot return its build config
        return False
    return "openblas" in config["Build Dependencies"]["blas"]["name"].lower()


class TestImportFootprint:
    @staticmethod
    def fresh_python(script, *args, **env_vars):
        """Run `script` in a new interpreter whose environment sets none of
        the BLAS thread variables beyond `env_vars`."""
        env = {name: value for name, value in os.environ.items()
               if name not in _BLAS_THREAD_VARS}
        env.update(env_vars, PYTHONPATH=str(Path(starclust.__file__).parents[1]))
        return subprocess.run([sys.executable, "-c", script, *args],
                              capture_output=True, text=True, env=env)

    def test_evaluate_runs_without_scipy(self, dataset, tmp_path):
        script = ("import sys\n"
                  "from starclust.cli import main\n"
                  "code = main(sys.argv[1:])\n"
                  "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
                  "print('scipy modules:', loaded)\n"
                  "sys.exit(code if not loaded else 9)\n")
        result = self.fresh_python(script, "evaluate", "--config", str(dataset["config"]),
                                   "--out", str(tmp_path))
        assert result.returncode == 0, result.stdout + result.stderr
        assert "scipy modules: []" in result.stdout

    @pytest.mark.parametrize("caller", [{}, {"OPENBLAS_NUM_THREADS": "2"},
                                        {"OMP_NUM_THREADS": "2"}],
                             ids=["unset", "openblas-set", "omp-set"])
    def test_blas_pinned_unless_caller_set_threads(self, caller):
        script = ("import json, os\n"
                  "import starclust.cli\n"
                  f"print(json.dumps({{name: os.environ[name] for name in {_BLAS_THREAD_VARS!r}"
                  " if name in os.environ}))\n")
        result = self.fresh_python(script, **caller)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == (caller or {"OPENBLAS_NUM_THREADS": "1"})

    def test_bare_import_skips_yaml(self):
        result = self.fresh_python("import sys, starclust.cli\n"
                                   "print('yaml' in sys.modules)\n")
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False\n"

    @pytest.mark.parametrize("argv, loaded", [
        ((), False), (("cluster", "--scheme", "C"), False), (("evaluate",), True),
    ], ids=["bare-import", "cluster-C", "evaluate"])
    def test_numpy_random_loaded_only_for_the_bootstrap(self, dataset, tmp_path, argv, loaded):
        # Importing numpy.random costs ~17 ms and ~6 MiB of peak RSS in a fresh
        # interpreter; only the MCS bootstrap draws from it.
        script = ("import sys\n"
                  "from starclust.cli import main\n"
                  "code = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
                  "print('numpy.random' in sys.modules)\n"
                  "sys.exit(code)\n")
        args = (*argv, "--config", str(dataset["config"]), "--out", str(tmp_path)) if argv else ()
        result = self.fresh_python(script, *args)
        assert result.returncode == 0, result.stdout + result.stderr
        assert result.stdout.splitlines()[-1] == str(loaded)

    @pytest.mark.skipif(not (sys.platform.startswith("linux") and _blas_is_openblas()),
                        reason="needs Linux /proc and an OpenBLAS-linked numpy")
    def test_evaluate_runs_on_one_thread(self, dataset, tmp_path):
        script = ("import os, sys\n"
                  "from starclust.cli import main\n"
                  "code = main(sys.argv[1:])\n"
                  "print('threads:', len(os.listdir('/proc/self/task')))\n"
                  "sys.exit(code)\n")
        result = self.fresh_python(script, "evaluate", "--config", str(dataset["config"]),
                                   "--out", str(tmp_path))
        assert result.returncode == 0, result.stdout + result.stderr
        assert "threads: 1\n" in result.stdout


class TestExitTeardown:
    """A command freezes the collector at exit, so the interpreter's final
    collections skip the objects the run left."""

    fresh_python = staticmethod(TestImportFootprint.fresh_python)

    def test_bare_import_registers_no_exit_hook(self):
        result = self.fresh_python("import atexit\n"
                                   "before = atexit._ncallbacks()\n"
                                   "import starclust.cli\n"
                                   "print(atexit._ncallbacks() - before)\n")
        assert result.returncode == 0, result.stderr
        assert result.stdout == "0\n"

    def test_two_runs_freeze_once_at_exit(self, dataset, tmp_path):
        # The report is registered first, so it runs after every later hook.
        script = ("import atexit, gc, sys\n"
                  "calls = []\n"
                  "freeze = gc.freeze\n"
                  "def counted():\n"
                  "    calls.append(1)\n"
                  "    freeze()\n"
                  "gc.freeze = counted\n"
                  "atexit.register(lambda: print('freezes:', len(calls), gc.get_freeze_count() > 0,\n"
                  "                              file=sys.stderr))\n"
                  "from starclust.cli import main\n"
                  "sys.exit(max(main(sys.argv[1:]), main(sys.argv[1:])))\n")
        result = self.fresh_python(script, "trends", "--data", str(dataset["panel"]),
                                   "--out", str(tmp_path))
        assert result.returncode == 0, result.stdout + result.stderr
        assert result.stderr == "freezes: 1 True\n"
        wrote = f"wrote {tmp_path / 'trends.csv'}\n"
        assert result.stdout.count(wrote) == 2 and result.stdout.endswith(wrote)

    def test_failing_command_exits_2_and_writes_nothing(self, tmp_path):
        out = tmp_path / "out"
        for text, message in [
                ("country,year,temperature,zone\nA,2000,1.0,Asia\n",
                 "panel column 'zone' is not read: a country's name, zone and area "
                 "belong in the zones file"),
                # A wide file: one row per country, one column per year.
                ("country,2000,2001\nA,1.0,1.5\n",
                 "panel header must hold country, year and temperature columns")]:
            panel = tmp_path / "panel.csv"
            panel.write_text(text, encoding="utf-8")
            result = self.fresh_python("import sys\n"
                                       "from starclust.cli import main\n"
                                       "sys.exit(main(sys.argv[1:]))\n",
                                       "trends", "--data", str(panel), "--out", str(out))
            assert result.returncode == 2
            assert result.stderr == f"error: {message}\n"
            assert result.stdout == ""
            assert not out.exists()


_JUNK = ("", " ", "x", "nan", "inf", "-1", "0", "1e999", "99999999999999999999",
         "1901.5", '"', "Atlantis", "Europe", "C00", "C99", "true", "[1, 2",
         "{a: 1}", "- 3", ": :", "\t", "SQ", "observation", "0.5", "1e-300", ",,,")
_FILES = ("panel", "zones", "adjacency", "config")
_EDITS = ("delete", "duplicate", "cell", "append", "truncate")


def _edit(text: str, op: str, at: int, junk: str) -> str:
    """One malformation of a CSV or YAML text: lines dropped, repeated or
    added, one cell (or YAML value) replaced, or the file cut short."""
    if op == "truncate":
        return text[:at % (len(text) + 1)]
    lines = text.splitlines()
    if op == "append" or not lines:
        return "\n".join(lines + [junk]) + "\n"
    i = at % len(lines)
    if op == "delete":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, lines[i])
    else:
        sep = ": " if ": " in lines[i] else ","
        cells = lines[i].split(sep)
        cells[(at // len(lines)) % len(cells)] = junk
        lines[i] = sep.join(cells)
    return "\n".join(lines) + "\n"


def _main_on_files(argv):
    """Exit code and stderr of `main`. Mutated inputs can make an MCS pair
    degenerate, so its zero-variance warning is ignored; any other
    RuntimeWarning still fails the test."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="zero bootstrap variance",
                                category=RuntimeWarning)
        code = main(argv)
    return code, stderr.getvalue()


class TestMalformedFuzz:
    """Mutated panel, zones, adjacency, YAML and losses inputs end in exit 0,
    2 or 3 from `main`, never in an escaped exception or a traceback."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(_FILES), st.sampled_from(_EDITS),
                              st.integers(0, 10**6), st.sampled_from(_JUNK)),
                    min_size=1, max_size=3))
    def test_evaluate_on_mutated_inputs(self, dataset, edits):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            paths = {name: root / dataset[name].name for name in _FILES}
            texts = {name: dataset[name].read_text(encoding="utf-8") for name in _FILES}
            texts["config"] = (texts["config"]
                               .replace(str(dataset["panel"]), str(paths["panel"]))
                               .replace(str(dataset["adjacency"]), str(paths["adjacency"])))
            for name, op, at, junk in edits:
                texts[name] = _edit(texts[name], op, at, junk)
            for name in _FILES:
                paths[name].write_text(texts[name], encoding="utf-8")
            code, stderr = _main_on_files(
                ["evaluate", "--config", str(paths["config"]),
                 "--zones", str(paths["zones"]), "--out", str(root / "out")])
        assert code in (0, 2, 3), stderr
        assert "Traceback" not in stderr

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(_EDITS), st.integers(0, 10**6),
                              st.sampled_from(_JUNK)),
                    min_size=1, max_size=3))
    def test_mcs_on_mutated_losses(self, edits):
        text = _losses_text()
        for op, at, junk in edits:
            text = _edit(text, op, at, junk)
        with tempfile.TemporaryDirectory() as tmp:
            losses = Path(tmp) / "losses.csv"
            losses.write_text(text, encoding="utf-8")
            code, stderr = _main_on_files(["mcs", "--losses", str(losses), "--reps", "200",
                                           "--out", str(Path(tmp) / "out")])
        assert code in (0, 2, 3), stderr
        assert "Traceback" not in stderr
