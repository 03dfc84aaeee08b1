"""End-to-end command line checks, driving main() in-process."""
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import starclust
from starclust.cli import main


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
    return {"panel": panel, "adjacency": adjacency, "zones": zones,
            "config": config}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    return _write_dataset(root)


def run(args, dataset, out, *extra):
    argv = [*args, "--config", str(dataset["config"]), "--out", str(out), *extra]
    return main(argv)


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

    def test_scheme_c_cross_tabs_against_b(self, dataset, tmp_path):
        rc = run(["cluster", "--scheme", "C"], dataset, tmp_path)
        assert rc == 0
        assert (tmp_path / "contingency_C.csv").is_file()

    def test_k_flag_overrides_config(self, dataset, tmp_path, capsys):
        rc = run(["cluster", "--scheme", "B"], dataset, tmp_path, "--k", "2")
        captured = capsys.readouterr()
        assert rc == 0
        assert "scheme B: 2 clusters" in captured.out

    def test_height_cut(self, dataset, tmp_path, capsys):
        rc = run(["cluster", "--scheme", "B", "--cut", "height",
                  "--height", "1e6"], dataset, tmp_path, "--min-size", "1")
        captured = capsys.readouterr()
        assert rc == 0
        assert "scheme B: 1 clusters" in captured.out

    def test_height_cut_needs_height_flag(self, dataset, tmp_path, capsys):
        rc = run(["cluster", "--scheme", "B", "--cut", "height"],
                 dataset, tmp_path)
        captured = capsys.readouterr()
        assert rc == 2
        assert "--cut height needs --height" in captured.err

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
        header = (tmp_path / "coefficients_dB.csv").read_text().splitlines()[0]
        assert header == "country,c,phi,psi,sigma2,dropped"
        fitted = (tmp_path / "fitted_dB.csv").read_text().splitlines()
        assert fitted[0] == "country,year,temperature"
        assert len(fitted) == 1 + 9 * (41 - 2)


class TestForecast:
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

    def test_split_past_panel_end(self, dataset, tmp_path, capsys):
        rc = run(["evaluate", "--origin", "1988", "--horizon", "10"],
                 dataset, tmp_path)
        captured = capsys.readouterr()
        assert rc == 2
        assert "runs past the panel end 1990" in captured.err


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

    def test_full_pipeline_without_losses_file(self, dataset, tmp_path, capsys):
        rc = run(["mcs"], dataset, tmp_path)
        captured = capsys.readouterr()
        assert rc == 0
        assert (tmp_path / "mcs.json").is_file()
        payload = json.loads((tmp_path / "mcs.json").read_text())
        assert len(payload["eliminations"]) == 7

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

    def test_losses_row_shorter_than_header(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("model,period,loss\ngood,2000,1.0\n\ngood,2001\nbad\n")
        rc = main(["mcs", "--losses", str(path), "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert f"{path}:4: missing loss" in captured.err

    def test_losses_needs_columns(self, tmp_path, capsys):
        path = tmp_path / "cols.csv"
        path.write_text("model,year,value\ngood,2000,1.0\n")
        rc = main(["mcs", "--losses", str(path), "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "losses file needs columns" in captured.err


class TestConfigResolution:
    def test_env_var_supplies_config(self, dataset, tmp_path, monkeypatch,
                                     capsys):
        monkeypatch.setenv("STARCLUST_CONFIG", str(dataset["config"]))
        rc = main(["trends", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 0
        assert (tmp_path / "trends.csv").is_file()

    def test_config_flag_beats_env_var(self, dataset, tmp_path, monkeypatch,
                                       capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("data:\n  panel: /nonexistent/panel.csv\n")
        monkeypatch.setenv("STARCLUST_CONFIG", str(dataset["config"]))
        rc = main(["trends", "--config", str(bad), "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "panel file not found: /nonexistent/panel.csv" in captured.err

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

    def test_data_flag_beats_config_file(self, dataset, tmp_path, capsys):
        rc = main(["trends", "--config", str(dataset["config"]),
                   "--data", str(tmp_path / "missing.csv"),
                   "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "missing.csv" in captured.err


class TestMalformedInputs:
    """Bad files and paths end in exit 2 with a message, never a traceback."""

    @staticmethod
    def run_cli(*argv):
        env = dict(os.environ, PYTHONPATH=str(Path(starclust.__file__).parents[1]))
        env.pop("STARCLUST_CONFIG", None)
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
        self.assert_clean_exit_2(result, "line 2: expected 3 columns, got 2")

    def test_short_losses_row(self, tmp_path):
        losses = tmp_path / "losses.csv"
        losses.write_text("model,period,loss\na,1,0.5\na,2\nb,1,0.7\nb,2,0.8\n",
                          encoding="utf-8")
        result = self.run_cli("mcs", "--losses", str(losses), "--out", str(tmp_path))
        self.assert_clean_exit_2(result, f"{losses}:3: missing loss")

    def test_overflowing_differences_exit_3(self, dataset, tmp_path):
        # Finite levels whose first difference overflows to inf.
        panel = tmp_path / "panel.csv"
        panel.write_text(dataset["panel"].read_text(encoding="utf-8")
                         .replace("C04,1960,", "C04,1960,1.7e308,")
                         .replace("C04,1961,", "C04,1961,-1.7e308,"), encoding="utf-8")
        result = self.run_cli("fit", "--kind", "NN", "--data", str(panel),
                              "--adjacency", str(dataset["adjacency"]), "--out", str(tmp_path))
        assert result.returncode == 3
        assert "Traceback" not in result.stderr
        assert "non-finite differences for C04" in result.stderr

    def test_uncreatable_output_directory(self, dataset, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory\n", encoding="utf-8")
        out = blocker / "run" / "out"
        result = self.run_cli("trends", "--data", str(dataset["panel"]),
                              "--out", str(out))
        self.assert_clean_exit_2(result, f"cannot create output directory {out}")


class TestImportFootprint:
    def test_evaluate_runs_without_scipy(self, dataset, tmp_path):
        script = ("import sys\n"
                  "from starclust.cli import main\n"
                  "code = main(sys.argv[1:])\n"
                  "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
                  "print('scipy modules:', loaded)\n"
                  "sys.exit(code if not loaded else 9)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(starclust.__file__).parents[1]))
        env.pop("STARCLUST_CONFIG", None)
        result = subprocess.run(
            [sys.executable, "-c", script, "evaluate", "--config", str(dataset["config"]),
             "--out", str(tmp_path)],
            capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stdout + result.stderr
        assert "scipy modules: []" in result.stdout


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
