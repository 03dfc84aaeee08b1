"""End-to-end metamorphic relations between whole command-line runs.

Each seed's paper-sized inputs come from the benchmark's generator
(bench/gen_panel.py). `evaluate`, `trends`, `cluster` A/B/C and `fit --kind
dC` run on them, on the same panel rows in shuffled order, on the same
cells written in the wide layout, on the long panel's columns reordered, on
every id renamed by an order-preserving map (`u0000` -> `w0000`, in the
panel, zones and adjacency files), and on every temperature times 2. The
outputs must obey the relations that the arithmetic makes exact:

- shuffled rows, the wide layout and reordered columns: every output file is
  byte-identical;
- renamed ids: every output file is byte-identical once the ids are mapped
  back, and no file holds an old id;
- doubled temperatures (exact in binary): the trend intercept, slope and SE
  are exactly doubled with t and p unchanged; every merge of every
  dendrogram is kept, with heights exactly doubled for schemes A and B and
  unchanged for C; assignments and contingency tables are byte-identical;
  the MCS p-values are identical.

STAR coefficients and Frobenius norms scale only to rounding, because the
constant column of the design does not scale. For doubled temperatures the
scheme-dC intercepts c are doubled, phi and psi unchanged (the weights are
scale-free) and sigma2 multiplied by 4, and every in-sample and
out-of-sample Frobenius norm is multiplied by 4, each within STAR_RTOL of
the largest value of its column.

`evaluate` also runs with `--granularity year` and `observation`, and `mcs`
tests each run's losses file: the observation-level MCS resamples whole
years, so the two write the same bytes.
"""
import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest

from starclust.cli import main

# Fixed before the gate first ran; a seed whose relations fail is reported,
# not replaced.
SEEDS = (11, 23)
COMMANDS = (["evaluate"], ["trends"], ["cluster", "--scheme", "A"],
            ["cluster", "--scheme", "B"], ["cluster", "--scheme", "C"],
            ["fit", "--kind", "dC"])
BENCH = Path(__file__).resolve().parent.parent / "bench"
# Error of a doubled-temperature STAR output against its predicted value,
# relative to the largest predicted value of its column (its model's norm for
# a Frobenius norm). Measured once on seeds 11 and 23: at most 4.8e-15 (c),
# 1.9e-15 (phi), 1.0e-15 (psi), 2.8e-16 (sigma2 and the norms); the bound is
# ten times the largest.
STAR_RTOL = 5e-14


def _gen_panel():
    spec = importlib.util.spec_from_file_location("metamorphic_gen_panel",
                                                  BENCH / "gen_panel.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_variant(root: Path, inputs: dict, panel_lines: list[str]) -> Path:
    config = _write_config(root, inputs, panel_lines)
    out = root / "out"
    for command in COMMANDS:
        assert main([*command, "--config", str(config), "--out", str(out)]) == 0
    return out


def _write_config(root: Path, inputs: dict, panel_lines: list[str]) -> Path:
    root.mkdir()
    panel = root / "panel.csv"
    panel.write_text("".join(panel_lines), encoding="utf-8")
    config = root / "run.yaml"
    config.write_text(
        f"data:\n  panel: {panel}\n  adjacency: {inputs['adjacency']}\n"
        f"  zones: {inputs['zones']}\n"
        "clusters:\n  A: 4\n  B: 5\n  C: 12\n"
        "weights:\n  rescale: true\n"
        "split_year: 2000\nhorizon: 22\n"
        "mcs:\n  reps: 2000\n  block: 2\n  statistic: SQ\n", encoding="utf-8")
    return config


@pytest.fixture(scope="module", params=SEEDS, ids=lambda seed: f"seed{seed}")
def runs(request, tmp_path_factory) -> dict[str, Path]:
    """Output directories of the base run and of each variant's run."""
    root = tmp_path_factory.mktemp(f"metamorphic{request.param}")
    gen_panel = _gen_panel()
    data = gen_panel.generate(request.param, 168)
    inputs = gen_panel.write_inputs(data, root / "inputs")
    # Every id starts with "u", so swapping it for "w" keeps the ids in order.
    renamed = gen_panel.write_inputs({**data, "ids": [f"w{cid[1:]}" for cid in data["ids"]]},
                                     root / "renamed_inputs")
    header, *rows = inputs["panel"].read_text(encoding="utf-8").splitlines(keepends=True)
    order = np.random.default_rng(request.param).permutation(len(rows))
    cells = [row.rstrip("\n").split(",") for row in rows]
    doubled = [f"{cid},{year},{2 * float(value)!r}\n" for cid, year, value in cells]
    reordered = ["temperature,country,year\n",
                 *(f"{value},{cid},{year}\n" for cid, year, value in cells)]
    # The same cell texts, one row per country and one column per year.
    years = sorted({year for _, year, _ in cells}, key=int)
    by_country: dict[str, dict[str, str]] = {}
    for cid, year, value in cells:
        by_country.setdefault(cid, {})[year] = value
    wide = [",".join(["country", *years]) + "\n",
            *(",".join([cid, *map(values.__getitem__, years)]) + "\n"
              for cid, values in by_country.items())]
    config = _write_config(root / "granularity", inputs, [header, *rows])
    for granularity in ("year", "observation"):
        out = root / "granularity" / granularity
        assert main(["evaluate", "--granularity", granularity, "--config", str(config),
                     "--out", str(out)]) == 0
        assert main(["mcs", "--losses", str(out / "plot_losses.csv"), "--config", str(config),
                     "--out", str(out)]) == 0
    return {"year": root / "granularity" / "year",
            "observation": root / "granularity" / "observation",
            "base": _run_variant(root / "base", inputs, [header, *rows]),
            "shuffled": _run_variant(root / "shuffled", inputs,
                                     [header, *(rows[i] for i in order)]),
            "wide": _run_variant(root / "wide", inputs, wide),
            "reordered": _run_variant(root / "reordered", inputs, reordered),
            "renamed": _run_variant(root / "renamed", renamed,
                                    renamed["panel"].read_text(encoding="utf-8")
                                    .splitlines(keepends=True)),
            "doubled": _run_variant(root / "doubled", inputs, [header, *doubled])}


def _files(out: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def _csv(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]


def test_shuffled_rows_change_no_output_byte(runs):
    base = _files(runs["base"])
    assert len(base) == 21
    assert _files(runs["shuffled"]) == base


def test_wide_layout_changes_no_output_byte(runs):
    base = _files(runs["base"])
    assert len(base) == 21
    assert _files(runs["wide"]) == base


def test_reordered_columns_change_no_output_byte(runs):
    base = _files(runs["base"])
    assert len(base) == 21
    assert _files(runs["reordered"]) == base


def test_order_preserving_renaming_changes_only_ids(runs):
    base = _files(runs["base"])
    renamed = _files(runs["renamed"])
    assert len(base) == 21
    assert renamed.keys() == base.keys()
    for name, data in renamed.items():
        assert re.search(rb"\bu\d{4}\b", data) is None, name
        assert re.sub(rb"\bw(\d{4})\b", rb"u\1", data) == base[name], name


def test_doubled_temperatures_double_trends(runs):
    base, doubled = _csv(runs["base"] / "trends.csv"), _csv(runs["doubled"] / "trends.csv")
    assert doubled[0] == base[0] == ["country", "intercept", "slope", "se", "t", "p",
                                     "significant"]
    assert len(doubled) == len(base) == 169
    for got, want in zip(doubled[1:], base[1:]):
        assert got[0] == want[0]
        assert [float(v) for v in got[1:4]] == [2 * float(v) for v in want[1:4]]
        assert got[4:] == want[4:]


@pytest.mark.parametrize("scheme, factor", [("A", 2.0), ("B", 2.0), ("C", 1.0)])
def test_doubled_temperatures_scale_dendrograms(runs, scheme, factor):
    name = f"dendrogram_{scheme}.json"
    base = json.loads((runs["base"] / name).read_text(encoding="utf-8"))
    doubled = json.loads((runs["doubled"] / name).read_text(encoding="utf-8"))
    assert doubled["leaves"] == base["leaves"]
    assert len(doubled["merges"]) == len(base["merges"]) == len(base["leaves"]) - 1
    for got, want in zip(doubled["merges"], base["merges"]):
        assert (got["left"], got["right"], got["size"]) == \
            (want["left"], want["right"], want["size"])
        assert got["height"] == factor * want["height"]


def test_doubled_temperatures_keep_partitions(runs):
    base, doubled = _files(runs["base"]), _files(runs["doubled"])
    names = [name for name in base if name.startswith(("assignment_", "contingency_"))]
    assert len(names) == 6
    for name in names:
        assert doubled[name] == base[name], name


def test_doubled_temperatures_keep_mcs(runs):
    base = json.loads((runs["base"] / "report.json").read_text(encoding="utf-8"))
    doubled = json.loads((runs["doubled"] / "report.json").read_text(encoding="utf-8"))
    assert doubled["mcs"] == base["mcs"]


def _star_error(got: list[float], want: list[float]) -> float:
    """Largest error of `got` against `want`, relative to the largest |want|."""
    want_arr = np.array(want)
    return float(np.abs(np.array(got) - want_arr).max() / np.abs(want_arr).max())


def test_doubled_temperatures_scale_star_coefficients(runs):
    base = _csv(runs["base"] / "coefficients_dC.csv")
    doubled = _csv(runs["doubled"] / "coefficients_dC.csv")
    assert doubled[0] == base[0] == ["country", "c", "phi", "psi", "sigma2", "dropped"]
    assert len(doubled) == len(base) == 169
    assert [row[0] for row in doubled] == [row[0] for row in base]
    assert [row[5] for row in doubled] == [row[5] for row in base]
    for column, factor in ((1, 2.0), (2, 1.0), (3, 1.0), (4, 4.0)):
        assert all(row[column] for row in base[1:]), column
        got = [float(row[column]) for row in doubled[1:]]
        want = [factor * float(row[column]) for row in base[1:]]
        assert _star_error(got, want) <= STAR_RTOL, base[0][column]


def test_doubled_temperatures_quadruple_norms(runs):
    base = json.loads((runs["base"] / "report.json").read_text(encoding="utf-8"))
    doubled = json.loads((runs["doubled"] / "report.json").read_text(encoding="utf-8"))
    for key in ("in_sample_fn", "out_of_sample_fn"):
        assert doubled[key].keys() == base[key].keys()
        assert len(base[key]) == 7
        for model, value in base[key].items():
            assert _star_error([doubled[key][model]], [4 * value]) <= STAR_RTOL, (key, model)


def test_granularity_changes_no_output_byte(runs):
    year = _files(runs["year"])
    assert sorted(year) == ["mcs.json", "plot_losses.csv", "report.csv", "report.json"]
    assert _files(runs["observation"]) == year
