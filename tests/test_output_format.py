"""Byte pins for every result-file writer, and the guard that keeps them in panel.

Each case writes hand-built inputs through one writer and compares the
file's bytes with a literal: `\\r\\n` CSV line ends, float repr (`0.1`,
`0.3333333333333333`, `1e-05`, `inf`), empty and `;`-joined cells, bools,
the contingency header, and the JSON key order, indent and final newline.
"""
from pathlib import Path

import numpy as np
import pytest

import starclust
from starclust import (ClusterAssignment, ClusterStats, ContingencyTable,
                       Dendrogram, EvaluationReport, McsReport, OosResult, StarModel,
                       TrendFit, WeightMatrix, cli, clustering, evaluation, star, trends,
                       weights)
from starclust.clustering import Merge

INF = float("inf")


def _assignment(ids=("a", "b", "c", "d", "e", "f"), codes=(1, 1, 0, -1, 2, 2)):
    return ClusterAssignment(scheme="B", ids=ids, codes=codes, resolved_components=3)


def _weights():
    values = np.array([[0.0, 2 / 3, 1 / 3], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    return WeightMatrix(kind="dB", labels=("a", "b", "c"), values=values,
                        meta={"metric": "diff", "rescaled": True, "rho": 0.95,
                              "max_distance": 0.3333333333333333, "restricted": False,
                              "isolated": ["c"], "scheme": None})


def _mcs_report():
    return McsReport(statistic="SQ", reps=100, block=2, seed=7,
                     eliminations=(("NN", 1e-05), ("cA", 0.3333333333333333),
                                   ("dA", 1.0)),
                     survivors=("cA", "dA"))


def _report(oos=OosResult(fn={"NN": 2.5, "dA": 0.3333333333333333, "cA": 0.0},
                          losses={})):
    return EvaluationReport(models=("NN", "cA", "dA"),
                            in_sample={"dA": 0.1, "NN": 1e-05, "cA": INF},
                            oos=oos, mcs_report=_mcs_report())


def write_trend_table(path):
    trends.write_trend_table({
        "B": TrendFit(intercept=0.1, slope=0.3333333333333333, slope_se=1e-05,
                      t_stat=INF, p_value=0.0, significant=True),
        "A": TrendFit(intercept=-1.5, slope=2.0, slope_se=0.0,
                      t_stat=0.0, p_value=1.0, significant=False),
    }, path)


def dendrogram_to_json(path):
    clustering.dendrogram_to_json(Dendrogram(
        leaf_labels=("a", "b", "c"),
        merges=(Merge(left=0, right=1, height=0.1, size=2),
                Merge(left=2, right=3, height=0.3333333333333333, size=3))), path)


def assignment_to_json(path):
    clustering.assignment_to_json(_assignment(), path)


def write_contingency_csv(path):
    clustering.write_contingency_csv(ContingencyTable(
        row_labels=("Europe", "Asia"), col_labels=("1", "2", "idiosyncratic"),
        counts=np.array([[1, 2, 0], [3, 0, 1]])), path)


def write_weight_csv(path):
    weights.write_weight_csv(_weights(), path)


def write_weight_meta(path):
    weights.write_weight_meta(_weights(), path)


def write_coefficients_csv(path):
    model = StarModel(weights=_weights(), c=np.array([0.1, 1e-05, -2.0]),
                      phi=np.array([0.3333333333333333, 0.0, 0.5]),
                      psi=np.array([0.25, 0.0, 0.0]),
                      has_psi=np.array([True, False, False]),
                      sigma2=np.array([1.0, INF, 0.0]),
                      dropped=((), ("spatial", "temporal"), ("spatial",)))
    star.write_coefficients_csv(model, path)


def write_level_csv(path):
    star.write_level_csv(("a", "b"), (2001, 2002),
                         np.array([[0.1, 1e-05], [0.3333333333333333, 15.25]]), path)


def write_report_csv(path):
    evaluation.write_report_csv(_report(), path)


def write_report_json(path):
    evaluation.write_report_json(_report(), path)


def write_mcs_json(path):
    evaluation.write_mcs_json(_mcs_report(), path)


def write_summary_csv(path):
    cli._write_summary_csv({
        2: ClusterStats(cluster=2, n_countries=1, n_values=1, mean=1e-05, sd=0.0,
                        degenerate=True),
        1: ClusterStats(cluster=1, n_countries=2, n_values=4, mean=0.1,
                        sd=0.3333333333333333, degenerate=False),
    }, Path(path))


def write_feature_csv(path):
    features = np.array([[0.1, 0.1], [0.0, 2.0], [1e-05, 1e-05],
                         [0.3333333333333333, 0.3333333333333333], [-4, -4]])
    assign = _assignment(("a", "b", "c", "e", "f"), (1, 1, 0, 2, 2))
    cli._write_feature_csv(assign, cli._feature_means(assign, features), Path(path))


def write_loss_plot_csv(path):
    observed = np.array([[1.0, 2.0], [0.5, 0.0]])

    def losses(kind, levels):
        return evaluation.loss_series(kind, observed, np.array(levels), (2002, 2003))

    oos = OosResult(fn={}, losses={"dA": losses("dA", [[1.1, 2.0], [0.5, 0.0]]),
                                   "NN": losses("NN", [[0.0, 2.0], [0.5, 1.0]])})
    cli._write_loss_plot_csv(_report(oos), Path(path))


CASES = {
    "write_trend_table": (write_trend_table, (
        b'country,intercept,slope,se,t,p,significant\r\n'
        b'B,0.1,0.3333333333333333,1e-05,inf,0.0,1\r\n'
        b'A,-1.5,2.0,0.0,0.0,1.0,0\r\n')),
    "dendrogram_to_json": (dendrogram_to_json, (
        b'{\n  "leaves": [\n    "a",\n    "b",\n    "c"\n  ],\n'
        b'  "merges": [\n    {\n      "height": 0.1,\n      "left": 0,\n'
        b'      "right": 1,\n      "size": 2\n    },\n    {\n'
        b'      "height": 0.3333333333333333,\n      "left": 2,\n'
        b'      "right": 3,\n      "size": 3\n    }\n  ]\n}\n')),
    "assignment_to_json": (assignment_to_json, (
        b'{\n  "cut": {\n    "height": null,\n    "k": 2,\n'
        b'    "kind": "main_count",\n    "min_size": 2,\n'
        b'    "resolved_components": 3\n  },\n  "idiosyncratic": [\n'
        b'    "c"\n  ],\n  "labels": {\n    "a": 1,\n    "b": 1,\n'
        b'    "e": 2,\n    "f": 2\n  },\n  "null_excluded": [\n    "d"\n'
        b'  ],\n  "scheme": "B"\n}\n')),
    "write_contingency_csv": (write_contingency_csv, (
        b'group\\group,1,2,idiosyncratic,total\r\nEurope,1,2,0,3\r\n'
        b'Asia,3,0,1,4\r\ntotal,4,2,1,7\r\n')),
    "write_weight_csv": (write_weight_csv, (
        b'country,a,b,c\r\n'
        b'a,0.0,0.6666666666666666,0.3333333333333333\r\n'
        b'b,1.0,0.0,0.0\r\nc,0.0,0.0,0.0\r\n')),
    "write_weight_meta": (write_weight_meta, (
        b'{\n  "isolated": [\n    "c"\n  ],\n  "kind": "dB",\n'
        b'  "max_distance": 0.3333333333333333,\n  "metric": "diff",\n'
        b'  "n": 3,\n  "rescaled": true,\n  "restricted": false,\n'
        b'  "rho": 0.95,\n  "scheme": null,\n  "zero_rows": [\n    "c"\n'
        b'  ]\n}\n')),
    "write_coefficients_csv": (write_coefficients_csv, (
        b'country,c,phi,psi,sigma2,dropped\r\n'
        b'a,0.1,0.3333333333333333,0.25,1.0,\r\n'
        b'b,1e-05,0.0,,inf,spatial;temporal\r\n'
        b'c,-2.0,0.5,,0.0,spatial\r\n')),
    "write_level_csv": (write_level_csv, (
        b'country,year,temperature\r\na,2001,0.1\r\na,2002,1e-05\r\n'
        b'b,2001,0.3333333333333333\r\nb,2002,15.25\r\n')),
    "write_report_csv": (write_report_csv, (
        b'model,in_sample_fn,out_of_sample_fn,mcs_p\r\n'
        b'NN,1e-05,2.5,1e-05\r\ncA,inf,0.0,0.3333333333333333\r\n'
        b'dA,0.1,0.3333333333333333,1.0\r\n')),
    "write_report_json": (write_report_json, (
        b'{\n  "in_sample_fn": {\n    "NN": 1e-05,\n    "cA": Infinity,\n'
        b'    "dA": 0.1\n  },\n  "mcs": {\n    "alpha": 0.01,\n'
        b'    "block": 2,\n    "p_values": {\n      "NN": 1e-05,\n'
        b'      "cA": 0.3333333333333333,\n      "dA": 1.0\n    },\n'
        b'    "reps": 100,\n    "seed": 7,\n    "statistic": "SQ",\n'
        b'    "survivors": [\n      "cA",\n      "dA"\n    ]\n  },\n'
        b'  "models": [\n    "NN",\n    "cA",\n    "dA"\n  ],\n'
        b'  "out_of_sample_fn": {\n    "NN": 2.5,\n    "cA": 0.0,\n'
        b'    "dA": 0.3333333333333333\n  }\n}\n')),
    "write_mcs_json": (write_mcs_json, (
        b'{\n  "alpha": 0.01,\n  "block": 2,\n  "eliminations": [\n'
        b'    [\n      "NN",\n      1e-05\n    ],\n    [\n      "cA",\n'
        b'      0.3333333333333333\n    ],\n    [\n      "dA",\n'
        b'      1.0\n    ]\n  ],\n  "reps": 100,\n  "seed": 7,\n'
        b'  "statistic": "SQ",\n  "survivors": [\n    "cA",\n    "dA"\n'
        b'  ]\n}\n')),
    "_write_summary_csv": (write_summary_csv, (
        b'cluster,n_countries,n_values,mean,sd,sd_convention,degenerate\r\n'
        b'1,2,4,0.1,0.3333333333333333,sample (ddof=1),False\r\n'
        b'2,1,1,1e-05,0.0,sample (ddof=1),True\r\n')),
    "_write_feature_csv": (write_feature_csv, (
        b'country,category,value\r\na,1,0.1\r\nb,1,1.0\r\n'
        b'c,idiosyncratic,1e-05\r\ne,2,0.3333333333333333\r\nf,2,-4.0\r\n')),
    "_write_loss_plot_csv": (write_loss_plot_csv, (
        b'model,year,loss\r\nNN,2002,1.0\r\nNN,2003,1.0\r\n'
        b'dA,2002,0.010000000000000018\r\ndA,2003,0.0\r\n')),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_writer_bytes_are_pinned(name, tmp_path):
    write, expected = CASES[name]
    path = tmp_path / "out"
    write(path)
    assert path.read_bytes() == expected


def test_only_panel_writes_files():
    """Every result file goes through `panel.write_csv` or `panel.write_json`."""
    package = Path(starclust.__file__).parent
    offenders = sorted(
        f"{module.name}: {needle}"
        for module in package.glob("*.py") if module.name != "panel.py"
        for needle in ("csv.writer", "json.dump", '.open("w"', "write_text(")
        if needle in module.read_text(encoding="utf-8"))
    assert offenders == []
