"""Acceptance gate: one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.  The
reproduction criteria (group 1) need the real panel configured through
STARCLUST_DATA / STARCLUST_ADJACENCY / STARCLUST_ZONES and skip cleanly
when it is absent; the oracle and property criteria (groups 2 and 3) are
self-contained and always run.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from conftest import borders_of, make_panel, dyadic, requires_dataset, ZONES_ENV, _env_path
from _oracles import (brute_diff_distance, brute_hamming_distance,
                      brute_slope_distance, naive_linkage,
                      dendrogram_leafset_merges, ols_normal_equations,
                      simulate_star)

from starclust import RunConfig, clustering, evaluation, pipeline, star, weights
from starclust.clustering import agglomerate, zone_cross_tab
from starclust.distances import (DistanceMatrix, diff_distance, sign_distance,
                                 slope_distance)
from starclust.evaluation import LossSeries, frobenius_norm, loss_series, mcs
from starclust.star import fit_star, forecast
from starclust.trends import fit_panel_trends


@contextmanager
def criterion(cid: str, text: str):
    """Print one PASS/FAIL line for the wrapped criterion body."""
    try:
        yield
    except Exception:
        print(f"\nFAIL {cid}: {text}")
        raise
    print(f"\nPASS {cid}: {text}")


# --------------------------------------------------------------------------
# Group 1: dataset-gated reproduction.
# --------------------------------------------------------------------------

NULL_COUNTRIES = {"Bolivia", "Timor-Leste", "Madagascar", "Kiribati",
                  "Nauru", "Solomon Islands"}
SLOPE_MEANS = (0.016, 0.012, 0.007, 0.003)
ZONE_MARGINS = (44, 33, 71, 14, 6)
IN_SAMPLE_FN = {"NN": 4491.5, "cA": 4490.6, "cB": 4486.8, "cC": 4489.2,
                "dA": 4485.8, "dB": 4483.2, "dC": 4480.3}
OOS_FN = {"NN": 658.3, "cB": 656.2, "cC": 655.9, "cA": 654.1,
          "dB": 654.2, "dC": 653.8, "dA": 650.6}


def reproduction_run(panel, adjacency) -> dict:
    """The paper's full run, as `evaluate` runs it: weights, in-sample FN,
    out-of-sample FN from a 2000 origin over 22 years, and the MCS under
    seed 0, then under seeds 1-4 on the same losses."""
    t0 = time.perf_counter()
    cfg = RunConfig(k_a=4, k_b=5, k_c=12)
    report = pipeline.evaluate(panel, cfg, adjacency)
    losses = list(report.oos.losses.values())
    reports = [report.mcs_report, *(pipeline.confidence_set(losses, replace(cfg, seed=seed))
                                    for seed in range(1, 5))]
    scheme_a = pipeline.compute_scheme(panel, "A", cfg)
    elapsed = time.perf_counter() - t0
    return {"panel": panel, "scheme_a": scheme_a,
            "in_sample": report.in_sample, "oos": report.oos, "mcs_reports": reports,
            "elapsed": elapsed}


@pytest.fixture(scope="module")
def real_run(real_panel, real_adjacency):
    """One full-reproduction run shared by the group-1 criteria."""
    return reproduction_run(real_panel, real_adjacency)


class TestReproductionRunExecutes:
    """The group-1 code path on a paper-shaped synthetic panel, so that it
    keeps running when the real data is absent. Structure only: the paper's
    numbers belong to the real panel."""

    def test_structure_on_synthetic_panel(self, synthetic_panel,
                                          synthetic_adjacency):
        run = reproduction_run(synthetic_panel, synthetic_adjacency)
        assert sorted(run["in_sample"]) == sorted(weights.KINDS)
        assert sorted(run["oos"].fn) == sorted(weights.KINDS)
        assert len(run["mcs_reports"]) == 5
        for report in run["mcs_reports"]:
            pvals = [p for _, p in report.eliminations]
            assert len(pvals) == 7
            assert all(a <= b for a, b in zip(pvals, pvals[1:]))
            assert pvals[-1] == 1.0
        table = zone_cross_tab(run["scheme_a"].assignment,
                               synthetic_panel)
        assert table.col_margins().sum() == synthetic_panel.n_countries


@requires_dataset
class TestReproduction:
    def test_1a_null_countries(self, real_run):
        with criterion("1a", "exactly these 6 countries non-significant at 5%: "
                             + ", ".join(sorted(NULL_COUNTRIES))):
            scheme_a = real_run["scheme_a"]
            assert set(scheme_a.assignment.members(clustering.NULL)) == NULL_COUNTRIES

    def test_1b_scheme_a_slope_means(self, real_run):
        with criterion("1b", "scheme A slope means within 0.0015 of "
                             f"{SLOPE_MEANS}; max slope 0.018 at Mongolia"):
            scheme_a = real_run["scheme_a"]
            assign = scheme_a.assignment
            panel = real_run["panel"]
            slopes = {cid: fit.slope for cid, fit in fit_panel_trends(panel).items()}
            for number, expected in enumerate(SLOPE_MEANS, start=1):
                members = assign.members(number)
                mean = float(np.mean([slopes[cid] for cid in members]))
                assert abs(mean - expected) <= 0.0015, (number, mean, expected)
            significant = [cid for cid in panel.ids
                           if cid not in assign.members(clustering.NULL)]
            top = max(significant, key=lambda cid: slopes[cid])
            assert top == "Mongolia"
            assert abs(slopes[top] - 0.018) < 0.0005

    def test_1c_zone_margins(self, real_run):
        with criterion("1c", f"scheme A zone table margins equal {ZONE_MARGINS}"):
            panel = real_run["panel"]
            if _env_path(ZONES_ENV) is None:
                pytest.skip(f"zone metadata not configured (set {ZONES_ENV})")
            scheme_a = real_run["scheme_a"]
            table = zone_cross_tab(scheme_a.assignment, panel)
            assert tuple(table.col_margins()) == ZONE_MARGINS

    def test_1d_in_sample_fn(self, real_run):
        with criterion("1d", "in-sample FN within 1% (NN 2%) of the reported "
                             "values; distance kinds beat cluster kinds; dC best"):
            got = real_run["in_sample"]
            for kind, expected in IN_SAMPLE_FN.items():
                tol = 0.02 if kind == "NN" else 0.01
                assert abs(got[kind] - expected) <= tol * expected, (kind, got[kind])
            for scheme in "ABC":
                assert got[f"d{scheme}"] < got[f"c{scheme}"]
            assert min(got, key=got.get) == "dC"

    def test_1e_oos_fn_and_mcs(self, real_run):
        with criterion("1e", "out-of-sample FN within 1.5%; dA strictly best; "
                             "MCS survivors {dA, dC} at alpha=0.01; run < 10 min"):
            scores = real_run["oos"].fn
            for kind, expected in OOS_FN.items():
                assert abs(scores[kind] - expected) <= 0.015 * expected, \
                    (kind, scores[kind])
            best = min(scores, key=scores.get)
            assert best == "dA"
            assert all(scores["dA"] < v for k, v in scores.items() if k != "dA")
            mean_p: dict[str, float] = {}
            for report in real_run["mcs_reports"]:
                for model, p in report.p_values().items():
                    mean_p[model] = mean_p.get(model, 0.0) + p / 5.0
            survivors = {m for m, p in mean_p.items() if p >= 0.01}
            assert survivors == {"dA", "dC"}, mean_p
            others = {m: p for m, p in mean_p.items() if m not in survivors}
            assert max(others.values()) <= 0.012, others
            assert real_run["elapsed"] < 600.0


# --------------------------------------------------------------------------
# Group 2: oracle equivalence, always runnable.
# --------------------------------------------------------------------------

class TestOracleEquivalence:
    def test_2a_ols_matches_normal_equations(self):
        with criterion("2a", "trend and STAR OLS match an explicit normal-"
                             "equations solver to 1e-8 on 200 instances"):
            rng = np.random.default_rng(20)
            # 100 trend regressions on random series; time runs 1..T.
            for _ in range(100):
                t = int(rng.integers(10, 60))
                series = rng.normal(10.0, 2.0, t) + rng.normal(0, 0.1) * np.arange(t)
                fit, = fit_panel_trends(make_panel(series[None, :])).values()
                design = np.column_stack([np.ones(t),
                                          np.arange(1, t + 1, dtype=float)])
                ref = ols_normal_equations(design, series)
                assert abs(fit.intercept - ref[0]) < 1e-8
                assert abs(fit.slope - ref[1]) < 1e-8
            # 100 STAR equations on random panels with ring weights.
            checked = 0
            while checked < 100:
                n = int(rng.integers(3, 7))
                t = int(rng.integers(12, 40))
                panel = make_panel(rng.normal(12.0, 1.5, (n, t)), first_year=1900)
                w = np.zeros((n, n))
                for i in range(n):
                    w[i, (i + 1) % n] = w[i, (i - 1) % n] = 0.5
                matrix = weights.WeightMatrix(kind="NN", labels=panel.ids,
                                              values=w)
                model = fit_star(panel, matrix)
                diffs = np.diff(panel.values, axis=1)
                spatial = w @ diffs
                for idx, cid in enumerate(panel.ids):
                    eq = model.equations[cid]
                    design = np.column_stack([np.ones(t - 2), diffs[idx, :-1],
                                              spatial[idx, :-1]])
                    ref = ols_normal_equations(design, diffs[idx, 1:])
                    assert abs(eq.c - ref[0]) < 1e-8
                    assert abs(eq.phi - ref[1]) < 1e-8
                    assert abs(eq.psi - ref[2]) < 1e-8
                    checked += 1

    def test_2b_linkage_matches_naive_oracle(self):
        with criterion("2b", "average-linkage merge sequences match a naive "
                             "O(K^3) oracle on 100 random 12-leaf matrices"):
            for seed in range(100):
                rng = np.random.default_rng(1000 + seed)
                k = 12
                raw = rng.uniform(0.1, 9.0, (k, k))
                square = (raw + raw.T) / 2.0
                np.fill_diagonal(square, 0.0)
                labels = [f"L{i:02d}" for i in range(k)]
                matrix = DistanceMatrix(metric="diff", labels=tuple(labels),
                                        values=square)
                dendro = agglomerate(matrix)
                got = dendrogram_leafset_merges(dendro)
                expected = naive_linkage(square, labels)
                assert len(got) == len(expected) == k - 1
                for (ga, gb, gh), (ea, eb, eh) in zip(got, expected):
                    assert {ga, gb} == {ea, eb}
                    assert gh == pytest.approx(eh, rel=1e-10)

    def test_2c_distances_match_brute_force(self):
        with criterion("2c", "slope/Euclidean/Hamming distances match "
                             "brute-force loops exactly or to 1e-12"):
            rng = np.random.default_rng(7)
            for _ in range(25):
                n = int(rng.integers(3, 8))
                t = int(rng.integers(8, 30))
                values = rng.normal(10.0, 3.0, (n, t))
                panel = make_panel(values, first_year=1950)
                slopes = [fit.slope for fit in fit_panel_trends(panel).values()]
                slope_m = slope_distance(np.array(slopes), panel.ids)
                assert np.allclose(
                    slope_m.values,
                    brute_slope_distance(slopes),
                    rtol=0.0, atol=1e-12)
                diff_m = diff_distance(panel)
                assert np.allclose(diff_m.values, brute_diff_distance(values),
                                   rtol=1e-12, atol=1e-12)
                sign_m = sign_distance(panel)
                assert np.array_equal(sign_m.values,
                                      brute_hamming_distance(values))

    def test_2d_dgp_recovery(self):
        with criterion("2d", "STAR recovery of (c, phi, psi) = (0, 0.4, 0.3) "
                             "on N=10, T=2000 within 0.05 per coefficient"):
            n, t = 10, 2000
            w = np.zeros((n, n))
            for i in range(n):
                w[i, (i + 1) % n] = 1.0
            labels = tuple(f"C{i:02d}" for i in range(n))
            levels = simulate_star(n, t, c=0.0, phi=0.4, psi=0.3, weights=w,
                                   seed=38, sigma=0.5)
            panel = make_panel(levels, first_year=1901, ids=list(labels))
            matrix = weights.WeightMatrix(kind="NN", labels=labels, values=w)
            model = fit_star(panel, matrix)
            for eq in model.equations.values():
                assert abs(eq.c - 0.0) <= 0.05
                assert abs(eq.phi - 0.4) <= 0.05
                assert abs(eq.psi - 0.3) <= 0.05


# --------------------------------------------------------------------------
# Group 3: property suites, always runnable.
# --------------------------------------------------------------------------

def _grouped_values(rng: np.random.Generator, n: int = 9,
                    t: int = 41) -> np.ndarray:
    slopes = [0.12, 0.05, 0.0]
    patterns = [np.tile([1.0, 1.0, -1.0, -1.0], 11)[:t],
                np.tile([1.0, -1.0], 21)[:t],
                np.tile([1.0, -1.0, -1.0, 1.0, 1.0, -1.0], 7)[:t]]
    values = np.empty((n, t))
    for i in range(n):
        g = i // 3
        values[i] = (12.0 + 2 * i + slopes[g] * np.arange(t)
                     + 0.8 * patterns[g] + rng.normal(0, 0.004, t))
    return values


class TestProperties:
    def test_3a_weight_rows_stochastic_or_zero(self):
        with criterion("3a", "all weight kinds row-stochastic-or-zero to "
                             "1e-12 with consistent zero-row bookkeeping"):
            rng = np.random.default_rng(3)
            panel = make_panel(_grouped_values(rng), first_year=1950)
            # Chain adjacency with the last country disconnected.
            adjacency = borders_of(panel.ids, zip(panel.ids[:7], panel.ids[1:8]))
            cfg = RunConfig(k_a=2, k_b=3, k_c=3, rescale_distances=True)
            built = pipeline.build_weights(panel, cfg, kinds=weights.KINDS,
                                           adjacency=adjacency)
            for kind, matrix in built.items():
                sums = matrix.values.sum(axis=1)
                for idx, total in enumerate(sums):
                    row = matrix.values[idx]
                    assert abs(total - 1.0) <= 1e-12 or not row.any(), \
                        (kind, matrix.labels[idx], total)
            assert built["NN"].zero_rows() == (panel.ids[-1],)
            assert built["NN"].meta["isolated"] == [panel.ids[-1]]
            a_assign = pipeline.compute_scheme(panel, "A", cfg).assignment
            assert set(built["cA"].zero_rows()) == set(a_assign.members(clustering.NULL))
            c_assign = pipeline.compute_scheme(panel, "C", cfg).assignment
            assert set(built["cC"].zero_rows()) == \
                set(c_assign.members(clustering.IDIOSYNCRATIC)
                    + c_assign.members(clustering.NULL))
            for kind in ("dA", "dB", "dC"):
                assert built[kind].zero_rows() == ()

    def test_3b_fn_decomposition(self):
        with criterion("3b", "FN equals the per-period loss total to 1e-9 "
                             "and FN(Y, Y) = 0"):
            rng = np.random.default_rng(11)
            for _ in range(20):
                n = int(rng.integers(2, 9))
                t = int(rng.integers(2, 15))
                observed = rng.normal(12.0, 3.0, (n, t))
                predicted = observed + rng.normal(0.0, 1.0, (n, t))
                years = list(range(2000, 2000 + t))
                total = frobenius_norm(observed, predicted)
                series = loss_series("m", observed, predicted, years)
                assert float(series.values.sum()) == pytest.approx(total, abs=1e-9)
                # Each year's loss is that year's (year, country) losses summed.
                cells = ((observed - predicted) ** 2).T
                np.testing.assert_allclose(series.values, cells.sum(axis=1),
                                           rtol=1e-12, atol=0)
                assert frobenius_norm(observed, observed) == 0.0

    def test_3c_mcs_dominance(self):
        with criterion("3c", "MCS: offset model out first with p < 0.01 on 10 "
                             "seeds; single model p = 1; byte-identical reports"):
            periods = tuple(range(2000, 2020))
            rng = np.random.default_rng(5)
            base = rng.normal(1.0, 0.05, 20)
            noise = rng.normal(0.0, 0.01, 20)
            good = LossSeries("good", periods, base)
            bad = LossSeries("bad", periods, base + 1.0 + noise)
            for seed in range(10):
                report = mcs([good, bad], reps=2000, seed=seed)
                assert report.eliminations[0][0] == "bad"
                assert report.eliminations[0][1] < 0.01
                assert report.p_values()["good"] == 1.0
                assert report.survivors == ("good",)
            single = mcs([good], reps=500, seed=0)
            assert single.p_values() == {"good": 1.0}
            assert single.survivors == ("good",)
            payloads = []
            for _ in range(2):
                report = mcs([good, bad], reps=2000, seed=123)
                payloads.append(json.dumps(
                    {"eliminations": [[m, float(p)]
                                      for m, p in report.eliminations],
                     "p_values": {m: float(p)
                                  for m, p in report.p_values().items()}},
                    sort_keys=True).encode())
            assert payloads[0] == payloads[1]

    def test_3d_roundtrip_refinement_permutation(self):
        with criterion("3d", "difference/integration round-trip exact; cuts "
                             "refine; clustering and estimation permutation-"
                             "invariant"):
            rng = np.random.default_rng(17)
            # Dyadic-grid levels differencing and re-integrating exactly.
            levels = dyadic(rng, (6, 30))
            for row in levels:
                diffs = np.diff(row)
                rebuilt = np.concatenate([[row[0]], row[0] + np.cumsum(diffs)])
                assert np.array_equal(rebuilt, row)

            # Finer cuts refine coarser ones.
            for seed in range(10):
                local = np.random.default_rng(seed)
                raw = local.uniform(0.5, 8.0, (9, 9))
                square = (raw + raw.T) / 2.0
                np.fill_diagonal(square, 0.0)
                labels = tuple(f"L{i}" for i in range(9))
                dendro = agglomerate(DistanceMatrix(metric="diff",
                                                    labels=labels,
                                                    values=square))
                for m in range(1, 9):
                    coarse = [set(c) for c in dendro.components_at(m)]
                    fine = [set(c) for c in dendro.components_at(m + 1)]
                    for part in fine:
                        assert any(part <= whole for whole in coarse)

            # Permutation invariance of clustering.
            raw = rng.uniform(0.5, 8.0, (8, 8))
            square = (raw + raw.T) / 2.0
            np.fill_diagonal(square, 0.0)
            labels = tuple(f"L{i}" for i in range(8))
            base = agglomerate(DistanceMatrix(metric="diff", labels=labels,
                                              values=square))
            perm = rng.permutation(8)
            shuffled = agglomerate(DistanceMatrix(
                metric="diff", labels=tuple(labels[i] for i in perm),
                values=square[np.ix_(perm, perm)]))
            base_merges = dendrogram_leafset_merges(base)
            got_merges = dendrogram_leafset_merges(shuffled)
            to_labels = lambda sets, names: [
                (frozenset(names[i] for i in a), frozenset(names[i] for i in b))
                for a, b, _ in sets]
            assert to_labels(base_merges, labels) == \
                to_labels(got_merges, tuple(labels[i] for i in perm))
            assert np.array_equal([h for *_, h in base_merges],
                                  [h for *_, h in got_merges])

            # Permutation invariance of estimation.
            n, t = 5, 30
            values = rng.normal(12.0, 1.0, (n, t))
            panel = make_panel(values, first_year=1960)
            w = np.zeros((n, n))
            for i in range(n):
                w[i, (i + 1) % n] = 1.0
            matrix = weights.WeightMatrix(kind="NN", labels=panel.ids,
                                          values=w)
            model = fit_star(panel, matrix)
            order = rng.permutation(n)
            permuted_panel = make_panel(values[order], first_year=1960,
                                        ids=[panel.ids[i] for i in order])
            permuted = weights.WeightMatrix(
                kind="NN", labels=permuted_panel.ids,
                values=w[np.ix_(order, order)])
            permuted_model = fit_star(permuted_panel, permuted)
            for cid, eq in permuted_model.equations.items():
                ref = model.equations[cid]
                assert eq.c == pytest.approx(ref.c, rel=1e-12, abs=1e-12)
                assert eq.phi == pytest.approx(ref.phi, rel=1e-12, abs=1e-12)
                assert eq.psi == pytest.approx(ref.psi, rel=1e-12, abs=1e-12)
