"""Space-time autoregression: estimation, fitted values, iterated forecasts."""
import numpy as np
import pytest

from starclust import (KINDS, EquationFit, StarModel, ValidationError,
                       WeightMatrix, build_weights, first_differences, fit_star,
                       fitted_levels, forecast)
from starclust.panel import split_panel
from starclust.star import write_coefficients_csv, write_level_csv
from conftest import dyadic, make_panel

from _oracles import (hand_forecast, loop_fit_star, ols_normal_equations,
                      scalar_ar1_forecast, simulate_star)


def zero_weights(labels):
    n = len(labels)
    return WeightMatrix(kind="NN", labels=labels, values=np.zeros((n, n)))


def cycle_weights(labels):
    """Directed cycle: each unit weights exactly its successor.

    Keeps the own lag and the spatial lag weakly collinear, so the per-unit
    estimates concentrate well inside the recovery tolerance at long T.
    """
    n = len(labels)
    values = np.zeros((n, n))
    for i in range(n):
        values[i, (i + 1) % n] = 1.0
    return WeightMatrix(kind="NN", labels=labels, values=values)


class TestFitStar:
    def test_recovers_dgp_coefficients(self):
        n, t = 10, 2000
        labels = tuple(f"C{i:02d}" for i in range(n))
        w = cycle_weights(labels)
        levels = simulate_star(n, t, c=0.0, phi=0.4, psi=0.3,
                               weights=w.values, seed=38, sigma=0.5)
        panel = make_panel(levels, first_year=1, ids=list(labels))
        model = fit_star(panel, w)
        c, phi, psi = model.c, model.phi, model.psi
        assert np.all(np.abs(c - 0.0) < 0.05)
        assert np.all(np.abs(phi - 0.4) < 0.05)
        assert np.all(np.abs(psi - 0.3) < 0.05)

    def test_matches_normal_equations(self, ring_weights):
        rng = np.random.default_rng(5)
        n, t = 6, 40
        labels = tuple(f"C{i:02d}" for i in range(n))
        w = ring_weights(n, labels)
        panel = make_panel(rng.normal(10, 2, (n, t)), ids=list(labels))
        model = fit_star(panel, w)

        diffs = np.diff(panel.values, axis=1)
        spatial = w.values @ diffs
        for i, cid in enumerate(labels):
            design = np.column_stack([np.ones(t - 2), diffs[i, :-1], spatial[i, :-1]])
            beta = ols_normal_equations(design, diffs[i, 1:])
            eq = model.equations[cid]
            assert eq.c == pytest.approx(beta[0], rel=1e-8, abs=1e-10)
            assert eq.phi == pytest.approx(beta[1], rel=1e-8, abs=1e-10)
            assert eq.psi == pytest.approx(beta[2], rel=1e-8, abs=1e-10)
            resid = diffs[i, 1:] - design @ beta
            assert eq.sigma2 == pytest.approx(resid @ resid / (t - 2 - 3), rel=1e-8)

    def test_zero_weight_row_reduces_to_ar1(self):
        rng = np.random.default_rng(6)
        n, t = 4, 60
        labels = tuple(f"C{i}" for i in range(n))
        panel = make_panel(rng.normal(0, 1, (n, t)), ids=list(labels))
        model = fit_star(panel, zero_weights(labels))
        diffs = np.diff(panel.values, axis=1)
        for i, cid in enumerate(labels):
            eq = model.equations[cid]
            assert eq.psi is None
            assert eq.dropped == ()
            design = np.column_stack([np.ones(t - 2), diffs[i, :-1]])
            beta = ols_normal_equations(design, diffs[i, 1:])
            assert eq.c == pytest.approx(beta[0], rel=1e-8, abs=1e-12)
            assert eq.phi == pytest.approx(beta[1], rel=1e-8, abs=1e-12)

    def test_residual_orthogonality(self, ring_weights):
        rng = np.random.default_rng(7)
        n, t = 5, 50
        labels = tuple(f"C{i}" for i in range(n))
        w = ring_weights(n, labels)
        panel = make_panel(rng.normal(8, 3, (n, t)), ids=list(labels))
        model = fit_star(panel, w)
        fit = fitted_levels(model, panel)
        diffs = np.diff(panel.values, axis=1)
        spatial = w.values @ diffs
        resid = diffs[:, 1:] - fit.diffs
        for i in range(n):
            assert resid[i].sum() == pytest.approx(0.0, abs=1e-8)
            assert resid[i] @ diffs[i, :-1] == pytest.approx(0.0, abs=1e-7)
            assert resid[i] @ spatial[i, :-1] == pytest.approx(0.0, abs=1e-7)

    def test_country_order_invariance(self, ring_weights):
        rng = np.random.default_rng(8)
        n, t = 5, 30
        labels = ["A", "B", "C", "D", "E"]
        values = rng.normal(5, 2, (n, t))
        panel = make_panel(values, ids=labels)
        w = ring_weights(n, panel.ids)
        model = fit_star(panel, w)

        perm = [3, 0, 4, 1, 2]
        shuffled = make_panel(values[perm], ids=[labels[i] for i in perm])
        w_perm = WeightMatrix(kind="NN", labels=shuffled.ids,
                              values=w.values[np.ix_(perm, perm)])
        other = fit_star(shuffled, w_perm)
        for cid in labels:
            a, b = model.equations[cid], other.equations[cid]
            assert a.c == pytest.approx(b.c, rel=1e-12, abs=1e-12)
            assert a.phi == pytest.approx(b.phi, rel=1e-12, abs=1e-12)
            assert a.psi == pytest.approx(b.psi, rel=1e-12, abs=1e-12)

    def test_perfect_fit_recovered_exactly(self, ring_weights):
        # Differences generated by the recursion with no noise: OLS must
        # reproduce the generating coefficients and a near-zero variance.
        n, t = 4, 30
        labels = tuple(f"C{i}" for i in range(n))
        w = ring_weights(n, labels)
        diffs = np.empty((n, t - 1))
        diffs[:, 0] = [0.4, -0.3, 0.2, 0.5]
        for s in range(1, t - 1):
            diffs[:, s] = 0.05 + 0.5 * diffs[:, s - 1] + 0.2 * (w.values @ diffs[:, s - 1])
        levels = np.hstack([np.full((n, 1), 10.0), 10.0 + np.cumsum(diffs, axis=1)])
        panel = make_panel(levels, ids=list(labels))
        model = fit_star(panel, w)
        for cid in labels:
            eq = model.equations[cid]
            assert eq.c == pytest.approx(0.05, abs=1e-7)
            assert eq.phi == pytest.approx(0.5, abs=1e-6)
            assert eq.psi == pytest.approx(0.2, abs=1e-6)
            assert eq.sigma2 < 1e-12
        fit = fitted_levels(model, panel)
        assert np.allclose(fit.levels, panel.values[:, 2:], atol=1e-8)

    def test_constant_spatial_lag_dropped(self):
        # Equal weights over units with identical series make the spatial lag
        # collinear with the constant; the spatial term goes first.
        n, t = 3, 20
        labels = ("a", "b", "c")
        values = np.ones((n, n)) / (n - 1)
        np.fill_diagonal(values, 0.0)
        w = WeightMatrix(kind="dB", labels=labels, values=values)
        rng = np.random.default_rng(9)
        row = rng.normal(0, 1, t)
        panel = make_panel(np.tile(row, (n, 1)), ids=list(labels))
        model = fit_star(panel, w)
        for cid in labels:
            eq = model.equations[cid]
            assert eq.dropped and eq.dropped[0] == "spatial"
            assert eq.psi is None

    def test_rank_deficient_design_records_drop(self, ring_weights):
        # A constant difference series makes the temporal lag collinear with
        # the intercept; with zero weights the spatial term is already absent.
        # With nonzero weights over constant differences the spatial lag is
        # constant too, so both regressors go, spatial first.
        t = 12
        base = np.linspace(0.0, 11.0, t)  # constant diff = 1
        cases = [
            (("a", "b"), [base, base + 3.0], zero_weights(("a", "b")),
             ("temporal",), [1.0, 1.0]),
            (("a", "b", "c"), [base, 2.0 * base + 3.0, -base],
             ring_weights(3, ("a", "b", "c")), ("spatial", "temporal"),
             [1.0, 2.0, -1.0]),
        ]
        for labels, rows, weights, dropped, constant_diffs in cases:
            panel = make_panel(np.vstack(rows), ids=list(labels))
            model = fit_star(panel, weights)
            for cid, diff in zip(labels, constant_diffs):
                eq = model.equations[cid]
                assert eq.psi is None
                assert eq.dropped == dropped
                assert eq.phi == 0.0
                assert eq.c == pytest.approx(diff)

    @pytest.mark.parametrize("n_years", [4, 5])
    def test_shortest_panels_rank_edges(self, ring_weights, n_years):
        # T = 4 leaves 2 equation rows for 3 regressors: the spatial term is
        # dropped, the remaining 2 x 2 design fits exactly with no degrees of
        # freedom, and sigma2 falls back to rss / (T - 2). T = 5 is full rank.
        rng = np.random.default_rng(16)
        labels = tuple(f"C{i}" for i in range(5))
        panel = make_panel(rng.normal(10, 2, (5, n_years)), ids=list(labels))
        w = ring_weights(5, labels)
        model = fit_star(panel, w)
        diffs = np.diff(panel.values, axis=1)
        spatial = w.values @ diffs
        for i, cid in enumerate(labels):
            eq = model.equations[cid]
            columns = [np.ones(n_years - 2), diffs[i, :-1]]
            if n_years == 4:
                assert eq.dropped == ("spatial",)
                assert eq.psi is None
            else:
                assert eq.dropped == ()
                assert eq.psi is not None
                columns.append(spatial[i, :-1])
            design = np.column_stack(columns)
            beta = np.linalg.solve(design, diffs[i, 1:])
            coefs = [eq.c, eq.phi] + ([] if eq.psi is None else [eq.psi])
            assert np.allclose(coefs, beta, rtol=1e-8, atol=1e-10)
            resid = diffs[i, 1:] - design @ np.array(coefs)
            assert eq.sigma2 == pytest.approx(resid @ resid / (n_years - 2),
                                              rel=1e-6, abs=1e-24)

    def test_labels_must_match_panel(self, ring_weights):
        panel = make_panel(np.random.default_rng(0).random((3, 10)),
                           ids=["a", "b", "c"])
        w = ring_weights(3, ("c", "b", "a"))
        with pytest.raises(ValidationError, match="match panel id order"):
            fit_star(panel, w)

    def test_short_panel_rejected(self, ring_weights):
        panel = make_panel(np.random.default_rng(0).random((3, 3)),
                           ids=["a", "b", "c"])
        w = ring_weights(3, panel.ids)
        with pytest.raises(ValidationError, match="at least 4 years"):
            fit_star(panel, w)

    def test_negative_sigma2_rejected(self):
        with pytest.raises(ValidationError, match="negative residual variance"):
            EquationFit(country="a", c=0.0, phi=0.1, psi=None, sigma2=-1.0)


def model_from(weights, c, phi, psi, train_span=(1990, 2000)):
    """StarModel from per-country coefficient lists; a psi of None is absent."""
    n = len(psi)
    return StarModel(weights=weights, train_span=train_span,
                     c=np.asarray(c, dtype=float), phi=np.asarray(phi, dtype=float),
                     psi=np.array([0.0 if p is None else p for p in psi]),
                     has_psi=np.array([p is not None for p in psi]),
                     sigma2=np.ones(n), dropped=((),) * n)


def mixed_panel(rng, n_years):
    """Panel and weights in which every column pattern occurs in one fit.

    Dyadic levels and slopes keep constant differences exact, and the weights
    on linear units are 1, so constant spatial lags are exact too.
    """
    roles = (["full"] * 6 + ["zero"] * 2 + ["zero_linear"] + ["linear"] * 2
             + ["spatial_dropped"] * 2)
    rng.shuffle(roles)
    n = len(roles)
    values = dyadic(rng, (n, n_years), low=-5.0, high=25.0)
    linear = [i for i, role in enumerate(roles) if role.endswith("linear")]
    for i in linear:
        values[i] = values[i, 0] + rng.integers(-64, 65) / 64 * np.arange(n_years)
    noisy = [i for i, role in enumerate(roles) if role in ("full", "zero")]
    pair = [i for i, role in enumerate(roles) if role == "linear"]
    w = np.zeros((n, n))
    for i, role in enumerate(roles):
        if role == "full":
            others = rng.choice([j for j in noisy if j != i], size=3, replace=False)
            share = rng.random(3) + 0.1
            w[i, others] = share / share.sum()
        elif role == "linear":
            w[i, pair[1] if i == pair[0] else pair[0]] = 1.0   # both dropped
        elif role == "spatial_dropped":
            w[i, pair[0]] = 1.0                                 # constant spatial lag
    labels = tuple(f"U{i:02d}" for i in range(n))
    return (make_panel(values, ids=list(labels)),
            WeightMatrix(kind="NN", labels=labels, values=w))


def assert_matches_loop(model, want):
    assert list(model.equations) == list(want)
    for cid, ref in want.items():
        eq = model.equations[cid]
        assert eq.dropped == ref.dropped, cid
        assert (eq.psi is None) == (ref.psi is None), cid
        got = [eq.c, eq.phi, 0.0 if eq.psi is None else eq.psi, eq.sigma2]
        exp = [ref.c, ref.phi, 0.0 if ref.psi is None else ref.psi, ref.sigma2]
        np.testing.assert_allclose(got, exp, rtol=1e-10, atol=1e-12, err_msg=cid)


class TestLoopParity:
    """The batched fit against the country-by-country loop it replaced."""

    @pytest.mark.parametrize("n_years", [4, 5, 6, 30, 122])
    def test_mixed_panels_match_loop(self, n_years):
        seen = set()
        for seed in range(10):
            panel, w = mixed_panel(np.random.default_rng([n_years, seed]), n_years)
            want = loop_fit_star(panel, w)
            assert_matches_loop(fit_star(panel, w), want)
            seen |= {(eq.dropped, eq.psi is None) for eq in want.values()}
        patterns = {((), True), (("temporal",), True), (("spatial",), True),
                    (("spatial", "temporal"), True)}
        if n_years > 4:
            patterns.add(((), False))   # at T = 4 every weighted design drops psi
        assert seen == patterns

    def test_benchmark_panel_all_kinds(self, synthetic_panel, synthetic_adjacency):
        train, _ = split_panel(synthetic_panel, 2000)
        for panel in (synthetic_panel, train):
            matrices = build_weights(panel, adjacency=synthetic_adjacency)
            assert set(matrices) == set(KINDS)
            for kind, w in matrices.items():
                assert_matches_loop(fit_star(panel, w), loop_fit_star(panel, w))


class TestStarModel:
    def build(self, psi_values, ring_weights):
        labels = tuple(f"C{i}" for i in range(len(psi_values)))
        w = ring_weights(len(labels), labels)
        n = len(labels)
        return model_from(w, [0.0] * n, [0.5] * n, psi_values)

    def test_nonstationary_flags(self, ring_weights):
        model = self.build([0.6, 0.4, None], ring_weights)
        # |phi| + |psi|: 1.1, 0.9, 0.5 -> only the first crosses 1.
        assert model.nonstationary_countries() == ("C0",)

    def test_psi_none_encoded_as_zero(self, ring_weights):
        model = self.build([0.2, None, 0.1], ring_weights)
        assert np.all(model.psi == [0.2, 0.0, 0.1])
        assert [eq.psi for eq in model.equations.values()] == [0.2, None, 0.1]

    def test_equations_must_cover_labels(self, ring_weights):
        labels = ("a", "b", "c")
        w = ring_weights(3, labels)
        with pytest.raises(ValidationError, match="do not match weight matrix"):
            model_from(w, [0.0], [0.1], [0.0])


class TestFittedLevels:
    def test_level_identity(self, ring_weights):
        rng = np.random.default_rng(10)
        n, t = 4, 25
        labels = tuple(f"C{i}" for i in range(n))
        panel = make_panel(rng.normal(12, 1, (n, t)), ids=list(labels))
        w = ring_weights(n, labels)
        model = fit_star(panel, w)
        fit = fitted_levels(model, panel)
        assert fit.years == panel.years[2:]
        assert np.allclose(fit.levels, panel.values[:, 1:-1] + fit.diffs, atol=0)

    def test_spans_t_minus_2_years(self, ring_weights):
        panel = make_panel(np.random.default_rng(1).random((3, 10)),
                           ids=["a", "b", "c"])
        fit = fitted_levels(fit_star(panel, zero_weights(panel.ids)), panel)
        assert len(fit.years) == 8


class TestForecast:
    def test_single_step_definition(self, ring_weights):
        rng = np.random.default_rng(11)
        n, t = 5, 30
        labels = tuple(f"C{i}" for i in range(n))
        panel = make_panel(rng.normal(15, 2, (n, t)), ids=list(labels))
        w = ring_weights(n, labels)
        model = fit_star(panel, w)
        out = forecast(model, panel, horizon=1)
        c, phi, psi = model.c, model.phi, model.psi
        last_diff = panel.values[:, -1] - panel.values[:, -2]
        step = c + phi * last_diff + psi * (w.values @ last_diff)
        assert np.allclose(out.diffs[:, 0], step, atol=1e-14)
        assert np.allclose(out.levels[:, 0], panel.values[:, -1] + step, atol=1e-14)
        assert out.years == (panel.years[-1] + 1,)
        assert out.origin_year == panel.years[-1]

    def test_matches_hand_iteration(self, ring_weights):
        rng = np.random.default_rng(12)
        n, t, horizon = 4, 20, 5
        labels = tuple(f"C{i}" for i in range(n))
        panel = make_panel(rng.normal(10, 1, (n, t)), ids=list(labels))
        w = ring_weights(n, labels)
        model = fit_star(panel, w)
        out = forecast(model, panel, horizon=horizon)
        c, phi, psi = model.c, model.phi, model.psi
        want = hand_forecast(c, phi, psi, w.values,
                             panel.values[:, -1] - panel.values[:, -2],
                             panel.values[:, -1], horizon)
        assert np.allclose(out.levels, want, atol=1e-12)

    def test_zero_psi_equals_scalar_ar1(self):
        rng = np.random.default_rng(13)
        n, t, horizon = 3, 25, 6
        labels = tuple(f"C{i}" for i in range(n))
        panel = make_panel(rng.normal(5, 1, (n, t)), ids=list(labels))
        model = fit_star(panel, zero_weights(labels))
        out = forecast(model, panel, horizon=horizon)
        for i, cid in enumerate(labels):
            eq = model.equations[cid]
            want = scalar_ar1_forecast(eq.c, eq.phi,
                                       panel.values[i, -1] - panel.values[i, -2],
                                       panel.values[i, -1], horizon)
            assert np.allclose(out.levels[i], want, atol=1e-12)

    def test_all_zero_coefficients_flat_forecast(self, ring_weights):
        labels = ("a", "b", "c")
        w = ring_weights(3, labels)
        model = model_from(w, [0.0] * 3, [0.0] * 3, [0.0] * 3, train_span=(1990, 1999))
        panel = make_panel(np.random.default_rng(2).random((3, 10)),
                           ids=list(labels))
        out = forecast(model, panel, horizon=4)
        # Zero dynamics: every forecast difference is zero, levels stay put.
        assert np.all(out.diffs == 0.0)
        assert np.allclose(out.levels, panel.values[:, -1][:, None], atol=0)

    def test_diff_level_consistency(self, ring_weights):
        rng = np.random.default_rng(14)
        panel = make_panel(rng.normal(0, 1, (4, 15)), ids=["a", "b", "c", "d"])
        w = ring_weights(4, panel.ids)
        out = forecast(fit_star(panel, w), panel, horizon=7)
        rebuilt = panel.values[:, -1][:, None] + np.cumsum(out.diffs, axis=1)
        assert np.allclose(out.levels, rebuilt, atol=0)
        # Differencing the extended path (origin level + forecasts) recovers
        # the forecast differences.
        path = np.hstack([out.origin_levels[:, None], out.levels])
        for i in range(4):
            assert np.allclose(first_differences(path[i]), out.diffs[i], atol=1e-12)

    def test_bad_horizon_rejected(self, ring_weights):
        panel = make_panel(np.random.default_rng(0).random((3, 10)),
                           ids=["a", "b", "c"])
        model = fit_star(panel, zero_weights(panel.ids))
        with pytest.raises(ValidationError, match="at least 1"):
            forecast(model, panel, horizon=0)


class TestExports:
    def test_coefficients_csv(self, tmp_path, ring_weights):
        rng = np.random.default_rng(15)
        labels = ("a", "b", "c")
        panel = make_panel(rng.normal(0, 1, (3, 12)), ids=list(labels))
        model = fit_star(panel, ring_weights(3, labels))
        path = tmp_path / "coef.csv"
        write_coefficients_csv(model, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "country,c,phi,psi,sigma2,dropped"
        cells = lines[1].split(",")
        assert cells[0] == "a"
        assert float(cells[1]) == model.equations["a"].c

    def test_psi_blank_when_absent(self, tmp_path):
        labels = ("a", "b")
        panel = make_panel(np.random.default_rng(3).normal(0, 1, (2, 12)),
                           ids=list(labels))
        model = fit_star(panel, zero_weights(labels))
        path = tmp_path / "coef.csv"
        write_coefficients_csv(model, path)
        for line in path.read_text().strip().splitlines()[1:]:
            assert line.split(",")[3] == ""

    def test_level_csv_long_format(self, tmp_path):
        levels = np.array([[1.5, 2.5], [3.5, 4.5]])
        path = tmp_path / "levels.csv"
        write_level_csv(("a", "b"), (2001, 2002), levels, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "country,year,temperature"
        assert lines[1] == "a,2001,1.5"
        assert lines[4] == "b,2002,4.5"
