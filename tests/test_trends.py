"""Linear trend fits, significance, differences, and sign strings."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from starclust import (NumericalError, TemperaturePanel, TrendFit, ValidationError,
                       fit_panel_trends, panel_differences, sign_sequence,
                       student_t_sf2)
from starclust.trends import write_trend_table

from _oracles import loop_fit_panel_trends, trend_stats
from conftest import dyadic, make_panel

finite_series = st.lists(
    st.floats(min_value=-60, max_value=60, allow_nan=False, allow_infinity=False),
    min_size=4, max_size=40,
).map(np.array)


def row_trend(series) -> TrendFit:
    """The trend fit of a one-country panel holding `series`."""
    panel = make_panel(np.asarray(series, dtype=float)[None, :])
    return fit_panel_trends(panel)[panel.ids[0]]


class TestFitLinearTrend:
    def test_noiseless_line_recovered(self):
        t = np.arange(1, 12)
        fit = row_trend(10 + 0.5 * t)
        assert math.isclose(fit.slope, 0.5, abs_tol=1e-12)
        assert math.isclose(fit.intercept, 10.0, abs_tol=1e-10)
        assert fit.slope_se <= 1e-12
        assert fit.p_value <= 1e-12
        assert fit.significant

    def test_too_short_series_rejected(self):
        with pytest.raises(ValidationError, match="at least 3"):
            row_trend(np.array([1.0, 2.0]))

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            series = rng.normal(10, 3, rng.integers(5, 80))
            fit = row_trend(series)
            ref = trend_stats(series)
            assert math.isclose(fit.slope, ref["slope"], abs_tol=1e-10)
            assert math.isclose(fit.intercept, ref["intercept"], abs_tol=1e-10)
            assert math.isclose(fit.slope_se, ref["se"], rel_tol=1e-9)
            assert math.isclose(fit.t_stat, ref["t"], rel_tol=1e-9)
            assert math.isclose(fit.p_value, ref["p"], rel_tol=1e-8, abs_tol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(finite_series)
    def test_trendfit_invariants(self, series):
        fit = row_trend(series)
        assert 0.0 <= fit.p_value <= 1.0
        if fit.slope_se > 0:
            assert math.isclose(fit.t_stat, fit.slope / fit.slope_se, rel_tol=1e-12)

    def test_se_positive_with_residual_variance(self):
        fit = row_trend(np.array([1.0, 4.0, 2.0, 6.0, 3.0]))
        assert fit.slope_se > 0

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(5)
        series = rng.normal(0, 1, 60)
        fit = row_trend(series)
        t = np.arange(1, 61)
        resid = series - fit.intercept - fit.slope * t
        scale = np.linalg.norm(resid) * np.linalg.norm(t - t.mean()) + 1e-30
        assert abs(resid.sum()) / (np.linalg.norm(resid) * math.sqrt(60) + 1e-30) < 1e-8
        assert abs(resid @ (t - t.mean())) / scale < 1e-8

    def test_constant_shift_moves_only_intercept(self):
        rng = np.random.default_rng(2)
        series = dyadic(rng, 24, low=-20, high=20)
        base, shifted = fit_panel_trends(make_panel([series, series + 7.0])).values()
        assert math.isclose(base.slope, shifted.slope, rel_tol=1e-10, abs_tol=1e-12)
        assert math.isclose(shifted.intercept, base.intercept + 7.0,
                            rel_tol=1e-10, abs_tol=1e-9)


    def test_overflow_raises_without_warning(self):
        # Finite values whose squared residuals overflow to inf.
        series = np.array([1.0, 4.0, 2.0, 6.0, 3.0]) * 1e300
        with pytest.raises(NumericalError, match="non-finite trend fit"):
            row_trend(series)


def oracle_outcome(fit, panel: TemperaturePanel, alpha: float = 0.05):
    """The fits, or the type and text of the error, that `fit` gives."""
    try:
        return fit(panel, alpha=alpha)
    except (NumericalError, ValidationError) as exc:
        return type(exc), str(exc)


class TestMatchesPerSeriesLoop:
    """Every field, and every error text, equals the per-series loop's exactly."""

    @pytest.mark.parametrize("t", [3, 4, 130])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_panels(self, seed, t):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 200))
        values = rng.normal(10, 3, (k, t)) + rng.normal(0, 0.05, (k, 1)) * np.arange(t)
        if seed % 2:
            values = np.round(values, 4)  # four decimals, as the CSV inputs hold
        panel = make_panel(values, ids=[f"C{i:03d}" for i in range(k)])
        for alpha in (0.05, 0.5):
            got = fit_panel_trends(panel, alpha=alpha)
            assert list(got.items()) == list(loop_fit_panel_trends(panel, alpha=alpha).items())

    @pytest.mark.parametrize("t", [3, 4, 130])
    def test_noiseless_and_flat_rows(self, t):
        steps = np.arange(t, dtype=float)
        values = np.array([2.0 + 0.25 * steps, 7.5 - 0.125 * steps, np.full(t, 5.0),
                           np.zeros(t), -3.0 + 1e-3 * steps, 0.1 * steps,
                           np.random.default_rng(t).normal(10, 1, t)])
        panel = make_panel(values)
        got = fit_panel_trends(panel)
        assert list(got.items()) == list(loop_fit_panel_trends(panel).items())
        # Exact lines: t is +-inf with p 0; flat rows: t 0 with p 1.
        assert [fit.p_value for fit in got.values()][:4] == [0.0, 0.0, 1.0, 1.0]

    @pytest.mark.parametrize("scale", [1e150, 1e153, 1e200, 1e300, 1e307])
    def test_values_near_overflow(self, scale):
        rng = np.random.default_rng(8)
        values = rng.normal(0, 1, (5, 12))
        values[3] *= scale
        values[1] = np.where(np.arange(12) % 2, 1.7e308, -1.7e308)
        for rows in (values[[0, 2, 4]], values[[0, 3]], values):
            panel = make_panel(rows)
            want = oracle_outcome(loop_fit_panel_trends, panel)
            got = oracle_outcome(fit_panel_trends, panel)
            if isinstance(want, dict):
                assert list(got.items()) == list(want.items())
            else:
                assert got == want

    def test_overflow_texts_name_the_first_country(self):
        values = np.random.default_rng(1).normal(10, 1, (6, 9))
        values[4] *= 1e300
        values[2] *= 1e300
        panel = make_panel(values)
        want = oracle_outcome(loop_fit_panel_trends, panel)
        assert want[0] is NumericalError and want[1].startswith("C02: non-finite trend fit")
        assert oracle_outcome(fit_panel_trends, panel) == want

    @pytest.mark.parametrize("t, alpha", [(2, 0.05), (1, 0.05), (5, 0.0), (5, 1.0),
                                          (5, -0.5), (5, float("nan"))])
    def test_validation_texts(self, t, alpha):
        panel = make_panel(np.ones((2, t)))
        want = oracle_outcome(loop_fit_panel_trends, panel, alpha)
        assert want[0] is ValidationError
        assert oracle_outcome(fit_panel_trends, panel, alpha) == want


class TestStudentT:
    def test_matches_scipy_survival(self):
        # |t| runs out past the point where p underflows (df >= 2), and for
        # df = 1 to 1e150, short of where t * t overflows.
        # Below |t| = 1e-5 scipy's df = 1 value loses digits (1.0 at 1e-9,
        # where p = 1 - 6.4e-10), so the grid starts there.
        t_stats = (0.0, 0.5, -1.3, 2.1, -4.7, 9.0, 1e-5, -0.02, 37.5, -250.0,
                   1e3, 1e5, -1e8, 1e12, 1e20, -1e40, 1e60, 1e100, -1e150,
                   *np.geomspace(0.05, 200.0, 40), np.inf, -np.inf)
        for t_stat in t_stats:
            for df in (1, 2, 3, 5, 10, 30, 118, 120, 200):
                expected = 2 * stats.t.sf(abs(t_stat), df)
                assert math.isclose(student_t_sf2(t_stat, df), expected,
                                    rel_tol=1e-12, abs_tol=1e-300), (t_stat, df)

    def test_edge_cases(self):
        assert student_t_sf2(0.0, 7) == 1.0
        assert student_t_sf2(np.inf, 7) == student_t_sf2(np.nan, 7) == 0.0
        with pytest.raises(ValidationError, match="degrees of freedom"):
            student_t_sf2(1.0, 0)

    def test_matches_numeric_density_integration(self):
        # independent check: integrate the t density directly
        def t_pdf(x, df):
            const = math.gamma((df + 1) / 2) / (math.sqrt(df * math.pi)
                                                * math.gamma(df / 2))
            return const * (1 + x * x / df) ** (-(df + 1) / 2)

        for t_stat in (0.3, 0.9, 1.5, 2.2, 3.1, 4.0, 0.05, 1.1, 2.9, 5.5):
            df = 120
            tail, _ = integrate.quad(t_pdf, abs(t_stat), np.inf, args=(df,))
            assert math.isclose(student_t_sf2(t_stat, df), 2 * tail, abs_tol=1e-6)


class TestSignificance:
    def test_noiseless_line_significant(self):
        fit = row_trend(1.0 + 0.25 * np.arange(1, 20))
        assert fit.significant

    def test_false_positive_rate_close_to_level(self):
        # white noise has no trend, so the 5% test should reject ~5% of the time
        rng = np.random.default_rng(99)
        reps, n = 10_000, 122
        fits = fit_panel_trends(make_panel(rng.normal(0, 1, (reps, n)),
                                           ids=[f"C{i:05d}" for i in range(reps)]))
        rejections = sum(fit.significant for fit in fits.values())
        assert abs(rejections / reps - 0.05) < 0.01


def row_differences(series) -> np.ndarray:
    return panel_differences(make_panel(np.asarray(series, dtype=float)[None, :]))[0]


class TestDifferences:
    def test_hand_example(self):
        assert row_differences([1.0, 3.0, 2.0]).tolist() == [2.0, -1.0]

    def test_constant_series(self):
        assert row_differences(np.full(5, 3.25)).tolist() == [0.0] * 4

    def test_too_short(self):
        with pytest.raises(ValidationError, match="at least 2"):
            row_differences([1.0])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=-90 * 1024, max_value=60 * 1024),
                    min_size=2, max_size=50))
    def test_cumsum_inversion_exact_on_dyadic_grid(self, grid):
        # multiples of 2^-10 sum without rounding at these magnitudes, so
        # integrating the differences recovers the series bit for bit
        series = np.array(grid) / 1024.0
        diffs = row_differences(series)
        rebuilt = np.concatenate([[series[0]], series[0] + np.cumsum(diffs)])
        assert np.array_equal(rebuilt, series)

    def test_panel_differences_shape(self, toy_panel):
        diffs = panel_differences(toy_panel)
        assert diffs.shape == (toy_panel.n_countries, toy_panel.n_years - 1)
        assert np.array_equal(diffs, np.diff(toy_panel.values, axis=1))


class TestSignSequence:
    def test_hand_example(self):
        assert sign_sequence(np.array([2.0, -1.0, 0.5])).tolist() == [1, 0, 1]

    def test_all_negative(self):
        assert sign_sequence(np.array([-1.0, -0.5])).tolist() == [0, 0]

    def test_zero_change_is_no_increase(self):
        assert sign_sequence(np.array([0.0])).tolist() == [0]


class TestPanelTrends:
    def test_one_fit_per_country(self, toy_panel):
        fits = fit_panel_trends(toy_panel)
        assert list(fits) == list(toy_panel.ids)
        for cid, fit in fits.items():
            assert fit == row_trend(toy_panel.values[toy_panel.id_index[cid]])

    def test_overflow_names_the_country(self, toy_panel):
        values = toy_panel.values.copy()
        values[2] *= 1e300
        panel = make_panel(values)
        with pytest.raises(NumericalError, match=f"{panel.ids[2]}: non-finite trend fit"):
            fit_panel_trends(panel)

    def test_csv_export(self, toy_panel, tmp_path):
        fits = fit_panel_trends(toy_panel)
        path = tmp_path / "trends.csv"
        write_trend_table(fits, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "country,intercept,slope,se,t,p,significant"
        assert len(lines) == 1 + toy_panel.n_countries
        first = lines[1].split(",")
        assert first[0] == toy_panel.ids[0]
        assert float(first[2]) == fits[toy_panel.ids[0]].slope
