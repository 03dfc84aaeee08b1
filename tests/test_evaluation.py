"""Loss accounting, out-of-sample experiments, and the model confidence set."""
import json
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from starclust import (LossSeries, McsReport, NumericalError, ValidationError, WeightMatrix,
                       build_report, fit_star, forecast, frobenius_norm,
                       in_sample_fn, loss_series, mcs, oos_experiment)
from starclust import evaluation
from starclust.evaluation import (_REP_CHUNK, _boot_means, _start_chunks,
                                  write_report_csv, write_report_json)
from conftest import fixed_builder, make_panel

from _oracles import (dense_boot_means, gather_boot_means, round_by_round_mcs,
                      simulate_star, year_block_boot_means)

# Eliminations recorded from the index-matrix implementation mcs replaced.
GOLDEN_MCS = json.loads((Path(__file__).parent / "data" / "mcs_golden.json")
                        .read_text(encoding="utf-8"))


def ring(labels, kind="NN"):
    n = len(labels)
    values = np.zeros((n, n))
    for i in range(n):
        values[i, (i - 1) % n] = 0.5
        values[i, (i + 1) % n] = 0.5
    return WeightMatrix(kind=kind, labels=labels, values=values)


def loss(model, values, periods=None):
    values = np.asarray(values, dtype=float)
    if periods is None:
        periods = tuple(range(2001, 2001 + len(values)))
    return LossSeries(model=model, periods=tuple(periods), values=values)


def seven_model_losses(seed, n_periods):
    """Seven models sharing a common loss path, each noisier than the last."""
    rng = np.random.default_rng(seed)
    base = rng.gamma(2.0, 1.0, n_periods)
    step = 1.5 / np.sqrt(n_periods)
    return [LossSeries(model=f"m{k}", periods=tuple(range(n_periods)),
                       values=base + rng.gamma(2.0, 1.0 + k * step, n_periods))
            for k in range(7)]


class TestFrobeniusNorm:
    def test_zero_for_identical(self):
        y = np.arange(12.0).reshape(3, 4)
        assert frobenius_norm(y, y) == 0.0

    def test_hand_example(self):
        obs = np.array([[1.0, 2.0], [3.0, 4.0]])
        pred = np.array([[0.0, 2.0], [3.0, 2.0]])
        # Errors 1 and 2: sum of squares is 5.
        assert frobenius_norm(obs, pred) == 5.0

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError, match="shape mismatch"):
            frobenius_norm(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        obs = rng.normal(size=(6, 9))
        pred = rng.normal(size=(6, 9))
        perm = rng.permutation(6)
        assert frobenius_norm(obs, pred) == pytest.approx(
            frobenius_norm(obs[perm], pred[perm]), rel=1e-15)


class TestLossSeries:
    def test_total_matches_frobenius_by_year(self):
        rng = np.random.default_rng(1)
        obs = rng.normal(size=(5, 7))
        pred = rng.normal(size=(5, 7))
        series = loss_series("m", obs, pred, years=range(2001, 2008))
        assert len(series.values) == 7
        assert series.values.sum() == pytest.approx(frobenius_norm(obs, pred), abs=1e-9)

    def test_year_loss_sums_every_country(self):
        rng = np.random.default_rng(2)
        obs = rng.normal(size=(4, 6))
        pred = rng.normal(size=(4, 6))
        series = loss_series("m", obs, pred, years=range(2001, 2007))
        assert series.periods == tuple(range(2001, 2007))
        for t in range(6):
            assert series.values[t] == pytest.approx(
                sum((obs[i, t] - pred[i, t]) ** 2 for i in range(4)), rel=1e-14)

    def test_year_labels_must_match_the_span(self):
        with pytest.raises(ValidationError, match="year labels"):
            loss_series("m", np.zeros((2, 3)), np.zeros((2, 3)), years=range(4))

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError, match="shape mismatch"):
            loss_series("m", np.zeros((2, 3)), np.zeros((3, 3)), years=range(3))

    def test_losses_validated(self):
        with pytest.raises(ValidationError, match="finite and non-negative"):
            LossSeries(model="m", periods=(1, 2), values=np.array([1.0, -0.5]))
        with pytest.raises(ValidationError, match="match the periods"):
            LossSeries(model="m", periods=(1, 2), values=np.array([1.0]))


class TestOosExperiment:
    def make_panel_and_builder(self, n=6, t=30, seed=3):
        labels = tuple(f"C{i:02d}" for i in range(n))
        levels = simulate_star(n, t, c=0.0, phi=0.3, psi=0.2,
                               weights=ring(labels).values, seed=seed, sigma=0.5)
        panel = make_panel(levels, first_year=1980, ids=list(labels))
        builder = fixed_builder({"NN": ring(labels)})
        return panel, builder

    def test_scores_against_held_out_levels(self):
        panel, builder = self.make_panel_and_builder()
        out = oos_experiment(panel, builder, origin_year=1999, horizon=5)
        series = out.losses["NN"]
        assert series.periods == tuple(range(2000, 2005))
        assert out.fn["NN"] == pytest.approx(series.values.sum(), abs=1e-9)
        # Reproduce by hand: fit on the training slice, iterate, score.
        from starclust import split_panel
        train, test = split_panel(panel, 1999)
        fc = forecast(fit_star(train, ring(panel.ids)), train, 5)
        assert out.fn["NN"] == pytest.approx(
            frobenius_norm(test.values[:, :5], fc), abs=1e-12)

    def test_every_model_is_scored_per_year(self):
        panel, _ = self.make_panel_and_builder()
        labels = panel.ids
        builder = fixed_builder({"NN": ring(labels), "dC": ring(labels, kind="dC")})
        out = oos_experiment(panel, builder, origin_year=1999, horizon=5)
        assert list(out.losses) == ["NN", "dC"]
        for kind, series in out.losses.items():
            assert series.model == kind
            assert series.periods == tuple(range(2000, 2005))
            assert out.fn[kind] == pytest.approx(series.values.sum(), rel=1e-12)

    def test_bad_horizon(self):
        panel, builder = self.make_panel_and_builder()
        with pytest.raises(ValidationError, match="at least 1"):
            oos_experiment(panel, builder, origin_year=1999, horizon=0)

    def test_horizon_past_panel_end(self):
        panel, builder = self.make_panel_and_builder()
        with pytest.raises(ValidationError, match="past the panel end"):
            oos_experiment(panel, builder, origin_year=2005, horizon=50)

    def test_true_weights_win_on_their_own_dgp(self):
        # Monte Carlo: data generated with ring weights; the model using the
        # generating weights should beat a mis-specified alternative on
        # average across replications.
        labels = tuple(f"C{i:02d}" for i in range(8))
        true_w = ring(labels)
        wrong = np.roll(np.eye(8), 3, axis=1)
        wrong_w = WeightMatrix(kind="dC", labels=labels, values=wrong)
        wins = 0
        reps = 50
        for seed in range(reps):
            levels = simulate_star(8, 60, c=0.0, phi=0.35, psi=0.45,
                                   weights=true_w.values, seed=seed, sigma=0.5)
            panel = make_panel(levels, first_year=1950, ids=list(labels))
            builder = fixed_builder({"NN": true_w, "dC": wrong_w})
            out = oos_experiment(panel, builder, origin_year=1999, horizon=8)
            if out.fn["NN"] < out.fn["dC"]:
                wins += 1
        assert wins > reps / 2


class TestInSampleFn:
    def test_matches_fitted_levels(self):
        labels = tuple(f"C{i:02d}" for i in range(5))
        levels = simulate_star(5, 25, c=0.0, phi=0.3, psi=0.2,
                               weights=ring(labels).values, seed=5, sigma=0.5)
        panel = make_panel(levels, ids=list(labels))
        res = in_sample_fn(panel, {"NN": ring(labels)})
        from starclust import fitted_levels
        model = fit_star(panel, ring(labels))
        fitted = fitted_levels(model, panel)
        assert res["NN"] == pytest.approx(
            frobenius_norm(panel.values[:, 2:], fitted), abs=1e-12)


class TestMcs:
    def dominance_losses(self, seed, offset=1.0, periods=20):
        rng = np.random.default_rng(seed)
        base = rng.random(periods)
        worse = base + offset + rng.normal(0, 0.01, periods) ** 2
        return [loss("good", base), loss("bad", worse)]

    @pytest.mark.parametrize("seed", range(10))
    def test_dominated_model_eliminated(self, seed):
        report = mcs(self.dominance_losses(seed), alpha=0.01, reps=500, seed=seed)
        p = report.p_values()
        assert p["bad"] < 0.01
        assert p["good"] == 1.0
        assert report.survivors == ("good",)
        assert [m for m, _ in report.eliminations] == ["bad", "good"]

    def test_survivor_set_respects_alpha(self):
        losses = self.dominance_losses(0)
        strict = mcs(losses, alpha=0.01, reps=500, seed=0)
        # With add-one smoothing no p-value is exactly 0, so a tiny alpha
        # retains every model.
        lax = mcs(losses, alpha=1e-9, reps=500, seed=0)
        assert strict.survivors == ("good",)
        assert set(lax.survivors) == {"good", "bad"}
        assert strict.eliminations == lax.eliminations

    def test_equivalent_models_both_survive(self):
        rng = np.random.default_rng(6)
        base = rng.random(40)
        a = base + rng.normal(0, 0.05, 40) ** 2
        b = base + rng.normal(0, 0.05, 40) ** 2
        report = mcs([loss("a", a), loss("b", b)], alpha=0.01, reps=500, seed=1)
        assert set(report.survivors) == {"a", "b"}

    def test_p_values_nondecreasing_and_last_one(self):
        rng = np.random.default_rng(7)
        losses = [loss(f"m{i}", rng.random(30) + 0.3 * i) for i in range(5)]
        report = mcs(losses, reps=300, seed=2)
        pvals = [p for _, p in report.eliminations]
        assert pvals == sorted(pvals)
        assert pvals[-1] == 1.0
        assert len(report.eliminations) == 5

    def test_byte_identical_reports(self, tmp_path):
        losses = self.dominance_losses(3)
        a = mcs(losses, reps=400, seed=9)
        b = mcs(losses, reps=400, seed=9)
        assert a == b
        # Serialized form is byte-identical too.
        in_s = {"good": 1.0, "bad": 2.0}
        oos_stub = type("S", (), {"fn": {"good": 1.0, "bad": 2.0}})()
        ra = build_report(in_s, oos_stub, a)
        rb = build_report(in_s, oos_stub, b)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        write_report_json(ra, pa)
        write_report_json(rb, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_seed_changes_draws(self):
        losses = self.dominance_losses(4)
        a = mcs(losses, reps=400, seed=0)
        b = mcs(losses, reps=400, seed=123)
        # Same conclusion, generally different smoothed p for the loser.
        assert a.survivors == b.survivors

    def test_block_one_is_iid(self):
        losses = self.dominance_losses(5)
        report = mcs(losses, reps=300, block=1, seed=0)
        assert report.block == 1
        assert report.survivors == ("good",)

    def test_range_statistic(self):
        losses = self.dominance_losses(6)
        report = mcs(losses, reps=300, statistic="R", seed=0)
        assert report.statistic == "R"
        assert report.p_values()["bad"] < 0.01

    def test_zero_variance_pair_warns(self):
        a = loss("a", np.full(10, 1.0))
        b = loss("b", np.full(10, 2.0))
        with pytest.warns(RuntimeWarning, match="zero bootstrap variance"):
            report = mcs([a, b], reps=200, seed=0)
        assert len(report.eliminations) == 2

    @pytest.mark.parametrize("a, b", [
        (np.full(10, 0.1), np.full(10, 0.3)),
        (np.full(22, 0.1), np.full(22, 0.3)),
        (np.full(3696, 0.1), np.full(3696, 0.3)),
        (np.full(22, 1 / 3), np.full(22, 2 / 3)),
        # Eighths, so a + 1 rounds exactly and a - b is -1.0 in every period.
        (np.arange(22) % 7 / 8, np.arange(22) % 7 / 8 + 1),
        # Here a + 1 rounds, so a - b takes the two doubles -1 and -1 + 2**-53.
        (np.random.default_rng(0).random(22), np.random.default_rng(0).random(22) + 1),
    ], ids=["0.1-0.3-n10", "0.1-0.3-n22", "0.1-0.3-n3696", "thirds-n22",
            "shifted-by-one", "shifted-by-one-ulp"])
    def test_constant_differential_is_degenerate(self, a, b):
        # Decided from the losses, not from whether rounding happens to leave
        # the bootstrap variance at exactly 0 or at rounding noise.
        with pytest.warns(RuntimeWarning,
                          match=r"zero bootstrap variance or constant loss differential "
                          r"for model pairs \[\('a', 'b'\)\]"):
            report = mcs([loss("a", a), loss("b", b)], reps=200, seed=0)
        # The only pair contributes 0 to the observed and every null statistic,
        # so no round rejects and both models keep p = 1.
        assert report.eliminations == (("a", 1.0), ("b", 1.0))

    def test_warning_lists_every_degenerate_pair(self):
        # Every pair of four models a quarter apart has a constant differential.
        base = np.random.default_rng(6).random(22)
        losses = [loss(m, base + shift) for m, shift in zip("abcd", (0, 0.25, 0.5, 0.75))]
        with pytest.warns(RuntimeWarning) as caught:
            mcs(losses, reps=200, seed=0)
        pairs = [(p, q) for i, p in enumerate("abcd") for q in "abcd"[i + 1:]]
        assert [str(w.message) for w in caught] == [
            f"zero bootstrap variance or constant loss differential for model pairs "
            f"{pairs}; their statistic contribution was set to 0"]

    def test_block_spanning_the_sample_is_degenerate(self):
        # With block == n every replicate redraws the sample itself, so the
        # bootstrap variance is exactly 0 although no differential is constant.
        rng = np.random.default_rng(3)
        losses = [loss(m, rng.random(500)) for m in ("a", "b", "c")]
        with pytest.warns(RuntimeWarning, match="zero bootstrap variance"):
            report = mcs(losses, reps=200, block=500, seed=0)
        assert report.p_values() == {"a": 1.0, "b": 1.0, "c": 1.0}

    def test_constant_differential_beside_an_informative_pair(self):
        rng = np.random.default_rng(4)
        base = rng.random(30)
        losses = [loss("a", np.round(base * 64) / 64),
                  loss("b", np.round(base * 64) / 64 + 0.5),
                  loss("c", base + 3.0 + rng.normal(0, 0.05, 30) ** 2)]
        with pytest.warns(RuntimeWarning, match=r"\[\('a', 'b'\)\]"):
            report = mcs(losses, reps=300, seed=0)
        assert report.eliminations[0][0] == "c"
        assert report.p_values()["c"] < 0.01

    def test_three_model_dominance_order(self):
        rng = np.random.default_rng(8)
        base = rng.random(25)
        losses = [loss("best", base),
                  loss("mid", base + 0.5 + rng.normal(0, 0.01, 25) ** 2),
                  loss("worst", base + 1.5 + rng.normal(0, 0.01, 25) ** 2)]
        report = mcs(losses, reps=400, seed=0)
        assert [m for m, _ in report.eliminations] == ["worst", "mid", "best"]

    def test_single_model_survives_trivially(self):
        # One model has no pair, so no round runs and no pair is degenerate.
        for statistic in ("SQ", "R"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                report = mcs([loss("only", np.ones(5))], reps=300, statistic=statistic, seed=1)
            assert report.eliminations == (("only", 1.0),)
            assert report.survivors == ("only",)

    @pytest.mark.parametrize("kwargs, message", [
        ({"block": 9}, "block length 9 outside [1, 5]"),
        ({"reps": 99}, "need at least 100 bootstrap replications, got 99"),
        ({"alpha": 0.0}, "alpha must be inside (0, 1), got 0.0"),
        ({"alpha": 1.5}, "alpha must be inside (0, 1), got 1.5"),
        ({"statistic": "max"}, "statistic must be 'SQ' or 'R', got 'max'"),
    ], ids=["block", "reps", "alpha-0", "alpha-1.5", "statistic"])
    def test_single_model_checked_like_two(self, kwargs, message):
        a, b = loss("a", np.ones(5)), loss("b", np.zeros(5))
        for losses in ([a], [a, b]):
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                mcs(losses, **{"reps": 200, **kwargs})

    def test_validation(self):
        a, b = loss("a", np.ones(5)), loss("b", np.zeros(5))
        with pytest.raises(ValidationError, match="at least one model"):
            mcs([])
        with pytest.raises(ValidationError, match="duplicate model ids"):
            mcs([a, loss("a", np.zeros(5))])
        with pytest.raises(ValidationError, match="same evaluation periods"):
            mcs([a, loss("b", np.zeros(4), periods=range(4))])
        with pytest.raises(ValidationError, match="at least 100"):
            mcs([a, b], reps=50)
        with pytest.raises(ValidationError, match="block length"):
            mcs([a, b], reps=200, block=9)
        with pytest.raises(ValidationError, match="alpha"):
            mcs([a, b], reps=200, alpha=1.5)
        with pytest.raises(ValidationError, match="statistic"):
            mcs([a, b], reps=200, statistic="max")

    @pytest.mark.parametrize("losses, pair", [
        # A replicate that draws 1e308 twice sums to inf.
        ({"a": [1e308, 0.0], "b": [0.0, 1e308]}, "'a' and 'b'"),
        ({"a": [0.0, 0.0], "b": [1.0, 2.0], "c": [0.0, 1e308]}, "'a' and 'c'"),
        # Means are finite, but differentials near 1e200 square to inf.
        ({"a": [1e200, 0.0], "b": [0.0, 1e200]}, "'a' and 'b'"),
    ], ids=["means", "means-third-model", "variance"])
    def test_overflow_is_a_numerical_error(self, losses, pair):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError,
                               match=f"^non-finite bootstrap variance for models {pair}$"):
                mcs([loss(m, np.array(v)) for m, v in losses.items()], reps=200, block=1)

    def test_report_validation(self):
        with pytest.raises(ValidationError, match="non-decreasing"):
            McsReport(statistic="SQ", reps=100, block=2, seed=0, alpha=0.01,
                      eliminations=(("a", 0.5), ("b", 0.1), ("c", 1.0)),
                      survivors=("c",))
        with pytest.raises(ValidationError, match="p-value 1"):
            McsReport(statistic="SQ", reps=100, block=2, seed=0, alpha=0.01,
                      eliminations=(("a", 0.5), ("b", 0.9)),
                      survivors=("b",))


MEANS_CASES = [(n, block, False) for n, block in [
    (22, 1), (22, 2), (22, 3), (22, 22),
    (23, 1), (23, 2), (23, 3), (23, 23),
    (3696, 1), (3696, 2), (3696, 5), (3696, 3696),
]] + [(3696, 2, True)]


class TestStreamingBootstrap:
    @pytest.mark.parametrize("n, block, spike", MEANS_CASES,
                             ids=[f"{n}-{block}" + "-spike" * spike
                                  for n, block, spike in MEANS_CASES])
    def test_means_match_gather_oracle(self, n, block, spike):
        rng = np.random.default_rng(n + block)
        if spike:
            # One huge loss among tiny ones: a block sum taken from running
            # totals of the whole series would carry the huge loss's rounding.
            matrix = rng.gamma(2.0, 1e-3, (7, n))
            matrix[0, 0] = 1e6
        else:
            matrix = rng.gamma(2.0, 1.0, (7, n))
        means, boot = _boot_means(matrix, block, 300, np.random.default_rng(1))
        expected = gather_boot_means(matrix, block, 300, np.random.default_rng(1))
        np.testing.assert_allclose(boot, expected, rtol=1e-12, atol=0)
        np.testing.assert_allclose(means, matrix.mean(axis=1), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n, block, spike", MEANS_CASES,
                             ids=[f"{n}-{block}" + "-spike" * spike
                                  for n, block, spike in MEANS_CASES])
    def test_sums_equal_dense_kernel(self, n, block, spike):
        # Counting starts as floats in place must not move one bit of any sum.
        rng = np.random.default_rng(n + block)
        matrix = rng.gamma(2.0, 1e-3 if spike else 1.0, (7, n))
        if spike:
            matrix[0, 0] = 1e6
        for reps in (300, _REP_CHUNK, 130):
            means, boot = _boot_means(matrix, block, reps, np.random.default_rng(1))
            expected_means, expected = dense_boot_means(matrix, block, reps,
                                                        np.random.default_rng(1))
            assert np.array_equal(boot, expected)
            assert np.array_equal(means, expected_means)

    def test_block_spanning_the_sample_redraws_the_mean_exactly(self):
        matrix = np.random.default_rng(5).random((3, 500))
        means, boot = _boot_means(matrix, 500, 100, np.random.default_rng(0))
        assert np.array_equal(boot, np.repeat(means[:, None], 100, axis=1))

    @pytest.mark.parametrize("n, block, reps", [(22, 2, 1000), (23, 2, 333),
                                                (3696, 2, 200), (5, 5, 130)])
    def test_chunked_starts_equal_one_draw(self, n, block, reps):
        chunks = list(_start_chunks(np.random.default_rng(8), n, block, reps))
        assert len(chunks) == -(-reps // _REP_CHUNK) > 1
        single = np.random.default_rng(8).integers(
            0, n - block + 1, size=(reps, -(-n // block)))
        assert np.array_equal(np.concatenate(chunks), single)

    @pytest.mark.parametrize("key", sorted(GOLDEN_MCS))
    def test_eliminations_match_golden(self, key):
        n, seed, statistic, block = key.split("/")
        report = mcs(seven_model_losses(int(seed), int(n)), reps=1000,
                     block=int(block), statistic=statistic, seed=int(seed))
        assert [list(pair) for pair in report.eliminations] == GOLDEN_MCS[key]

    def test_peak_memory_is_bounded(self):
        # At 3,696 periods a reps x periods int64 index matrix alone would
        # take 282 MiB. At 22 periods and 10,000 reps, earlier designs peaked
        # at 12.3 MiB (models x models x reps tensors in each round), 5.35
        # (each round copying its active pairs' terms) and 2.15 (a pairs x
        # reps array formed once per call; 21.4 at 100,000 reps). Streaming
        # each pair's differential through one row leaves the 7 x reps
        # bootstrap means and two rows: 0.77 MiB, and 7.0 at 100,000 reps.
        for n_periods, reps, bound_mib in ((3696, 10_000, 64), (22, 10_000, 1),
                                           (22, 100_000, 8)):
            losses = seven_model_losses(0, n_periods)
            tracemalloc.start()
            try:
                mcs(losses, reps=reps, seed=0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < bound_mib * 2**20, (n_periods, reps)


class TestYearBlockBootstrap:
    """Resampling year-major (year, country) losses in blocks of whole years
    is the year bootstrap scaled by 1/N, and a common scale leaves the MCS
    report as it is: so the year losses give the per-observation report."""

    @pytest.mark.parametrize("n_countries", [1, 3, 17])
    @pytest.mark.parametrize("n_years", [2, 5, 22])
    @pytest.mark.parametrize("block", ["1", "2", "H"])
    def test_means_are_year_means_over_n(self, n_countries, n_years, block):
        block = n_years if block == "H" else int(block)
        rng = np.random.default_rng(100 * n_countries + n_years)
        cells = rng.gamma(2.0, 1.0, (7, n_years, n_countries))  # models x years x countries
        years = cells.sum(axis=2)
        _, boot = _boot_means(years, block, 300, np.random.default_rng(6))
        expected = year_block_boot_means(cells.reshape(7, -1), n_countries, block, 300,
                                         np.random.default_rng(6))
        np.testing.assert_allclose(boot / n_countries, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("statistic", ["SQ", "R"])
    @pytest.mark.parametrize("n_countries", [3, 17, 168])
    def test_common_scale_keeps_the_report(self, n_countries, statistic):
        # Seven informative models plus a twin (zero variance) and a shifted
        # copy (a flat differential) of the first.
        losses = seven_model_losses(n_countries, 22)
        base = np.round(losses[0].values * 64) / 64
        losses[0] = loss("m0", base, periods=range(22))
        losses += [loss("twin", base.copy(), periods=range(22)),
                   loss("shift", base + 0.25, periods=range(22))]
        scaled = [LossSeries(ls.model, ls.periods, ls.values / n_countries) for ls in losses]
        kwargs = dict(reps=1000, block=2, statistic=statistic, seed=n_countries, alpha=0.05)
        report, caught = mcs_outcome(mcs, losses, **kwargs)
        assert len(caught) == 1 and "('m0', 'shift')" in caught[0][1]
        assert mcs_outcome(mcs, scaled, **kwargs) == (report, caught)


def mcs_outcome(fn, losses, **kwargs):
    """An MCS call's report, or ("error", message) when it raises, and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            report = fn(losses, **kwargs)
        except NumericalError as exc:
            report = ("error", str(exc))
    return report, [(w.category, str(w.message)) for w in caught]


def mixed_losses(seed, n_periods):
    """Six models: `twin` duplicates `base` (zero variance), `shift` adds a
    dyadic constant to it (a flat differential), `ulp-twin` is `ulp` moved
    by rounding alone (flat to within rounding), and `noisy` is informative."""
    rng = np.random.default_rng(seed)
    base = np.round(rng.gamma(2.0, 1.0, n_periods) * 64) / 64
    values = {"base": base, "twin": base.copy(), "shift": base + 0.25,
              "ulp": rng.random(n_periods) + 1,
              "noisy": base + rng.gamma(2.0, 1.5, n_periods)}
    values["ulp-twin"] = values["ulp"] - 1 + 1
    return [loss(model, v, periods=range(n_periods)) for model, v in values.items()]


def twin_losses(seed, n_periods):
    """Six informative models and a twin of the first: one degenerate pair
    beside twenty that the rounds read."""
    losses = seven_model_losses(seed, n_periods)[:6]
    return [*losses, LossSeries("twin", losses[0].periods, losses[0].values)]


MCS_ORACLE_CASES = [
    *[(f"seven-{n}-{seed}-b{block}", seven_model_losses(seed, n), block)
      for n, seed, block in [(22, 0, 2), (22, 5, 1), (23, 7, 3), (60, 11, 2),
                             (200, 3, 5), (3696, 2, 2), (40, 9, 40)]],
    *[(f"mixed-{n}-{seed}", mixed_losses(seed, n), 2)
      for n, seed in [(22, 0), (30, 1), (300, 2)]],
    ("all-flat", [loss(m, np.arange(22) % 7 / 8 + k) for k, m in enumerate("abcd")], 2),
    ("pair-only", [loss("a", np.full(10, 0.1)), loss("b", np.full(10, 0.3))], 2),
    ("overflow-means", [loss("a", np.array([1e308, 0.0])),
                        loss("b", np.array([0.0, 1e308]))], 1),
    ("overflow-third", [loss("a", np.array([0.0, 0.0])), loss("b", np.array([1.0, 2.0])),
                        loss("c", np.array([0.0, 1e308]))], 1),
    ("overflow-variance", [loss("a", np.array([1e200, 0.0])),
                           loss("b", np.array([0.0, 1e200]))], 1),
    ("seven-twin-22-13", twin_losses(13, 22), 2),
]
# Each case at 700 replications and at 10,007, the paper's size, whose last
# _REP_CHUNK chunk is cut short; a 700-rep run keeps its case's id.
MCS_ORACLE_RUNS = [(losses, block, reps, name if reps == 700 else f"{name}-reps{reps}")
                   for reps in (700, 10_007) for name, losses, block in MCS_ORACLE_CASES]


class TestMcsMatchesRoundByRound:
    @pytest.mark.parametrize("statistic", ["SQ", "R"])
    @pytest.mark.parametrize("losses, block, reps", [run[:3] for run in MCS_ORACLE_RUNS],
                             ids=[run[3] for run in MCS_ORACLE_RUNS])
    def test_same_report_warnings_and_errors(self, losses, block, reps, statistic):
        kwargs = dict(reps=reps, block=block, statistic=statistic, seed=4, alpha=0.05)
        got = mcs_outcome(mcs, losses, **kwargs)
        assert got == mcs_outcome(round_by_round_mcs, losses, **kwargs)

    @pytest.mark.parametrize("statistic", ["SQ", "R"])
    @pytest.mark.parametrize("losses, block", [case[1:] for case in MCS_ORACLE_CASES],
                             ids=[case[0] for case in MCS_ORACLE_CASES])
    def test_same_null_statistics_each_round(self, monkeypatch, losses, block, statistic):
        # Summed in another pair order, the SQ statistics differ in their
        # last bits, which the reports alone need not show.
        fold, folded = evaluation._null_statistics, []

        def recording(*args):
            fold(*args)
            folded.append(args[-1].copy())  # the null statistics it folded

        monkeypatch.setattr(evaluation, "_null_statistics", recording)
        kwargs = dict(reps=700, block=block, statistic=statistic, seed=4, alpha=0.05)
        mcs_outcome(mcs, losses, **kwargs)
        expected = []
        mcs_outcome(round_by_round_mcs, losses, rounds=expected, **kwargs)
        assert len(folded) == len(expected)
        assert [stats.tobytes() for stats in folded] == [stats.tobytes() for stats in expected]

    def test_cases_cover_degenerate_pairs_and_errors(self):
        outcomes = {name: mcs_outcome(mcs, losses, reps=700, block=block, seed=4)
                    for name, losses, block in MCS_ORACLE_CASES}
        assert [name for name, (report, _) in outcomes.items()
                if not isinstance(report, McsReport)] == [
            "overflow-means", "overflow-third", "overflow-variance"]
        warned = {name for name, (_, caught) in outcomes.items() if caught}
        assert warned == {"seven-40-9-b40", "mixed-22-0", "mixed-30-1", "mixed-300-2",
                          "all-flat", "pair-only", "seven-twin-22-13"}
        assert "[('m0', 'twin')]" in outcomes["seven-twin-22-13"][1][0][1]
        # Mixed cases keep informative pairs beside the degenerate ones.
        assert all(len(outcomes[name][0].survivors) < 6
                   for name in ("mixed-22-0", "mixed-30-1", "mixed-300-2",
                                "seven-twin-22-13"))


class TestReports:
    def build(self):
        # b = a + 1 exactly: the pair is degenerate on purpose.
        losses = [loss("a", np.array([1.0, 2.0, 1.5])),
                  loss("b", np.array([2.0, 3.0, 2.5]))]
        with pytest.warns(RuntimeWarning, match="zero bootstrap variance"):
            m = mcs(losses, reps=200, seed=0)
        oos_stub = type("S", (), {"fn": {"a": 4.5, "b": 7.5}})()
        return build_report({"a": 10.0, "b": 12.0}, oos_stub, m)

    def test_rows_follow_elimination_order(self):
        report = self.build()
        rows = report.rows()
        assert [r["model"] for r in rows] == list(report.models)
        assert rows[-1]["mcs_p"] == 1.0

    def test_missing_model_rejected(self):
        losses = [loss("a", np.array([1.0, 2.0, 1.2])),
                  loss("b", np.array([2.0, 3.5, 2.8]))]
        m = mcs(losses, reps=200, seed=0)
        oos_stub = type("S", (), {"fn": {"a": 1.0, "b": 2.0}})()
        with pytest.raises(ValidationError, match="missing results"):
            build_report({"a": 1.0}, oos_stub, m)

    def test_csv_layout(self, tmp_path):
        report = self.build()
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "model,in_sample_fn,out_of_sample_fn,mcs_p"
        assert len(lines) == 3

    def test_json_layout(self, tmp_path):
        report = self.build()
        path = tmp_path / "report.json"
        write_report_json(report, path)
        payload = json.loads(path.read_text())
        assert set(payload) == {"models", "in_sample_fn", "out_of_sample_fn", "mcs"}
        assert payload["mcs"]["p_values"][payload["mcs"]["survivors"][-1]] == 1.0
