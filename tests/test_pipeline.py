"""Scheme computation and weight assembly over a shared panel."""
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from starclust import (KINDS, SCHEMES, RunConfig,
                       ValidationError, build_weights, compute_scheme,
                       fit_panel_trends, fit_star, scheme_features, split_panel,
                       weight_builder)
from starclust import pipeline
from starclust.clustering import IDIOSYNCRATIC, NULL, agglomerate, cross_tab
from starclust.distances import diff_distance, sign_distance
from starclust.evaluation import loss_series
from conftest import borders_of, generated_panel, make_panel


def chain_adjacency(ids):
    return borders_of(ids, zip(ids, ids[1:]))


# k = 2/3/3 main clusters for schemes A/B/C, distances rescaled.
CFG = RunConfig(k_a=2, k_b=3, k_c=3, rescale_distances=True)

GROUPS = {
    1: ["C00", "C01", "C02"],   # fastest warming
    2: ["C03", "C04", "C05"],   # moderate warming
    3: ["C06", "C07", "C08"],   # no trend
}


class TestComputeScheme:
    def test_constants(self):
        assert SCHEMES == ("A", "B", "C")
        cfg = RunConfig()
        assert [cfg.cluster_count(s) for s in SCHEMES] == [4, 5, 12]

    def test_scheme_a_excludes_null_and_orders_by_slope(self, grouped_panel):
        res = compute_scheme(grouped_panel, "A", CFG)
        assign = res.assignment
        assert assign.members(NULL) == GROUPS[3]
        assert assign.members(1) == GROUPS[1]
        assert assign.members(2) == GROUPS[2]
        # Relabeling puts the fastest-warming cluster first.
        fits = fit_panel_trends(grouped_panel)
        assert res.slopes.tolist() == [fits[cid].slope for cid in grouped_panel.ids]
        mean1 = res.slopes[assign.codes == 1].mean()
        mean2 = res.slopes[assign.codes == 2].mean()
        assert mean1 > mean2

    def test_scheme_b_groups_by_dynamics(self, grouped_panel):
        res = compute_scheme(grouped_panel, "B", CFG)
        assign = res.assignment
        assert res.slopes is None
        assert assign.members(NULL) == []
        got = {frozenset(assign.members(i)) for i in range(1, 4)}
        assert got == {frozenset(g) for g in GROUPS.values()}

    def test_scheme_c_sign_patterns(self, grouped_panel):
        res = compute_scheme(grouped_panel, "C", CFG)
        assign = res.assignment
        assert res.dendrogram == agglomerate(sign_distance(grouped_panel))
        assert frozenset(assign.members(1)) == frozenset(GROUPS[1])
        assert frozenset(assign.members(2)) == frozenset(GROUPS[2])
        # Noise flips one change sign for C07 at a pattern boundary, so it
        # falls out of the third cluster as idiosyncratic.
        assert set(assign.members(3)) | set(assign.members(IDIOSYNCRATIC)) == set(GROUPS[3])

    def test_unknown_scheme(self, grouped_panel):
        with pytest.raises(ValidationError, match="unknown scheme"):
            compute_scheme(grouped_panel, "D", CFG)

    def test_explicit_rule_override(self, grouped_panel):
        # k = 1 resolves to the root: its gap is infinite, and ties go to
        # the coarsest cut.
        cfg = replace(CFG, k_b=1)
        res = compute_scheme(grouped_panel, "B", cfg)
        assert res.assignment.n_clusters == 1
        assert len(res.assignment.members(1)) == 9

    def test_too_few_significant_trends(self):
        rng = np.random.default_rng(0)
        panel = make_panel(12.0 + rng.normal(0, 1, (3, 30)))
        with pytest.raises(ValidationError, match="fewer than 2"):
            compute_scheme(panel, "A", RunConfig(k_a=1))

    def test_features_scheme_a_slopes(self, grouped_panel):
        res = compute_scheme(grouped_panel, "A", CFG)
        feats = scheme_features(res, grouped_panel)
        assert feats.shape == (grouped_panel.n_countries,)
        assert feats[grouped_panel.id_index["C00"]] == pytest.approx(0.12, abs=0.01)

    def test_features_other_schemes_are_diffs(self, grouped_panel):
        res = compute_scheme(grouped_panel, "B", CFG)
        feats = scheme_features(res, grouped_panel)
        diff = feats[grouped_panel.id_index["C03"]]
        assert diff.shape == (grouped_panel.n_years - 1,)
        assert np.allclose(diff, np.diff(grouped_panel.values[grouped_panel.id_index["C03"]]), atol=0)

    @pytest.mark.parametrize("scheme", ["B", "C"])
    def test_difference_features_bitwise_equal_to_row_differences(self, grouped_panel, scheme):
        feats = scheme_features(compute_scheme(grouped_panel, scheme, CFG), grouped_panel)
        assert len(feats) == grouped_panel.n_countries
        for cid, diff in zip(grouped_panel.ids, feats):
            row = grouped_panel.values[grouped_panel.id_index[cid]]
            assert np.array_equal(diff, row[1:] - row[:-1])


class TestDistanceOwnership:
    """A matrix the caller keeps is linked as a copy; one a scheme computes
    itself is linked in place, so a scheme holds one K x K matrix."""

    @pytest.mark.parametrize("scheme, build", [("B", diff_distance), ("C", sign_distance)])
    def test_passed_distance_left_unchanged(self, grouped_panel, scheme, build):
        dist = build(grouped_panel)
        original = dist.values.copy()
        res = compute_scheme(grouped_panel, scheme, CFG, distance=dist)
        assert np.array_equal(dist.values.view(np.int64), original.view(np.int64))
        assert not dist.values.flags.writeable
        own = compute_scheme(grouped_panel, scheme, CFG)
        assert res.dendrogram == own.dendrogram
        assert np.array_equal(res.assignment.codes, own.assignment.codes)

    def test_build_weights_lends_its_matrices_unchanged(self, grouped_panel, monkeypatch):
        # Every B and C matrix build_weights computes is passed to the
        # clustering, then read again by both weight kinds of its scheme.
        built, lent = [], []
        for name in ("diff_distance", "sign_distance"):
            def record(panel, build=getattr(pipeline, name)):
                built.append(build(panel))
                return built[-1]
            monkeypatch.setattr(pipeline, name, record)
        compute = pipeline.compute_scheme

        def spy(*args, **kwargs):
            lent.append(kwargs.get("distance"))
            return compute(*args, **kwargs)
        monkeypatch.setattr(pipeline, "compute_scheme", spy)
        build_weights(grouped_panel, CFG, adjacency=chain_adjacency(grouped_panel.ids))
        assert [d.metric for d in built] == ["diff", "hamming"]
        assert lent == [None, *built]
        for dist, fresh in zip(built, (diff_distance(grouped_panel),
                                       sign_distance(grouped_panel))):
            assert np.array_equal(dist.values.view(np.int64), fresh.values.view(np.int64))
            assert not dist.values.flags.writeable

    @pytest.mark.parametrize("scheme", ["B", "C"])
    def test_scheme_peak_allocation_is_one_matrix(self, scheme):
        # K = 400 countries over 30 years: the 8 K^2-byte matrix is 1.22 MiB,
        # the differences and the reused gap row 0.09 MiB each. Linked in
        # place, each scheme peaked at 1.27 times the matrix (B) and 1.24
        # times (C); with the matrix, its sorted copy and its temporaries,
        # at 2.1 and 2.3 times.
        k = 400
        panel = make_panel(np.random.default_rng(7).normal(15, 5, (k, 30)),
                           ids=[f"C{i:03d}" for i in range(k)])
        tracemalloc.start()
        try:
            compute_scheme(panel, scheme, replace(CFG, k_b=5, k_c=5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * 8 * k * k


class TestBuildWeights:
    def build_all(self, panel, **kw):
        return build_weights(panel, CFG, adjacency=chain_adjacency(panel.ids), **kw)

    @pytest.mark.parametrize("kind, bound", [("dB", 2.2), ("cB", 2.5)])
    def test_weight_peak_allocation(self, kind, bound):
        # K = 400 countries over 30 years, in units of the 8 K^2-byte matrix.
        # Each weight matrix is formed in one buffer beside its distance
        # matrix: dB peaked at 2.06 times the matrix, and cB at 2.33 with
        # its same-cluster mask. Through N x N temporaries (a copy of the
        # distances, the rescaled and similarity matrices, the embedding and
        # the normalized rows) they peaked at 4.11 and 4.20 times.
        k = 400
        panel = make_panel(np.random.default_rng(7).normal(15, 5, (k, 30)),
                           ids=[f"C{i:03d}" for i in range(k)])
        tracemalloc.start()
        try:
            build_weights(panel, CFG, (kind,))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound * 8 * k * k

    def test_all_kinds_produced(self, grouped_panel):
        out = self.build_all(grouped_panel)
        assert tuple(out) == KINDS
        for kind, w in out.items():
            assert w.kind == kind
            assert w.labels == grouped_panel.ids
            sums = w.values.sum(axis=1)
            assert np.all((np.abs(sums - 1) <= 1e-12) | (sums == 0))

    def test_cluster_restricted_zero_rows(self, grouped_panel):
        out = self.build_all(grouped_panel)
        # Scheme A nulls get zero rows in cA; scheme C's idiosyncratic country
        # gets one in cC; scheme B clusters everyone.
        assert set(out["cA"].zero_rows()) == set(GROUPS[3])
        assert out["cB"].zero_rows() == ()
        assert out["cC"].zero_rows() == ("C07",)

    def test_cluster_restriction_masks_cross_cluster_pairs(self, grouped_panel):
        out = self.build_all(grouped_panel)
        w = out["cB"].values
        idx = {cid: i for i, cid in enumerate(grouped_panel.ids)}
        for cid in GROUPS[1]:
            for other in GROUPS[2] + GROUPS[3]:
                assert w[idx[cid], idx[other]] == 0.0
        for other in GROUPS[1]:
            if other != "C00":
                assert w[idx["C00"], idx[other]] > 0.0

    def test_full_distance_kinds_weight_everyone(self, grouped_panel):
        out = self.build_all(grouped_panel)
        for kind in ("dB", "dC"):
            w = out[kind]
            assert w.zero_rows() == ()
            off_diag = w.values[~np.eye(w.size, dtype=bool)]
            assert np.all(off_diag > 0)

    def test_contiguity_requires_adjacency(self, grouped_panel):
        with pytest.raises(ValidationError, match="adjacency"):
            build_weights(grouped_panel, CFG, kinds=("NN",))

    def test_unknown_kind(self, grouped_panel):
        with pytest.raises(ValidationError, match="unknown weight kinds"):
            build_weights(grouped_panel, CFG, kinds=("NN", "zz"))

    def test_distance_kinds_skip_the_cut(self, grouped_panel):
        # 9 countries hold at most 4 clusters of two or more, so k=7 fails
        # for the clustered kind, but the full-distance kind never cuts.
        adj = chain_adjacency(grouped_panel.ids)
        cfg = RunConfig(k_b=7, rescale_distances=True)
        with pytest.raises(ValidationError, match="no dendrogram cut"):
            build_weights(grouped_panel, cfg, kinds=("cB",), adjacency=adj)
        out = build_weights(grouped_panel, cfg, kinds=("dB",), adjacency=adj)
        assert out["dB"].zero_rows() == ()

    def test_dA_keeps_null_countries(self, grouped_panel):
        # The null-slope countries still have estimated slopes, so dA gives
        # them weights where cA gives them zero rows.
        with_null = self.build_all(grouped_panel, kinds=("dA",))
        assert with_null["dA"].zero_rows() == ()

    @pytest.mark.parametrize("kinds, calls", [
        (KINDS, {"fit_panel_trends": 1, "diff_distance": 1, "sign_distance": 1,
                 "compute_scheme": 3}),
        (("cB", "cB"), {"fit_panel_trends": 0, "diff_distance": 1, "sign_distance": 0,
                        "compute_scheme": 1}),
    ], ids=["all-kinds", "repeated-cB"])
    def test_each_step_runs_once(self, grouped_panel, monkeypatch, kinds, calls):
        # Trends, the B and C matrices and each scheme's clustering are
        # computed once per call and shared by every kind that needs them.
        counts = dict.fromkeys(calls, 0)
        for name in calls:
            def counted(*args, fn=getattr(pipeline, name), name=name, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(pipeline, name, counted)
        out = self.build_all(grouped_panel, kinds=kinds)
        assert counts == calls
        assert tuple(out) == tuple(dict.fromkeys(kinds))

    def test_rescale_required_for_wide_distances(self, grouped_panel):
        # Max diff distance 12.4 exceeds the 9-country panel size.
        adj = chain_adjacency(grouped_panel.ids)
        with pytest.raises(ValidationError, match="exceeds panel size"):
            build_weights(grouped_panel, RunConfig(), kinds=("dB",), adjacency=adj)

    @pytest.mark.parametrize("seed", [0, 11])
    def test_unscaled_slope_weights_are_uniform(self, seed):
        # Without rescaling, scheme A's slope gaps (at most d_max, about 0.025
        # here) are tiny beside N = 168, so every similarity (N - d)/N is
        # within d_max/N of 1 and dA is the uniform matrix 1/(N - 1) off the
        # diagonal: each (N - 1) w_ij is within d_max/(N - d_max) of 1. That
        # is 1.5e-4 on these panels; rescaled, dA is 1.49 off uniform.
        panel = generated_panel(seed, 168)
        n = panel.n_countries
        weights = build_weights(panel, RunConfig(rescale_distances=False), ["dA"])["dA"]
        slopes = [fit.slope for fit in fit_panel_trends(panel).values()]
        d_max = max(slopes) - min(slopes)
        off_diagonal = weights.values[~np.eye(n, dtype=bool)]
        assert np.abs((n - 1) * off_diagonal - 1).max() <= d_max / (n - d_max) + 1e-12


class TestBuilders:
    def test_weight_builder_reestimates_on_slice(self, grouped_panel):
        # Only the 3 fastest-warming slopes are significant over 1950-1975,
        # so scheme A is cut into one cluster.
        build = weight_builder(replace(CFG, k_a=1), chain_adjacency(grouped_panel.ids))
        full = build(grouped_panel)
        train, _ = split_panel(grouped_panel, 1975)
        reduced = build(train)
        assert tuple(reduced) == KINDS
        assert all(reduced[kind].labels == train.ids for kind in KINDS)
        # Distances over 25 years differ from distances over 41 years.
        assert not np.allclose(full["dB"].values, reduced["dB"].values)


def _nn(panel):
    return build_weights(panel, CFG, ["NN"], chain_adjacency(panel.ids))["NN"]


# A fresh record of each kind that holds an array, built from a panel.
_ARRAY_RECORDS = {
    "TemperaturePanel": lambda p: make_panel(p.values, first_year=p.years[0]),
    "DistanceMatrix": diff_distance,
    "WeightMatrix": _nn,
    "StarModel": lambda p: fit_star(p, _nn(p)),
    "LossSeries": lambda p: loss_series("NN", p.values, np.zeros_like(p.values), p.years),
    "ContingencyTable": lambda p: cross_tab(compute_scheme(p, "A", CFG).assignment,
                                            compute_scheme(p, "B", CFG).assignment, p),
    "SchemeResult": lambda p: compute_scheme(p, "A", CFG),
}


@pytest.mark.parametrize("build", _ARRAY_RECORDS.values(), ids=_ARRAY_RECORDS)
def test_records_holding_arrays_compare_and_hash_by_identity(grouped_panel, build):
    # Compared field by field, two equal records raise on their arrays'
    # elementwise `==`, and hashing one raises on its unhashable array.
    record, twin = build(grouped_panel), build(grouped_panel)
    assert record == record
    assert record != twin
    assert len({record, twin, record}) == 2
