"""Weight-matrix construction: contiguity, distance-based, cluster-restricted."""
import json

import numpy as np
import pytest

from starclust import (ClusterAssignment, DistanceMatrix, NumericalError, ValidationError,
                       WeightMatrix, cluster_restricted_weights, contiguity_weights,
                       distance_weights, hamming_distance, load_adjacency)
from starclust.weights import _similarity, write_weight_csv, write_weight_meta
from conftest import assignment_of, borders_of, make_panel

from _oracles import clamped_weights, contiguity_from_edges, mask_and_normalize


def panel_of(n, t=8, seed=0, ids=None):
    rng = np.random.default_rng(seed)
    return make_panel(rng.random((n, t)), ids=ids)


def row_of(w, cid):
    return w.values[w.labels.index(cid)]


def distance_of(panel, values, metric="diff"):
    return DistanceMatrix(metric=metric, labels=panel.ids,
                          values=np.asarray(values, dtype=float))


class TestWeightMatrix:
    def test_rows_stochastic_or_zero(self):
        values = np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        w = WeightMatrix(kind="NN", labels=("a", "b", "c"), values=values)
        assert w.zero_rows() == ("c",)
        assert np.all(row_of(w, "a") == [0.0, 0.5, 0.5])

    def test_bad_rows_rejected(self):
        values = np.array([[0.0, 0.4], [0.4, 0.0]])
        with pytest.raises(ValidationError, match="neither stochastic nor zero"):
            WeightMatrix(kind="NN", labels=("a", "b"), values=values)

    def test_diagonal_must_be_zero(self):
        values = np.array([[0.5, 0.5], [1.0, 0.0]])
        with pytest.raises(ValidationError, match="diagonal"):
            WeightMatrix(kind="NN", labels=("a", "b"), values=values)

    def test_negative_rejected(self):
        values = np.array([[0.0, 1.5, -0.5], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ValidationError, match="negative"):
            WeightMatrix(kind="NN", labels=("a", "b", "c"), values=values)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError, match="unknown weight kind"):
            WeightMatrix(kind="xx", labels=("a",), values=np.zeros((1, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_reported_before_negative(self, bad):
        values = np.array([[0.0, 1.5, -0.5], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        values[2, 0] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            WeightMatrix(kind="NN", labels=("a", "b", "c"), values=values)

    def test_values_read_only(self):
        w = WeightMatrix(kind="NN", labels=("a", "b"),
                         values=np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            w.values[0, 1] = 0.3

    def test_takes_ownership_of_a_float_array(self):
        values = np.array([[0.0, 1.0], [1.0, 0.0]])
        w = WeightMatrix(kind="NN", labels=("a", "b"), values=values)
        assert w.values is values
        assert not values.flags.writeable


class TestContiguityWeights:
    def test_equal_shares(self):
        ids = ["a", "b", "c", "d", "e"]
        panel = panel_of(5, ids=ids)
        adj = borders_of(ids, [("a", "b"), ("a", "c"), ("a", "d"), ("a", "e")])
        w = contiguity_weights(adj, panel)
        # Four neighbours each get a quarter.
        assert np.all(row_of(w, "a") == [0.0, 0.25, 0.25, 0.25, 0.25])
        assert np.all(row_of(w, "b") == [1.0, 0.0, 0.0, 0.0, 0.0])
        assert w.zero_rows() == ()

    def test_isolated_country_zero_row(self):
        panel = panel_of(4, ids=["a", "b", "c", "d"])
        adj = borders_of(panel.ids, [("b", "d")])
        w = contiguity_weights(adj, panel)
        assert w.zero_rows() == ("a", "c")
        assert w.meta["isolated"] == ["a", "c"]

    def test_unknown_neighbor_rejected(self, tmp_path):
        # Ids are resolved when the edge list is read; a matrix of another
        # size fails the weight matrix's own shape check.
        panel = panel_of(2, ids=["a", "b"])
        path = tmp_path / "adj.csv"
        path.write_text("country_a,country_b\na,zz\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="unknown country id 'zz' in adjacency"):
            load_adjacency(path, panel)
        with pytest.raises(ValidationError, match="does not match 2 labels"):
            contiguity_weights(np.ones((3, 3), dtype=bool), panel)

    def test_matches_edge_list_oracle(self, synthetic_inputs, synthetic_panel):
        borders = load_adjacency(synthetic_inputs["adjacency"], synthetic_panel)
        w = contiguity_weights(borders, synthetic_panel)
        values, isolated = contiguity_from_edges(synthetic_inputs["adjacency"],
                                                 list(synthetic_panel.ids))
        assert synthetic_panel.n_countries == 168
        assert np.array_equal(w.values, values)
        assert w.meta["isolated"] == isolated
        assert 0 < len(isolated) < 168


class TestDistanceWeights:
    def test_similarity_formula(self):
        # N = 4; w*(i,j) = (N - d_ij) / N before row normalization.
        panel = panel_of(4, ids=["a", "b", "c", "d"])
        d = np.array([[0, 1, 2, 3],
                      [1, 0, 1, 2],
                      [2, 1, 0, 1],
                      [3, 2, 1, 0]], dtype=float)
        w = distance_weights(distance_of(panel, d), panel, kind="dB")
        raw = (4.0 - d) / 4.0
        np.fill_diagonal(raw, 0.0)
        expect = raw / raw.sum(axis=1, keepdims=True)
        assert np.allclose(w.values, expect, atol=1e-15)
        assert w.meta["restricted"] is False

    def test_zero_distance_gives_unit_similarity(self):
        panel = panel_of(3, ids=["a", "b", "c"])
        d = np.array([[0, 0, 3], [0, 0, 3], [3, 3, 0]], dtype=float)
        w = distance_weights(distance_of(panel, d), panel, kind="dB")
        # Pre-normalization similarities for a: (3-0)/3=1 to b, (3-3)/3=0 to c.
        assert row_of(w, "a")[1] == 1.0
        assert row_of(w, "a")[2] == 0.0

    def test_closer_means_heavier(self):
        panel = panel_of(4, ids=["a", "b", "c", "d"])
        d = np.array([[0, 1, 2, 3],
                      [1, 0, 1, 2],
                      [2, 1, 0, 1],
                      [3, 2, 1, 0]], dtype=float)
        w = distance_weights(distance_of(panel, d), panel, kind="dC")
        row = row_of(w, "a")
        assert row[1] > row[2] > row[3] > 0

    def test_sign_mismatch_share(self):
        # 168 countries; two with d = 121 sign mismatches over 122 years
        # would produce w* = (168 - 121)/168 = 47/168 before normalization.
        n = 168
        ids = [f"C{i:03d}" for i in range(n)]
        panel = panel_of(n, t=5, ids=ids)
        d = np.zeros((n, n))
        d[0, 1] = d[1, 0] = 121.0
        w = distance_weights(distance_of(panel, d, metric="hamming"), panel, kind="dC")
        sim = np.full((n, n), 1.0)
        np.fill_diagonal(sim, 0.0)
        sim[0, 1] = sim[1, 0] = 47.0 / 168.0
        expect = sim / sim.sum(axis=1, keepdims=True)
        assert np.allclose(w.values, expect, atol=1e-15)

    def test_distance_above_panel_size_rejected(self):
        panel = panel_of(3, ids=["a", "b", "c"])
        d = np.zeros((3, 3))
        d[0, 1] = d[1, 0] = 5.0
        with pytest.raises(ValidationError, match="exceeds panel size 3"):
            distance_weights(distance_of(panel, d, metric="hamming"), panel, kind="dC")

    def test_rescale_maps_max_to_rho_share(self):
        panel = panel_of(3, ids=["a", "b", "c"])
        d = np.zeros((3, 3))
        d[0, 1] = d[1, 0] = 50.0
        d[0, 2] = d[2, 0] = 25.0
        d[1, 2] = d[2, 1] = 25.0
        w = distance_weights(distance_of(panel, d, metric="hamming"), panel,
                             kind="dC", rescale=True)
        assert w.meta["rescaled"] is True and w.meta["rho"] == 0.95
        # Max distance maps to 0.95 N: similarity (N - 0.95 N)/N = 0.05.
        scaled = d * (3 * 0.95 / 50.0)
        sim = (3.0 - scaled) / 3.0
        np.fill_diagonal(sim, 0.0)
        expect = sim / sim.sum(axis=1, keepdims=True)
        assert np.allclose(w.values, expect, atol=1e-15)

    def test_rescale_too_small_distance_is_numerical_error(self):
        # 0.95 * 3 / 1e-310 overflows, so no share of N can be formed.
        panel = panel_of(3, ids=["a", "b", "c"])
        d = np.full((3, 3), 1e-310)
        np.fill_diagonal(d, 0.0)
        with pytest.raises(NumericalError, match="too small to rescale"):
            distance_weights(distance_of(panel, d), panel, kind="dB", rescale=True)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        panel = panel_of(12)
        raw = rng.random((12, 12)) * 3
        d = np.triu(raw, 1)
        d = d + d.T
        w = distance_weights(distance_of(panel, d), panel, kind="dB")
        assert np.allclose(w.values.sum(axis=1), 1.0, atol=1e-12)

    def test_distance_labels_must_be_in_panel(self):
        panel = panel_of(3, ids=["a", "b", "c"])
        other = make_panel(np.random.default_rng(0).random((2, 8)), ids=["x", "y"])
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        dist = DistanceMatrix(metric="diff", labels=other.ids, values=d)
        with pytest.raises(ValidationError, match="absent from panel"):
            distance_weights(dist, panel, kind="dB")

    def test_subset_distances_leave_zero_rows(self):
        # Countries without distance rows (e.g. null-excluded) get zero rows.
        panel = panel_of(4, ids=["a", "b", "c", "d"])
        dist = DistanceMatrix(metric="slope", labels=("a", "b", "c"),
                              values=np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]],
                                              dtype=float))
        w = distance_weights(dist, panel, kind="dA")
        assert w.zero_rows() == ("d",)
        assert np.all(w.values[:, 3] == 0.0)


class TestClusterRestrictedWeights:
    def test_matches_mask_oracle(self):
        rng = np.random.default_rng(11)
        n = 10
        panel = panel_of(n)
        raw = rng.random((n, n)) * 2
        d = np.triu(raw, 1)
        d = d + d.T
        mapping = {cid: 1 + (i % 3) for i, cid in enumerate(panel.ids[:9])}
        assign = assignment_of(mapping, idio=(panel.ids[9],))
        w = cluster_restricted_weights(distance_of(panel, d), assign, panel, kind="cB")

        sim = (n - d) / n
        np.fill_diagonal(sim, 0.0)
        cluster = np.array([mapping.get(cid, -1) for cid in panel.ids])
        same = (cluster[:, None] == cluster[None, :]) & (cluster[:, None] >= 0)
        np.fill_diagonal(same, False)
        expect = mask_and_normalize(sim, same)
        assert np.allclose(w.values, expect, atol=1e-12)
        assert w.meta["restricted"] is True and w.meta["scheme"] == "B"

    def test_idiosyncratic_and_null_rows_zero(self):
        panel = panel_of(5, ids=["a", "b", "c", "d", "e"])
        d = np.zeros((5, 5))
        dist = distance_of(panel, d)
        assign = assignment_of({"a": 1, "b": 1, "c": 1}, idio=("d",), null=("e",))
        w = cluster_restricted_weights(dist, assign, panel, kind="cB")
        assert set(w.zero_rows()) == {"d", "e"}
        # Clustered countries never weight the excluded ones.
        assert np.all(w.values[:, 3] == 0.0)
        assert np.all(w.values[:, 4] == 0.0)

    def test_two_country_cluster_full_weight(self):
        panel = panel_of(4, ids=["a", "b", "c", "d"])
        d = np.zeros((4, 4))
        d[0, 1] = d[1, 0] = 2.0
        assign = assignment_of({"a": 1, "b": 1, "c": 2, "d": 2})
        w = cluster_restricted_weights(distance_of(panel, d), assign, panel, kind="cB")
        # Only one in-cluster partner: the normalized weight is 1 regardless
        # of the underlying distance.
        assert row_of(w, "a")[1] == 1.0
        assert row_of(w, "b")[0] == 1.0
        assert row_of(w, "c")[3] == 1.0

    def test_missing_distances_rejected(self):
        panel = panel_of(3, ids=["a", "b", "c"])
        dist = DistanceMatrix(metric="slope", labels=("a", "b"),
                              values=np.array([[0.0, 1.0], [1.0, 0.0]]))
        assign = assignment_of({"a": 1, "b": 1, "c": 1})
        with pytest.raises(ValidationError, match="no distances available"):
            cluster_restricted_weights(dist, assign, panel, kind="cA")

    def test_assignment_must_follow_panel_order(self):
        panel = panel_of(3, ids=["c", "b", "a"])
        assign = assignment_of({"a": 1, "b": 1, "c": 1})
        with pytest.raises(ValidationError, match="do not match the panel order"):
            cluster_restricted_weights(distance_of(panel, np.zeros((3, 3))), assign,
                                       panel, kind="cB")

    def test_hamming_restricted(self):
        values = np.array([
            [1, 1, 0, 1],
            [1, 1, 0, 0],
            [0, 0, 1, 1],
            [0, 0, 1, 0],
        ], dtype=float)
        panel = make_panel(np.cumsum(values, axis=1), ids=["a", "b", "c", "d"])
        signs = np.array([list(map(int, s)) for s in ("1101", "1100", "0011", "0010")])
        dist = hamming_distance(signs, panel.ids)
        assign = assignment_of({"a": 1, "b": 1, "c": 2, "d": 2}, scheme="C")
        w = cluster_restricted_weights(dist, assign, panel, kind="cC")
        assert row_of(w, "a")[1] == 1.0
        assert np.all(w.values.sum(axis=1) == 1.0)


def similarity_case(seed, kind, rescale):
    """A panel of K = 2..40 countries, up to two of them without distances,
    their distance matrix and random cluster codes. Unscaled, the largest
    distance is N exactly; rescaled, it spans 1e-300 to 1e300, or is 0 in
    the boundary case."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 41))
    n = k + int(rng.integers(0, 3))
    ids = [f"u{i:02d}" for i in range(n)]
    if kind == "random":
        upper = rng.random((k, k))
    elif kind == "tied":
        upper = rng.integers(0, 4, (k, k)).astype(float)
    else:
        upper = np.zeros((k, k)) if rescale else np.ones((k, k))
    values = np.triu(upper, 1)
    values += values.T
    if values.max() > 0:
        # x / dmax * target keeps the largest distance at the target exactly.
        target = 10.0 ** rng.uniform(-300, 300) if rescale else float(n)
        values = values / values.max() * target
    # Odd seeds take distance labels in another order than the panel's.
    rows = rng.permutation(n)[:k] if seed % 2 else np.arange(k)
    codes = np.full(n, -1)
    codes[rows] = rng.integers(0, 4, k)
    # Renumber the clusters drawn as 1..m, as ClusterAssignment requires.
    codes[codes > 0] = np.unique(codes[codes > 0], return_inverse=True)[1] + 1
    panel = panel_of(n, ids=ids)
    dist = DistanceMatrix(metric="diff", labels=[ids[r] for r in rows], values=values)
    return panel, dist, rows, codes


class TestNoNegativeSimilarity:
    """Unscaled, no distance exceeds N; rescaled, the largest maps to 0.95 N.
    Either way every similarity is >= 0, so a clamp at 0 changes no bit."""

    @pytest.mark.parametrize("rescale", [False, True], ids=["unscaled", "rescaled"])
    @pytest.mark.parametrize("kind", ["random", "tied", "boundary"])
    def test_similarities_nonnegative_and_weights_match_clamped(self, kind, rescale):
        for seed in range(40):
            panel, dist, rows, codes = similarity_case(seed, kind, rescale)
            n = panel.n_countries
            sim, _ = _similarity(dist, panel, rescale)
            assert sim.min() >= 0.0, seed
            w = distance_weights(dist, panel, kind="dB", rescale=rescale)
            assert w.values.tobytes() == clamped_weights(
                dist.values, rows, n, rescale).tobytes(), seed
            assign = ClusterAssignment(scheme="B", ids=panel.ids, codes=codes,
                                       resolved_components=0)
            w = cluster_restricted_weights(dist, assign, panel, kind="cB", rescale=rescale)
            assert w.values.tobytes() == clamped_weights(
                dist.values, rows, n, rescale, codes).tobytes(), seed


class TestExports:
    def test_csv_layout(self, tmp_path):
        panel = panel_of(3, ids=["a", "b", "c"])
        d = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float)
        w = distance_weights(distance_of(panel, d), panel, kind="dB")
        path = tmp_path / "w.csv"
        write_weight_csv(w, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "country,a,b,c"
        cells = lines[1].split(",")
        assert cells[0] == "a"
        assert float(cells[2]) == row_of(w, "a")[1]

    def test_meta_json(self, tmp_path):
        panel = panel_of(3, ids=["a", "b", "c"])
        adj = borders_of(panel.ids, [("a", "b")])
        w = contiguity_weights(adj, panel)
        path = tmp_path / "w.json"
        write_weight_meta(w, path)
        payload = json.loads(path.read_text())
        assert payload["kind"] == "NN"
        assert payload["n"] == 3
        assert payload["zero_rows"] == ["c"]
        assert payload["isolated"] == ["c"]
