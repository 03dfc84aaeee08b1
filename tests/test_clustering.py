"""Agglomeration order, the dendrogram cut, assignments, and cross-tabulations."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.cluster.hierarchy import linkage
from scipy.spatial.distance import squareform

from starclust import (ClusterAssignment, ContingencyTable, Dendrogram,
                       DistanceMatrix, Merge, ValidationError, agglomerate,
                       cluster_summary, cross_tab, cut, hamming_distance,
                       relabel_by_feature, zone_cross_tab)
from starclust.clustering import (IDIOSYNCRATIC, NULL, assignment_to_json,
                                  dendrogram_to_json, write_contingency_csv)

from _oracles import (copying_agglomerate, dendrogram_leafset_merges,
                      lance_williams_linkage, naive_linkage)
from conftest import assignment_of, code_of, make_panel


def square(values, labels, metric="diff"):
    arr = np.asarray(values, dtype=float)
    return DistanceMatrix(metric=metric, labels=tuple(labels), values=arr)


def random_distance(rng, k, integer=False):
    if integer:
        raw = rng.integers(1, 6, size=(k, k)).astype(float)
        values = np.minimum(raw, raw.T)
    else:
        raw = rng.random((k, k))
        values = (raw + raw.T) / 2.0
    np.fill_diagonal(values, 0.0)
    labels = tuple(f"L{i:02d}" for i in range(k))
    return DistanceMatrix(metric="diff", labels=labels, values=values)


def shuffled_labels(rng, k):
    """Labels whose sorted order differs from the row order."""
    return tuple(f"L{i:03d}" for i in rng.permutation(k))


def sign_string_distance(rng, k, length):
    """Hamming matrix of k random sign strings: integer-valued, tie-heavy."""
    bits = rng.integers(0, 2, size=(k, length)).astype(np.uint8)
    return hamming_distance(bits, shuffled_labels(rng, k))


def ultrametric_sign_distance(rng, groups=3, subgroups=3):
    """Hamming matrix of repeated sign strings at distance 0, 2 or 4.

    Copies of one string are 0 apart, strings of one group 2 and strings of
    different groups 4. Every merge joins parts equidistant from the rest, so
    each average is an exact integer and each tie is exact, both for the
    Lance-Williams recurrence and for a mean over raw distances.
    """
    strings = []
    for g in range(groups):
        for sub in range(subgroups):
            bits = np.zeros(groups + groups * subgroups, dtype=np.uint8)
            bits[g] = 1
            bits[groups + g * subgroups + sub] = 1
            strings += [bits] * int(rng.integers(1, 4))
    return hamming_distance(np.array(strings), shuffled_labels(rng, len(strings)))


def same_sets(got, want):
    """Merge sequences agree leaf set for leaf set and height for height."""
    assert len(got) == len(want)
    for (gl, gr, gh), (wl, wr, wh) in zip(got, want):
        assert {gl, gr} == {wl, wr}
        assert gh == wh


def label_merges(dendro):
    out = []
    for left, right, height in dendrogram_leafset_merges(dendro):
        sets = sorted([frozenset(dendro.leaf_labels[i] for i in left),
                       frozenset(dendro.leaf_labels[i] for i in right)],
                      key=sorted)
        out.append((sets[0], sets[1], height))
    return out


class TestAgglomerate:
    def test_three_point_merge_sequence(self):
        # b and c sit at distance 1; a is 9 from b and 11 from c.
        dist = square([[0, 9, 11], [9, 0, 1], [11, 1, 0]], ["a", "b", "c"])
        dendro = agglomerate(dist)
        assert dendro.n_leaves == 3
        first, second = dendro.merges
        assert (first.left, first.right, first.height, first.size) == (1, 2, 1.0, 2)
        # Average linkage: d(a, {b,c}) = (9 + 11) / 2 = 10.
        assert (second.left, second.right, second.height, second.size) == (0, 3, 10.0, 3)

    def test_single_item_rejected(self):
        dist = square([[0.0]], ["only"])
        with pytest.raises(ValidationError, match="at least 2"):
            agglomerate(dist)

    def test_tie_break_prefers_smallest_label_pair(self):
        # All pairs at distance 1; labels deliberately reverse-sorted.
        values = np.ones((4, 4)) - np.eye(4)
        dist = square(values, ["d", "c", "b", "a"])
        dendro = agglomerate(dist)
        # First merge joins the clusters whose representatives are a and b,
        # i.e. leaves 3 and 2, with the smaller representative on the left.
        assert (dendro.merges[0].left, dendro.merges[0].right) == (3, 2)
        # Next pair by representative labels is (a-cluster, c) = (node 4, leaf 1).
        assert (dendro.merges[1].left, dendro.merges[1].right) == (4, 1)
        assert (dendro.merges[2].left, dendro.merges[2].right) == (5, 0)
        assert np.all(dendro.heights() == 1.0)

    def test_merged_distance_rounding_below_cached_neighbour(self):
        # a is 0.7 from everyone; c joins {d1, d2} at 0.2. The merged distance
        # (1 * 0.7 + 2 * 0.7) / 3 rounds to just below 0.7, so a's nearest
        # neighbour moves from b to the new cluster although neither b nor
        # the merged pair was a's cached neighbour.
        values = np.full((5, 5), 5.0)
        values[0, :] = values[:, 0] = 0.7
        values[2, 3:] = values[3:, 2] = 0.2
        values[3, 4] = values[4, 3] = 0.1
        np.fill_diagonal(values, 0.0)
        dendro = agglomerate(square(values, ["a", "b", "c", "d1", "d2"]))
        below = (1 * 0.7 + 2 * 0.7) / 3
        assert below < 0.7
        assert [(m.left, m.right, m.height, m.size) for m in dendro.merges] == [
            (3, 4, 0.1, 2), (2, 5, 0.2, 3), (0, 6, below, 4),
            (7, 1, (1 * 0.7 + 3 * 5.0) / 4, 5)]

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_naive_linkage(self, seed):
        rng = np.random.default_rng(seed)
        dist = random_distance(rng, 12)
        got = dendrogram_leafset_merges(agglomerate(dist))
        want = naive_linkage(dist.values, list(dist.labels))
        assert len(got) == len(want) == 11
        for (gl, gr, gh), (wl, wr, wh) in zip(got, want):
            assert {gl, gr} == {wl, wr}
            assert gh == pytest.approx(wh, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_heights_nondecreasing(self, seed):
        rng = np.random.default_rng(1000 + seed)
        dist = random_distance(rng, 10, integer=(seed % 2 == 0))
        heights = agglomerate(dist).heights()
        assert np.all(np.diff(heights) >= 0)

    @pytest.mark.parametrize("seed", range(20))
    def test_height_equals_mean_of_raw_distances(self, seed):
        # UPGMA invariant: every merge height is the plain average of the raw
        # pairwise distances between the two merged leaf sets.
        rng = np.random.default_rng(2000 + seed)
        dist = random_distance(rng, 9)
        dendro = agglomerate(dist)
        for left, right, height in dendrogram_leafset_merges(dendro):
            raw = [dist.values[i, j] for i in left for j in right]
            assert height == pytest.approx(float(np.mean(raw)), rel=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), perm_seed=st.integers(0, 10_000))
    def test_permutation_invariance(self, seed, perm_seed):
        rng = np.random.default_rng(seed)
        dist = random_distance(rng, 7, integer=True)
        perm = np.random.default_rng(perm_seed).permutation(7)
        permuted = DistanceMatrix(metric=dist.metric,
                                  labels=tuple(dist.labels[i] for i in perm),
                                  values=dist.values[np.ix_(perm, perm)])
        base = agglomerate(dist)
        other = agglomerate(permuted)
        assert np.array_equal(base.heights(), other.heights())
        assert label_merges(base) == label_merges(other)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000), perm_seed=st.integers(0, 10_000))
    def test_permutation_invariance_wide_hamming(self, seed, perm_seed):
        # 240 sign strings of length 10: almost every merge height is tied.
        dist = sign_string_distance(np.random.default_rng(seed), 240, 10)
        perm = np.random.default_rng(perm_seed).permutation(240)
        permuted = DistanceMatrix(metric=dist.metric,
                                  labels=tuple(dist.labels[i] for i in perm),
                                  values=dist.values[np.ix_(perm, perm)])
        base = agglomerate(dist)
        other = agglomerate(permuted)
        assert np.array_equal(base.heights(), other.heights())
        assert label_merges(base) == label_merges(other)


class TestLinkageInPlace:
    """`agglomerate(dist, consume=True)` against the earlier linkage, which
    always worked on a reordered copy of the matrix."""

    @staticmethod
    def sorted_copy(dist):
        order = sorted(range(dist.size), key=dist.labels.__getitem__)
        return DistanceMatrix(metric=dist.metric,
                              labels=tuple(dist.labels[i] for i in order),
                              values=dist.values[np.ix_(order, order)])

    @pytest.mark.parametrize("seed", range(12))
    def test_tie_heavy_hamming_linked_in_place(self, seed):
        rng = np.random.default_rng(seed)
        dist = self.sorted_copy(sign_string_distance(rng, int(rng.integers(2, 300)),
                                                     int(rng.integers(1, 12))))
        expected = copying_agglomerate(dist)
        original = dist.values.copy()
        assert agglomerate(dist, consume=True) == expected
        # The sorted matrix was the working matrix, so its values are gone.
        assert not np.array_equal(dist.values, original)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_matrix_linked_in_place(self, seed):
        dist = random_distance(np.random.default_rng(seed), 60)
        expected = copying_agglomerate(dist)
        assert agglomerate(dist, consume=True) == expected

    @pytest.mark.parametrize("consume", [False, True])
    def test_reverse_sorted_labels_fall_back_to_a_copy(self, consume):
        rng = np.random.default_rng(4)
        bits = rng.integers(0, 2, (40, 6)).astype(np.uint8)
        dist = hamming_distance(bits, [f"L{i:02d}" for i in reversed(range(40))])
        original = dist.values.copy()
        assert agglomerate(dist, consume=consume) == copying_agglomerate(dist)
        assert np.array_equal(dist.values, original)
        assert not dist.values.flags.writeable

    def test_borrowed_view_is_copied(self):
        # A matrix that is a view of the caller's array is never linked in place.
        raw = random_distance(np.random.default_rng(1), 9).values.copy()
        dist = DistanceMatrix(metric="diff", labels=[f"L{i}" for i in range(9)],
                              values=raw[:, :])
        expected = copying_agglomerate(dist)
        assert agglomerate(dist, consume=True) == expected
        assert np.array_equal(dist.values, raw)

    def test_unconsumed_matrix_unchanged(self):
        dist = random_distance(np.random.default_rng(2), 30)
        original = dist.values.copy()
        assert agglomerate(dist) == copying_agglomerate(dist)
        assert np.array_equal(dist.values, original)
        assert not dist.values.flags.writeable


class TestLinkageAtTiesAndScale:
    @pytest.mark.parametrize("seed", range(20))
    def test_dense_exact_ties_match_naive_linkage(self, seed):
        dist = ultrametric_sign_distance(np.random.default_rng(seed))
        got = dendrogram_leafset_merges(agglomerate(dist))
        same_sets(got, naive_linkage(dist.values, list(dist.labels)))

    @pytest.mark.parametrize("seed", range(30))
    def test_dense_ties_match_lance_williams_rescan(self, seed):
        # Short random sign strings tie at fractional heights too, where a
        # mean over raw distances may differ from the recurrence in the last
        # bit; the rescan shares the package's arithmetic, so it must agree
        # exactly.
        rng = np.random.default_rng(4000 + seed)
        dist = sign_string_distance(rng, int(rng.integers(10, 40)),
                                    int(rng.integers(2, 7)))
        got = dendrogram_leafset_merges(agglomerate(dist))
        same_sets(got, lance_williams_linkage(dist.values, list(dist.labels)))

    @pytest.mark.parametrize("seed", range(10))
    def test_chaining_hub(self, seed):
        # Every row's nearest neighbour is the hub, and then the growing hub
        # cluster, so most cached neighbours go stale at each merge.
        rng = np.random.default_rng(5000 + seed)
        k = 30
        raw = 10.0 + rng.random((k, k))
        values = (raw + raw.T) / 2.0
        hub = int(rng.integers(k))
        values[hub, :] = values[:, hub] = 1.0 + rng.random(k)
        np.fill_diagonal(values, 0.0)
        dist = DistanceMatrix(metric="diff", labels=shuffled_labels(rng, k),
                              values=values)
        got = dendrogram_leafset_merges(agglomerate(dist))
        want = naive_linkage(values, list(dist.labels))
        assert len(got) == len(want) == k - 1
        for (gl, gr, gh), (wl, wr, wh) in zip(got, want):
            assert {gl, gr} == {wl, wr}
            assert gh == pytest.approx(wh, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_tied_chaining_hub_matches_lance_williams_rescan(self, seed):
        rng = np.random.default_rng(6000 + seed)
        k = 40
        raw = rng.integers(5, 8, size=(k, k)).astype(float)
        values = np.minimum(raw, raw.T)
        values[0, :] = values[:, 0] = 1.0
        np.fill_diagonal(values, 0.0)
        dist = DistanceMatrix(metric="hamming", labels=shuffled_labels(rng, k),
                              values=values)
        got = dendrogram_leafset_merges(agglomerate(dist))
        same_sets(got, lance_williams_linkage(values, list(dist.labels)))

    @pytest.mark.parametrize("seed", range(3))
    def test_heights_match_scipy_average_linkage(self, seed):
        rng = np.random.default_rng(7000 + seed)
        dist = random_distance(rng, 400)
        reference = linkage(squareform(dist.values, checks=False), method="average")
        assert np.allclose(agglomerate(dist).heights(), np.sort(reference[:, 2]),
                           rtol=1e-12, atol=0.0)


class TestDendrogram:
    def test_merge_count_validated(self):
        with pytest.raises(ValidationError, match="expected 2 merges"):
            Dendrogram(leaf_labels=("a", "b", "c"),
                       merges=(Merge(0, 1, 1.0, 2),))

    def test_components_at_bounds(self):
        dist = square([[0, 1, 2], [1, 0, 3], [2, 3, 0]], ["a", "b", "c"])
        dendro = agglomerate(dist)
        with pytest.raises(ValidationError, match="outside"):
            dendro.components_at(0)
        with pytest.raises(ValidationError, match="outside"):
            dendro.components_at(4)
        assert dendro.components_at(3) == [[0], [1], [2]]
        assert dendro.components_at(1) == [[0, 1, 2]]

    @pytest.mark.parametrize("seed", range(10))
    def test_finer_cuts_refine_coarser_ones(self, seed):
        rng = np.random.default_rng(3000 + seed)
        dendro = agglomerate(random_distance(rng, 11))
        for coarse in range(1, 11):
            big = [set(c) for c in dendro.components_at(coarse)]
            for fine in range(coarse + 1, 12):
                for comp in dendro.components_at(fine):
                    assert any(set(comp) <= parent for parent in big)


class TestCutRules:
    def grouped(self):
        # Two tight triples far apart plus one outlier.
        labels = ["a1", "a2", "a3", "b1", "b2", "b3", "x"]
        values = np.full((7, 7), 50.0)
        for block in ([0, 1, 2], [3, 4, 5]):
            for i in block:
                for j in block:
                    values[i, j] = 0.0 if i == j else 1.0
        values[6, :] = 60.0
        values[:, 6] = 60.0
        values[6, 6] = 0.0
        return square(values, labels)

    def test_count_rule_single_cluster(self):
        # k = 1 resolves to the root: its gap is infinite, and ties go to
        # the coarsest cut.
        dendro = agglomerate(self.grouped())
        assign = cut(dendro, 1, scheme="B", ids=dendro.leaf_labels)
        assert assign.n_clusters == 1
        assert set(assign.members(1)) == set(self.grouped().labels)
        assert assign.members(IDIOSYNCRATIC) == []
        assert assign.resolved_components == 1

    def test_main_count_rule(self):
        dendro = agglomerate(self.grouped())
        assign = cut(dendro, 2, scheme="B", ids=dendro.leaf_labels)
        assert assign.n_clusters == 2
        assert set(assign.members(1)) == {"a1", "a2", "a3"}
        assert set(assign.members(2)) == {"b1", "b2", "b3"}
        assert assign.members(IDIOSYNCRATIC) == ["x"]
        assert assign.resolved_components == 3

    def test_main_count_unreachable(self):
        dendro = agglomerate(self.grouped())
        with pytest.raises(ValidationError, match="no dendrogram cut produces exactly 5"):
            cut(dendro, 5, scheme="B", ids=dendro.leaf_labels)

    def test_clusters_numbered_by_size_then_label(self):
        # Sizes 3 and 3 tie; the cluster holding the smallest label comes first.
        dendro = agglomerate(self.grouped())
        assign = cut(dendro, 2, scheme="B", ids=dendro.leaf_labels)
        assert code_of(assign, "a1") == 1
        assert code_of(assign, "b1") == 2

    def test_null_exclusions_pass_through(self):
        dendro = agglomerate(self.grouped())
        ids = (*self.grouped().labels, "zz")
        assign = cut(dendro, 2, scheme="A", ids=ids)
        assert assign.scheme == "A"
        assert assign.ids == ids
        assert assign.members(NULL) == ["zz"]
        names, index = assign.categories()
        assert names[index[-1]] == "null"

    def test_leaves_must_be_among_ids(self):
        dendro = agglomerate(self.grouped())
        with pytest.raises(ValidationError, match="leaves absent from ids"):
            cut(dendro, 2, scheme="B", ids=("a1", "a2"))

    def test_rule_validation(self):
        dendro = agglomerate(self.grouped())
        with pytest.raises(ValidationError, match="positive k"):
            cut(dendro, 0, scheme="B", ids=dendro.leaf_labels)


class TestClusterAssignment:
    def make(self, **kw):
        base = dict(scheme="B", ids=("a", "b", "c", "d", "e", "f"),
                    codes=(1, 1, 2, 2, IDIOSYNCRATIC, NULL), resolved_components=3)
        base.update(kw)
        return ClusterAssignment(**base)

    def test_categories_ordered_and_nonempty(self):
        assign = self.make()
        names, _ = assign.categories()
        assert names == ["1", "2", "idiosyncratic", "null"]
        plain = self.make(ids=("a", "b", "c", "d"), codes=(1, 1, 2, 2))
        assert plain.categories()[0] == ["1", "2"]

    def test_category_of(self):
        names, index = self.make(codes=(2, 1, NULL, 2, IDIOSYNCRATIC, 1)).categories()
        assert [names[i] for i in index] == ["2", "1", "null", "2", "idiosyncratic", "1"]
        assert names == ["1", "2", "idiosyncratic", "null"]

    def test_codes_must_match_ids(self):
        with pytest.raises(ValidationError, match="one code >= -1 for each of 6 ids"):
            self.make(codes=(1, 1, 2, 2, 0))
        with pytest.raises(ValidationError, match="one code >= -1 for each of 6 ids"):
            self.make(codes=(1, 1, 2, 2, 0, -2))

    def test_indices_must_be_contiguous(self):
        with pytest.raises(ValidationError, match="contiguous"):
            self.make(codes=(1, 3, 3, 0, 0, 0))

    def test_members_sorted(self):
        assign = self.make(ids=("b", "a", "c", "d"), codes=(1, 1, 2, 2))
        assert assign.members(1) == ["a", "b"]

    def test_codes_read_only(self):
        with pytest.raises(ValueError):
            self.make().codes[0] = 2


class TestRelabelByFeature:
    def test_descending_by_mean(self):
        assign = assignment_of({"a": 1, "b": 1, "c": 2}, scheme="A")
        out = relabel_by_feature(assign, np.array([0.1, 0.3, 0.9]))
        assert out.codes.tolist() == [2, 2, 1]

    def test_ties_keep_the_cut_order(self):
        assign = assignment_of({"a": 1, "b": 2, "c": 3}, scheme="A")
        out = relabel_by_feature(assign, np.array([0.5, 0.9, 0.5]))
        assert out.codes.tolist() == [2, 1, 3]

    def test_untouched_metadata(self):
        assign = ClusterAssignment(scheme="A", ids=("a", "b", "i", "n"),
                                   codes=(1, 2, IDIOSYNCRATIC, NULL), resolved_components=4)
        out = relabel_by_feature(assign, np.array([0.0, 1.0, 5.0, 9.0]))
        assert out.members(IDIOSYNCRATIC) == ["i"]
        assert out.members(NULL) == ["n"]
        assert out.codes.tolist() == [2, 1, IDIOSYNCRATIC, NULL]
        assert out.resolved_components == 4


class TestCrossTab:
    def test_self_cross_is_diagonal(self):
        rng = np.random.default_rng(0)
        panel = make_panel(rng.random((5, 8)), ids=["a", "b", "c", "d", "e"])
        assign = assignment_of({"a": 1, "b": 1, "c": 2, "d": 2}, idio=("e",), scheme="B")
        table = cross_tab(assign, assign, panel)
        assert table.row_labels == table.col_labels == ("1", "2", "idiosyncratic")
        assert np.array_equal(table.counts, np.diag([2, 2, 1]))
        assert table.total == 5

    def test_two_way_counts(self):
        rng = np.random.default_rng(1)
        ids = ["a", "b", "c", "d", "e", "f"]
        panel = make_panel(rng.random((6, 8)), ids=ids)
        a = assignment_of({"a": 1, "b": 1, "c": 1, "d": 2, "e": 2}, null=("f",), scheme="A")
        b = assignment_of({"a": 1, "b": 1, "d": 1, "c": 2, "e": 2, "f": 2}, scheme="B")
        table = cross_tab(a, b, panel)
        assert table.row_labels == ("1", "2", "null")
        assert table.col_labels == ("1", "2")
        assert np.array_equal(table.counts, [[2, 1], [1, 1], [0, 1]])
        assert np.array_equal(table.counts.sum(axis=1), [3, 2, 1])
        assert np.array_equal(table.col_margins(), [3, 3])

    def test_coverage_enforced(self):
        rng = np.random.default_rng(2)
        panel = make_panel(rng.random((3, 8)), ids=["a", "b", "c"])
        partial = assignment_of({"a": 1, "b": 1}, scheme="A")
        full = assignment_of({"a": 1, "b": 1, "c": 1}, scheme="B")
        with pytest.raises(ValidationError, match="first assignment"):
            cross_tab(partial, full, panel)
        with pytest.raises(ValidationError, match="second assignment"):
            cross_tab(full, partial, panel)

    def test_panel_order_enforced(self):
        rng = np.random.default_rng(2)
        panel = make_panel(rng.random((3, 8)), ids=["c", "b", "a"])
        assign = assignment_of({"a": 1, "b": 1, "c": 1}, scheme="B")
        with pytest.raises(ValidationError, match="in its order"):
            cross_tab(assign, assign, panel)


class TestZoneCrossTab:
    def test_counts_and_zone_order(self):
        rng = np.random.default_rng(3)
        ids = ["a", "b", "c", "d"]
        zones = ["Asia", "Europe", "Europe", "Africa"]
        panel = make_panel(rng.random((4, 8)), ids=ids, zones=zones)
        assign = assignment_of({"a": 1, "b": 1, "c": 2}, idio=("d",), scheme="A")
        table = zone_cross_tab(assign, panel)
        # Canonical order puts Europe before Asia before Africa.
        assert table.row_labels == ("Europe", "Asia", "Africa")
        assert table.col_labels == ("1", "2", "idiosyncratic")
        assert np.array_equal(table.counts, [[1, 1, 0], [1, 0, 0], [0, 0, 1]])

    def test_missing_zone_metadata(self):
        rng = np.random.default_rng(4)
        panel = make_panel(rng.random((2, 8)), ids=["a", "b"])
        assign = assignment_of({"a": 1, "b": 1}, scheme="A")
        with pytest.raises(ValidationError, match="zone metadata missing"):
            zone_cross_tab(assign, panel)

    def test_unknown_zone_rejected(self):
        # Only the loaders check zones; a panel built in code may hold any string.
        rng = np.random.default_rng(4)
        panel = make_panel(rng.random((2, 8)), ids=["a", "b"], zones=["Asia", "Atlantis"])
        assign = assignment_of({"a": 1, "b": 1}, scheme="A")
        with pytest.raises(ValidationError,
                           match=r"^zone metadata missing or unknown for: \['b'\]$"):
            zone_cross_tab(assign, panel)


class TestClusterSummary:
    def test_scalar_features(self):
        assign = assignment_of({"a": 1, "b": 1, "c": 2}, scheme="A")
        stats = cluster_summary(assign, np.array([1.0, 3.0, 5.0]))
        assert stats[1].mean == 2.0
        assert stats[1].sd == pytest.approx(np.std([1.0, 3.0], ddof=1))
        assert stats[1].n_countries == 2 and stats[1].n_values == 2
        assert not stats[1].degenerate
        assert stats[2].degenerate and stats[2].sd == 0.0 and stats[2].n_values == 1

    def test_vector_features_pooled(self):
        assign = assignment_of({"a": 1, "b": 1}, idio=("c",), scheme="B")
        feats = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [9.0, 9.0, 9.0]])
        stats = cluster_summary(assign, feats)
        assert list(stats) == [1]
        assert stats[1].n_countries == 2
        assert stats[1].n_values == 6
        assert stats[1].mean == 3.5
        assert stats[1].sd == pytest.approx(np.std([1, 2, 3, 4, 5, 6], ddof=1))

    def test_missing_feature(self):
        assign = assignment_of({"a": 1, "b": 1}, scheme="B")
        with pytest.raises(ValidationError, match="1 feature rows for 2 ids"):
            cluster_summary(assign, np.array([1.0]))


class TestLoopParity:
    """The array code over `codes` against per-country loops over the members."""

    @staticmethod
    def random_assignment(rng, ids):
        k = int(rng.integers(1, 5))
        codes = rng.integers(NULL, k + 1, size=len(ids))
        codes[:k] = np.arange(1, k + 1)  # every cluster nonempty
        rng.shuffle(codes)
        return ClusterAssignment(scheme="B", ids=ids, codes=codes, resolved_components=k)

    @staticmethod
    def category(assign, cid):
        code = code_of(assign, cid)
        return {IDIOSYNCRATIC: "idiosyncratic", NULL: "null"}.get(code, str(code))

    def test_summary_relabel_and_cross_tab(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            ids = [f"c{i:02d}" for i in range(int(rng.integers(5, 30)))]
            a, b = self.random_assignment(rng, ids), self.random_assignment(rng, ids)
            slopes = rng.normal(size=len(ids))
            diffs = rng.normal(size=(len(ids), 3))
            for features in (slopes, diffs):
                by_id = dict(zip(ids, features))
                stats = cluster_summary(a, features)
                for c in range(1, a.n_clusters + 1):
                    pooled = np.array([v for cid in a.members(c)
                                       for v in np.atleast_1d(by_id[cid]).tolist()])
                    assert (stats[c].n_values, stats[c].mean) == (pooled.size, pooled.mean())
                    assert stats[c].sd == (np.std(pooled, ddof=1) if pooled.size > 1 else 0.0)

            means = {c: np.mean([slopes[ids.index(cid)] for cid in a.members(c)])
                     for c in range(1, a.n_clusters + 1)}
            order = sorted(means, key=lambda c: -means[c])
            relabeled = relabel_by_feature(a, slopes)
            for cid in ids:
                old = code_of(a, cid)
                assert code_of(relabeled, cid) == (order.index(old) + 1 if old > 0 else old)

            table = cross_tab(a, b, make_panel(rng.random((len(ids), 4)), ids=ids))
            pairs = [(self.category(a, cid), self.category(b, cid)) for cid in ids]
            assert [[pairs.count((r, c)) for c in table.col_labels]
                    for r in table.row_labels] == table.counts.tolist()
            assert table.total == len(ids)


class TestExports:
    def test_dendrogram_json(self, tmp_path):
        dist = square([[0, 9, 11], [9, 0, 1], [11, 1, 0]], ["a", "b", "c"])
        path = tmp_path / "dendro.json"
        dendrogram_to_json(agglomerate(dist), path)
        payload = json.loads(path.read_text())
        assert payload["leaves"] == ["a", "b", "c"]
        assert payload["merges"][0] == {"left": 1, "right": 2, "height": 1.0, "size": 2}

    def test_assignment_json(self, tmp_path):
        assign = assignment_of({"a": 1, "b": 1}, idio=("c",), null=("d",), scheme="A")
        path = tmp_path / "assign.json"
        assignment_to_json(assign, path)
        payload = json.loads(path.read_text())
        assert payload["labels"] == {"a": 1, "b": 1}
        assert payload["idiosyncratic"] == ["c"]
        assert payload["null_excluded"] == ["d"]
        assert payload["cut"] == {"kind": "main_count", "k": 1, "height": None,
                                  "min_size": 2, "resolved_components": 2}

    def test_contingency_csv_margins(self, tmp_path):
        table = ContingencyTable(row_labels=("r1", "r2"), col_labels=("c1", "c2"),
                                 counts=np.array([[1, 2], [3, 4]]))
        path = tmp_path / "tab.csv"
        write_contingency_csv(table, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "group\\group,c1,c2,total"
        assert lines[1] == "r1,1,2,3"
        assert lines[2] == "r2,3,4,7"
        assert lines[3] == "total,4,6,10"
