"""Slope, differenced-series, and Hamming distance matrices."""
from __future__ import annotations

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starclust import (DistanceMatrix, ValidationError, diff_distance,
                       fit_panel_trends, hamming_distance, sign_distance,
                       sign_sequence, slope_distance)
from starclust.trends import panel_differences

from _oracles import (broadcast_slope_distance, brute_diff_distance,
                      brute_hamming_distance, brute_slope_distance,
                      square_diff_distance, two_product_hamming_distance)
from conftest import make_panel


class TestDistanceMatrixType:
    def test_asymmetry_rejected(self):
        values = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValidationError, match="symmetric"):
            DistanceMatrix(metric="slope", labels=("a", "b"), values=values)

    def test_nonzero_diagonal_rejected(self):
        values = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValidationError, match="diagonal"):
            DistanceMatrix(metric="slope", labels=("a", "b"), values=values)

    def test_negative_entries_rejected(self):
        values = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValidationError, match="negative"):
            DistanceMatrix(metric="slope", labels=("a", "b"), values=values)

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValidationError, match="metric"):
            DistanceMatrix(metric="cosine", labels=("a",), values=np.zeros((1, 1)))

    # Each case breaks several checks at once; the message is the first of
    # non-finite, negative, diagonal, symmetric that fails.
    @pytest.mark.parametrize("values, message", [
        ([[np.nan, 1.0], [1.0, 0.0]], "contains non-finite entries"),
        ([[0.0, -np.inf], [1.0, 0.0]], "contains non-finite entries"),
        ([[0.0, np.inf], [-1.0, 0.0]], "contains non-finite entries"),
        ([[0.0, -1.0], [2.0, 0.0]], "contains negative entries"),
        ([[1.0, -1.0], [-1.0, 0.0]], "contains negative entries"),
        ([[1.0, 1.0], [2.0, 0.0]], "diagonal must be exactly zero"),
    ], ids=["nan-on-diagonal", "minus-inf", "plus-inf-and-negative",
            "asymmetric-and-negative", "negative-and-diagonal", "diagonal-and-asymmetric"])
    def test_first_failing_check_names_the_fault(self, values, message):
        with pytest.raises(ValidationError, match=f"^distance matrix {message}$"):
            DistanceMatrix(metric="slope", labels=("a", "b"), values=np.array(values))

    @pytest.mark.parametrize("k", [3, 64, 65, 130])
    def test_asymmetry_found_in_any_row_block(self, k):
        # Symmetry is compared a block of rows at a time; put the one
        # mismatched pair in the last block.
        values = np.ones((k, k)) - np.eye(k)
        values[k - 1, k - 2] = 2.0
        with pytest.raises(ValidationError, match="exactly symmetric"):
            DistanceMatrix(metric="diff", labels=[f"c{i}" for i in range(k)], values=values)

    def test_empty_matrix_accepted(self):
        assert DistanceMatrix(metric="slope", labels=(), values=np.zeros((0, 0))).size == 0

    def test_checked_matrix_is_read_only_and_not_copied(self):
        values = np.array([[0.0, 1.0], [1.0, 0.0]])
        dist = DistanceMatrix(metric="diff", labels=("a", "b"), values=values)
        assert dist.values is values
        assert not dist.values.flags.writeable


class TestSlopeDistance:
    def test_top_cluster_mean_gap(self):
        dist = slope_distance(np.array([0.016, 0.012]), ["a", "b"])
        assert math.isclose(dist.values[0, 1], 0.004, abs_tol=1e-15)

    def test_equal_slopes_zero(self):
        dist = slope_distance(np.array([0.01, 0.01]), ["a", "b"])
        assert dist.values[0, 1] == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        slopes = rng.normal(0, 0.02, 9)
        dist = slope_distance(slopes, [f"c{i}" for i in range(9)])
        assert np.allclose(dist.values, brute_slope_distance(slopes.tolist()), atol=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=-1, max_value=1, allow_nan=False),
                    min_size=3, max_size=8))
    def test_triangle_inequality_and_symmetry(self, slopes):
        ids = [f"c{i}" for i in range(len(slopes))]
        dist = slope_distance(np.array(slopes), ids)
        values = dist.values
        assert np.array_equal(values, values.T)
        n = len(slopes)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert values[i, j] <= values[i, k] + values[k, j] + 1e-12


class TestDiffDistance:
    def test_identical_series_zero(self):
        panel = make_panel(np.vstack([np.arange(5.0), np.arange(5.0)]))
        assert diff_distance(panel).values[0, 1] == 0.0

    def test_hand_example_sqrt_two(self):
        # diffs (1,1) vs (0,0): gap vector (1,1), length sqrt(2)
        panel = make_panel(np.array([[0.0, 1.0, 2.0], [5.0, 5.0, 5.0]]))
        assert math.isclose(diff_distance(panel).values[0, 1], math.sqrt(2),
                            rel_tol=1e-15)

    def test_matches_naive_loop(self, toy_panel):
        dist = diff_distance(toy_panel)
        ref = brute_diff_distance(toy_panel.values)
        assert np.allclose(dist.values, ref, atol=1e-12)

    def test_invariant_under_common_level_shift(self, toy_panel):
        base = diff_distance(toy_panel).values
        shifted = make_panel(toy_panel.values + 5.0,
                             first_year=toy_panel.years[0])
        assert np.allclose(diff_distance(shifted).values, base, atol=1e-12)

    def test_exact_symmetry_on_random_data(self):
        rng = np.random.default_rng(8)
        panel = make_panel(rng.normal(10, 4, (12, 30)))
        values = diff_distance(panel).values
        assert np.array_equal(values, values.T)

    def test_row_blocks_match_whole_tensor_and_brute_force(self):
        # Each row meets a shorter tail of later rows in the reused gap buffer.
        k = 7
        rng = np.random.default_rng(9)
        panel = make_panel(rng.normal(10, 4, (k, 16)))
        values = diff_distance(panel).values
        assert np.allclose(values, brute_diff_distance(panel.values),
                           rtol=1e-12, atol=1e-12)
        diffs = panel_differences(panel)
        gaps = diffs[:, None, :] - diffs[None, :, :]
        whole = np.sqrt(np.einsum("ijt,ijt->ij", gaps, gaps))
        np.fill_diagonal(whole, 0.0)
        assert np.array_equal(values, whole)

    @pytest.mark.parametrize("n_years", [2, 30, 121, 122])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 7, 69, 168, 800])
    def test_upper_triangle_bitwise_equal_to_square(self, k, n_years):
        # 32-row blocks of the oracle leave a partial last block at K = 69 and 800.
        rng = np.random.default_rng(k * 1000 + n_years)
        panel = make_panel(rng.normal(15, 5, (k, n_years)))
        assert np.array_equal(diff_distance(panel).values, square_diff_distance(panel))

    def test_peak_allocation_at_k800(self):
        # A whole-square 32-row block alone took 24.8 MB; the matrix is 5.1 MB.
        panel = make_panel(np.random.default_rng(5).normal(15, 5, (800, 122)))
        tracemalloc.start()
        try:
            diff_distance(panel)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20


class TestHammingDistance:
    def test_identical_strings(self):
        s = np.array([1, 0, 1], dtype=np.uint8)
        assert hamming_distance(np.array([s, s]), ["a", "b"]).values[0, 1] == 0.0

    def test_complementary_strings_attain_maximum(self):
        ones = np.ones(121, dtype=np.uint8)
        zeros = np.zeros(121, dtype=np.uint8)
        assert hamming_distance(np.array([ones, zeros]), ["a", "b"]).values[0, 1] == 121.0

    @pytest.mark.parametrize("shape", [(6,), (3, 6), (1, 2, 6)], ids=["1-D", "rows", "3-D"])
    def test_one_row_per_id_required(self, shape):
        with pytest.raises(ValidationError, match=re.escape(f"got shape {shape} for 2 ids")):
            hamming_distance(np.zeros(shape, dtype=np.uint8), ["a", "b"])

    def test_matches_bit_counting_oracle(self):
        rng = np.random.default_rng(3)
        values = rng.normal(10, 1, (8, 25))
        panel = make_panel(values)
        dist = sign_distance(panel)
        assert np.array_equal(dist.values, brute_hamming_distance(values))

    def test_equals_xor_weight(self):
        rng = np.random.default_rng(4)
        bits = rng.integers(0, 2, (6, 17)).astype(np.uint8)
        dist = hamming_distance(bits, [f"c{i}" for i in range(6)])
        for i in range(6):
            for j in range(6):
                assert dist.values[i, j] == float(np.bitwise_xor(bits[i], bits[j]).sum())

    @pytest.mark.parametrize("k", [1, 2, 69, 800])
    def test_bitwise_equal_to_broadcast_mismatch_count(self, k):
        bits = np.random.default_rng(k).integers(0, 2, (k, 121)).astype(np.uint8)
        dist = hamming_distance(bits, [f"c{i}" for i in range(k)])
        expected = (bits[:, None, :] != bits[None, :, :]).sum(axis=2).astype(float)
        assert np.array_equal(dist.values, expected)

    @pytest.mark.parametrize("k, t", [(300, 121), (800, 121), (300, 2000)])
    def test_blocked_product_matches_brute_oracle(self, k, t):
        # Sizes at which BLAS blocks the product. The pure-Python oracle is
        # too slow for every pair, so it checks all pairs among 24 countries
        # spread over the row blocks; a per-row count checks the rest.
        values = np.random.default_rng(k * t).normal(10, 1, (k, t + 1))
        dist = sign_distance(make_panel(values))
        rows = np.linspace(0, k - 1, 24).astype(int)
        assert np.array_equal(dist.values[np.ix_(rows, rows)],
                              brute_hamming_distance(values[rows]))
        bits = np.diff(values, axis=1) > 0
        assert np.array_equal(dist.values, [(row != bits).sum(axis=1) for row in bits])

    def test_non_binary_strings_rejected(self):
        with pytest.raises(ValidationError, match="only 0 and 1"):
            hamming_distance(np.array([[1, 0, 2], [1, 1, 0]]), ["a", "b"])

    def test_integer_valued_within_bounds(self, toy_panel):
        values = sign_distance(toy_panel).values
        assert np.array_equal(values, np.round(values))
        assert values.max() <= toy_panel.n_years - 1

    def test_no_strings_give_the_empty_matrix(self):
        for dist in (hamming_distance(np.empty((0, 121)), []), slope_distance(np.array([]), [])):
            assert dist.values.shape == (0, 0)
            assert dist.labels == ()

    def test_built_from_sign_sequences(self, toy_panel):
        diffs = panel_differences(toy_panel)
        signs = np.array([sign_sequence(diffs[i]) for i in range(toy_panel.n_countries)])
        direct = hamming_distance(signs, list(toy_panel.ids))
        assert np.array_equal(direct.values, sign_distance(toy_panel).values)


class TestSlopeSubsetLabels:
    def test_subset_matrix_carries_its_own_labels(self, toy_panel):
        fits = fit_panel_trends(toy_panel)
        kept = list(toy_panel.ids)[:4]
        dist = slope_distance(np.array([fits[c].slope for c in kept]), kept)
        assert dist.labels == tuple(kept)
        assert dist.size == 4


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal bit for bit: np.array_equal, and the same sign on every zero."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestInPlaceDistancesMatchOracles:
    """The in-place slope and Hamming matrices against the package's earlier
    code, which formed them through whole K x K temporaries."""

    @pytest.mark.parametrize("t", [1, 2, 17, 121])
    @pytest.mark.parametrize("k", [1, 2, 3, 69, 400])
    def test_hamming_on_random_strings(self, k, t):
        rng = np.random.default_rng(k * 1000 + t)
        bits = rng.integers(0, 2, (k, t)).astype(np.uint8)
        bits[::5] = 0  # all-0 rows
        bits[1::7] = 1  # all-1 rows
        ids = [f"c{i}" for i in range(k)]
        got = hamming_distance(bits, ids)
        assert bitwise_equal(got.values, two_product_hamming_distance(bits, ids).values)

    @pytest.mark.parametrize("fill", [0, 1])
    def test_hamming_on_constant_strings(self, fill):
        bits = np.full((4, 121), fill, dtype=np.uint8)
        ids = ["a", "b", "c", "d"]
        got = hamming_distance(bits, ids).values
        assert bitwise_equal(got, two_product_hamming_distance(bits, ids).values)
        assert bitwise_equal(got, np.zeros((4, 4)))

    def test_hamming_from_panel_signs(self, toy_panel):
        bits = list(sign_sequence(panel_differences(toy_panel)))
        assert bitwise_equal(sign_distance(toy_panel).values,
                             two_product_hamming_distance(bits, toy_panel.ids).values)

    @pytest.mark.parametrize("k", [1, 2, 3, 69, 400])
    def test_slope_on_random_slopes(self, k):
        rng = np.random.default_rng(k)
        slopes = rng.normal(0, 0.02, k)
        ids = [f"c{i}" for i in range(k)]
        assert bitwise_equal(slope_distance(slopes, ids).values,
                             broadcast_slope_distance(slopes, ids).values)

    def test_slope_with_gaps_near_overflow(self):
        # Gaps up to 1.6e308, just below the float range, and signed zeros.
        slopes = np.array([8e307, -8e307, 1e307, -0.0, 0.0, 5e-324, -5e-324])
        ids = [f"c{i}" for i in range(len(slopes))]
        got = slope_distance(slopes, ids).values
        assert bitwise_equal(got, broadcast_slope_distance(slopes, ids).values)
        assert got[0, 1] == 1.6e308

    def test_slope_gap_past_overflow_rejected_alike(self):
        slopes = np.array([1e308, -1e308])
        with np.errstate(over="ignore"):
            for build in (slope_distance, broadcast_slope_distance):
                with pytest.raises(ValidationError, match="non-finite entries"):
                    build(slopes, ["a", "b"])
