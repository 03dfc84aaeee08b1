"""The lower-bound linkage against the cached-nearest-neighbour loop it
replaced, merge for merge and bit for bit."""
import numpy as np
import pytest

from starclust import DistanceMatrix, agglomerate, hamming_distance
from starclust.pipeline import _panel_slopes, _scheme_distance

from _oracles import copying_agglomerate
from conftest import generated_panel


def merge_keys(dendro):
    return [(m.left, m.right, m.size, m.height.hex()) for m in dendro.merges]


def assert_same_merges(dist):
    assert merge_keys(agglomerate(dist)) == merge_keys(copying_agglomerate(dist))


def random_matrix(rng, k, kind):
    """A symmetric K x K distance matrix of one kind: uniform floats, small
    integers, Hamming distances between short sign strings, or all tied at a
    value whose Lance-Williams means may round below it."""
    if kind == "float":
        raw = rng.random((k, k))
        values = (raw + raw.T) / 2.0
    elif kind == "integer":
        raw = rng.integers(0, 5, size=(k, k)).astype(float)
        values = np.minimum(raw, raw.T)
    elif kind == "signs":
        bits = rng.integers(0, 2, size=(k, int(rng.integers(1, 8)))).astype(np.uint8)
        values = hamming_distance(bits, [f"s{i}" for i in range(k)]).values.copy()
    else:
        values = np.full((k, k), [1.0, 2.0, 0.1, 0.3, 0.7][rng.integers(5)])
    np.fill_diagonal(values, 0.0)
    return values


KINDS = ("float", "integer", "signs", "tied")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("batch", range(10))
def test_random_matrices(kind, batch):
    # 10 batches of 50 matrices per kind: 2,000 in all, K from 2 to 40.
    rng = np.random.default_rng([KINDS.index(kind), batch])
    for n in range(50):
        k = int(rng.integers(2, 41))
        values = random_matrix(rng, k, kind)
        labels = [f"L{i:02d}" for i in range(k)]
        if n % 2:
            labels = [labels[i] for i in rng.permutation(k)]
        assert_same_merges(DistanceMatrix(metric="diff", labels=tuple(labels), values=values))


def test_merged_distance_rounding_below_both_inputs():
    # (1 * 0.7 + 2 * 0.7) / 3 rounds below 0.7: a's distance to the merged
    # pair falls under a's bound, which the merge must lower.
    values = np.full((5, 5), 5.0)
    values[0, :] = values[:, 0] = 0.7
    values[2, 3:] = values[3:, 2] = 0.2
    values[3, 4] = values[4, 3] = 0.1
    np.fill_diagonal(values, 0.0)
    for labels in (("a", "b", "c", "d1", "d2"), ("d2", "b", "d1", "c", "a")):
        assert_same_merges(DistanceMatrix(metric="diff", labels=labels, values=values))


def test_merged_row_rounding_below_the_merge_height():
    # a joins {b1, b2} at 0.7; c's distance to the new cluster,
    # (1 * 0.7 + 2 * 0.7) / 3, rounds below 0.7, and so below the merged
    # row's old bound. The next merge is (a-cluster, c) from a's row, not
    # (c, a-cluster) from c's.
    values = np.full((4, 4), 0.7)
    values[1, 2] = values[2, 1] = 0.1
    np.fill_diagonal(values, 0.0)
    dist = DistanceMatrix(metric="diff", labels=("a", "b1", "b2", "c"), values=values)
    below = (1 * 0.7 + 2 * 0.7) / 3
    assert below < 0.7
    assert merge_keys(agglomerate(dist)) == merge_keys(copying_agglomerate(dist)) == [
        (1, 2, 2, (0.1).hex()), (0, 4, 3, (0.7).hex()), (5, 3, 4, below.hex())]


@pytest.mark.parametrize("k", [168, 400, 800])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_scheme_matrices(seed, k):
    panel = generated_panel(seed, k)
    slopes, significant = _panel_slopes(panel)
    assert_same_merges(_scheme_distance(panel, "A", slopes, significant))
    for scheme in ("B", "C"):
        assert_same_merges(_scheme_distance(panel, scheme))
