"""Distances, the kNN decision and the pooled vote against pure-Python
oracles."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melowave import classifier, experiments
from melowave.classifier import (
    LabeledCorpus,
    Metric,
    Nearest,
    decide,
    distinct_rows,
    pairwise_distances,
    predict_from_distances,
    vote,
)

from conftest import oracle_examples
from nearest_reference import ReferenceNearest
from vote_reference import reference_vote


def oracle_metric(metric):
    if metric is Metric.EUCLIDEAN:
        return lambda a, b: math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
    return lambda a, b: sum(abs(x - y) for x, y in zip(a, b))


def oracle_decide(distances, labels, k):
    """Exhaustive sort with the same tie rules: neighbors ordered by
    (distance, insertion index), infinite distances excluded; a modal tie
    goes to the tied class whose nearest point comes first in that order."""
    scored = sorted((d, i) for i, d in enumerate(distances) if math.isfinite(d))
    top_k = [labels[i] for _, i in scored[: min(k, len(scored))]]
    votes = Counter(top_k)
    best = max(votes.values())
    tied = {label for label, count in votes.items() if count == best}
    if len(tied) == 1:
        return next(iter(tied))
    for _, i in scored:
        if labels[i] in tied:
            return labels[i]
    raise AssertionError


def expanded_predict(block, labels, ks):
    """The kNN decision over an expanded block, one column per corpus row:
    each row's first max(ks) finite entries in (distance, column) order,
    then the modal label of the first k, a modal tie going to the tied
    label that comes first."""
    block = np.atleast_2d(np.asarray(block, dtype=float))
    n_rows, n_cols = block.shape
    width = min(max(ks), n_cols)
    # each row's first `width` entries in (distance, column) order: those
    # below its width-th smallest distance, then its ties at that distance
    # in column order (a row with fewer non-NaN entries takes them all)
    kth = np.partition(block, width - 1, axis=1)[:, width - 1 : width]
    kth[np.isnan(kth)] = np.inf
    less = np.flatnonzero(block < kth)
    tied = np.flatnonzero(block == kth)
    tied_start = np.searchsorted(tied, np.arange(n_rows + 1) * n_cols)  # per row, in order
    n_less = np.bincount(less // n_cols, minlength=n_rows)
    n_tied = np.minimum(width - n_less, np.diff(tied_start))
    slot = np.arange(width)
    flat = np.concatenate((less, tied[(tied_start[:-1, None] + slot)[slot < n_tied[:, None]]]))
    rows, cols = np.divmod(flat, n_cols)
    dist = block.ravel()[flat]
    order = np.lexsort((cols, dist, rows))
    rows, cols, dist = rows[order], cols[order], dist[order]
    count = n_less + n_tied
    rank = np.arange(rows.size) - (np.cumsum(count) - count)[rows]
    nearest = np.zeros((n_rows, width), dtype=int)
    nearest_dist = np.full((n_rows, width), np.inf)
    nearest[rows, rank] = cols
    nearest_dist[rows, rank] = dist
    valid = np.isfinite(nearest_dist)
    codes: dict = {}
    code = np.array([codes.setdefault(labels[c], len(codes)) for c in nearest.ravel().tolist()])
    code = code.reshape(n_rows, width)
    # votes[r, k - 1, i]: votes of neighbor i's label among row r's first k finite neighbors
    same = (code[:, :, None] == code[:, None, :]) & valid[:, None, :]
    votes = np.cumsum(same, axis=2).transpose(0, 2, 1)
    winner = np.argmax(votes == votes.max(axis=2, keepdims=True), axis=2)
    chosen = nearest[np.arange(n_rows)[:, None], winner].T.tolist()
    return {k: [labels[c] for c in chosen[min(k, width) - 1]] for k in ks}


def oracle_knn(query, rows, labels, k, metric):
    dist = oracle_metric(metric)
    return oracle_decide([dist(query, row) for row in rows], labels, k)


def oracle_vote(row_labels, distance_rows):
    """Modal label of the rows; a tie goes to the tied class whose pooled
    finite distances, sorted ascending, come first (a shorter list reads
    +inf where it runs out); the first-voted tied class breaks the rest."""
    votes = Counter(row_labels)
    best = max(votes.values())
    tied = [label for label in votes if votes[label] == best]
    pooled = {
        label: sorted(
            d
            for row_label, row in zip(row_labels, distance_rows)
            if row_label == label
            for d in row
            if math.isfinite(d)
        )
        for label in tied
    }
    width = max(len(p) for p in pooled.values())
    return min(tied, key=lambda label: pooled[label] + [math.inf] * (width - len(pooled[label])))


def vote_one(row_labels, block, heads=None):
    """One item's modal label through ``vote``: its rows' labels, their
    distance block (or a function that returns it), one column per corpus
    row, and optionally each row's first w distances in ascending order."""
    codes: dict = {}
    code = np.array([[codes.setdefault(label, len(codes)) for label in row_labels]], dtype=int)
    if heads is None:
        heads = np.zeros((len(row_labels), 0))

    def rows_block(rows):
        full = np.asarray(block() if callable(block) else block, dtype=float)
        return full[rows], np.ones((len(rows), full.shape[1]), dtype=int)

    (winner,) = vote(code, np.array([0, len(row_labels)]), heads, rows_block)[0]
    return list(codes)[winner]


def knn(query, rows, labels, k, metric):
    """One query's label through the public path."""
    block = pairwise_distances(np.asarray(query, float)[None, :], rows, metric)
    return predict_from_distances(block, labels, (k,))[0][k][0]


def distance(a, b, metric):
    """One pair's distance through the public path."""
    return float(pairwise_distances(np.asarray(a, float), np.asarray(b, float), metric)[0, 0])


@st.composite
def distance_matrices(draw):
    """Matrices of 1-12 rows of one length (1-40): tie-heavy small
    integers, all-zero rows and arbitrary floats, so sums of differences
    round."""
    dim = draw(st.integers(1, 40))
    value = st.one_of(st.integers(0, 3).map(float), st.floats(-1e3, 1e3))
    row = st.one_of(
        st.just([0.0] * dim), st.lists(value, min_size=dim, max_size=dim)
    )
    return np.array(draw(st.lists(row, min_size=1, max_size=12)), dtype=float)


@st.composite
def padded_matrices(draw):
    """Zero-padded rows of one length (1-40): ragged effective lengths, then
    runs of 0.0 and -0.0, entries of extreme magnitude, and all-zero rows."""
    dim = draw(st.integers(1, 40))
    value = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -3.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324]),
        st.floats(-1e6, 1e6), st.floats(allow_nan=False, allow_infinity=False),
    )
    row = st.integers(0, dim).flatmap(lambda n: st.tuples(
        st.lists(value, min_size=n, max_size=n),
        st.lists(st.sampled_from([0.0, -0.0]), min_size=dim - n, max_size=dim - n),
    )).map(lambda parts: parts[0] + parts[1])
    return np.array(draw(st.lists(row, min_size=1, max_size=12)), dtype=float)


class TestDistances:
    def test_euclidean_345(self):
        assert distance([0.0, 0.0], [3.0, 4.0], Metric.EUCLIDEAN) == 5.0

    def test_cityblock_example(self):
        assert distance([1.0, 2.0], [4.0, 6.0], Metric.CITYBLOCK) == 7.0

    def test_identity(self, rng):
        x = rng.normal(size=9)
        for metric in Metric:
            assert distance(x, x, metric) == 0.0

    def test_one_dimensional_agreement(self, rng):
        for _ in range(10):
            a, b = rng.normal(size=2)
            for metric in Metric:
                assert distance([a], [b], metric) == pytest.approx(abs(a - b))

    def test_cityblock_dominates_euclidean(self, rng):
        for _ in range(20):
            a = rng.normal(size=int(rng.integers(1, 30)))
            b = rng.normal(size=a.size)
            assert distance(a, b, Metric.CITYBLOCK) >= distance(a, b, Metric.EUCLIDEAN) - 1e-12

    def test_length_mismatch(self):
        for metric in Metric:
            with pytest.raises(ValueError, match="length"):
                distance([1.0], [1.0, 2.0], metric)

    def test_pairwise_matches_scalar(self, rng):
        queries = rng.normal(size=(4, 6))
        rows = rng.normal(size=(7, 6))
        for metric in Metric:
            matrix = pairwise_distances(queries, rows, metric)
            fn = oracle_metric(metric)
            for i in range(4):
                for j in range(7):
                    assert matrix[i, j] == pytest.approx(fn(queries[i], rows[j]), abs=1e-9)


    @settings(max_examples=oracle_examples(300), deadline=None)
    @given(distance_matrices(), st.sampled_from(list(Metric)), st.data())
    def test_blocks_are_slices_of_one_symmetric_matrix(self, matrix, metric, data):
        # what the held-out tiles rely on: the matrix is symmetric bit for
        # bit, and any block of rows and columns (a tile, or its transpose)
        # is the same slice of it
        full = pairwise_distances(matrix, matrix, metric)
        assert np.array_equal(full, full.T)
        n = len(matrix)
        indices = st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)
        rows, cols = data.draw(indices), data.draw(indices)
        block = pairwise_distances(matrix[rows], matrix[cols], metric)
        assert np.array_equal(block, full[np.ix_(rows, cols)])
        a, b = sorted(data.draw(st.lists(st.integers(0, n), min_size=2, max_size=2)))
        c, d = sorted(data.draw(st.lists(st.integers(0, n), min_size=2, max_size=2)))
        if a < b and c < d:
            tile = pairwise_distances(matrix[a:b], matrix[c:d], metric)
            assert np.array_equal(tile, full[a:b, c:d])
            assert np.array_equal(tile.T, pairwise_distances(matrix[c:d], matrix[a:b], metric))

    @settings(max_examples=oracle_examples(300), deadline=None)
    @given(padded_matrices(), st.sampled_from(list(Metric)), st.data())
    def test_trimmed_tile_equals_untrimmed(self, matrix, metric, data):
        # what the held-out tiles rely on: cdist sums each pair in column
        # order, so columns that are zero in both bands change no sum, and a
        # tile read up to its rows' longest effective length is bit for bit
        # the whole tile; pdist (a band against itself) is cdist, diagonal too
        n = len(matrix)
        indices = st.lists(st.integers(0, n - 1), min_size=1, max_size=n)
        rows, cols = matrix[data.draw(indices)], matrix[data.draw(indices)]
        lengths = distinct_rows(np.concatenate((rows, cols))).lengths
        width = max(1, int(lengths.max()))
        whole = pairwise_distances(rows, cols, metric)
        trimmed = pairwise_distances(rows[:, :width], cols[:, :width], metric)
        assert whole.tobytes() == trimmed.tobytes()
        band = rows[:, :width]
        assert pairwise_distances(band, band, metric).tobytes() == pairwise_distances(
            band, band.copy(), metric
        ).tobytes()

    @settings(max_examples=oracle_examples(300), deadline=None)
    @given(distance_matrices(), st.sampled_from(list(Metric)), st.data())
    def test_pdist_equals_cdist_with_non_finite_rows(self, matrix, metric, data):
        matrix = matrix.copy()
        for value in data.draw(st.lists(st.sampled_from([np.inf, -np.inf, np.nan]), max_size=3)):
            n, dim = matrix.shape
            matrix[data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, dim - 1))] = value
        square = pairwise_distances(matrix, matrix, metric)
        whole = pairwise_distances(matrix, matrix.copy(), metric)
        assert np.array_equal(square, whole, equal_nan=True)
        assert np.array_equal(np.isnan(square), np.isnan(whole))


class TestCorpus:
    def test_row_label_alignment(self):
        with pytest.raises(ValueError, match="label"):
            LabeledCorpus(np.zeros((2, 3)), ("a",))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one row"):
            LabeledCorpus(np.zeros((0, 3)), ())


class TestKnnPredict:
    def test_nearest(self):
        rows = np.array([[0.0], [10.0]])
        assert knn([1.0], rows, ("A", "B"), 1, Metric.EUCLIDEAN) == "A"

    def test_equal_distance_tie_extends_to_next_nearest(self):
        rows = np.array([[-1.0], [1.0], [1.5]])
        block = pairwise_distances(np.array([[0.0]]), rows, Metric.EUCLIDEAN)
        assert predict_from_distances(block, ("A", "B", "A"), (1,))[0][1] == ["A"]
        assert block.min() == 1.0

    def test_majority(self):
        rows = np.array([[0.0], [0.5], [4.0]])
        assert knn([0.1], rows, ("A", "A", "B"), 3, Metric.CITYBLOCK) == "A"

    def test_modal_tie_goes_to_nearest(self):
        # k=2 votes tie A/B; A owns the nearest point
        rows = np.array([[0.0], [1.0], [5.0]])
        assert knn([0.0], rows, ("A", "B", "B"), 2, Metric.CITYBLOCK) == "A"

    def test_masked_entries_never_neighbors(self):
        block = np.array([[0.0, np.inf, 2.0], [np.inf, 5.0, 1.0]])
        assert predict_from_distances(block, ("A", "B", "C"), (1, 3))[0] == {
            1: ["A", "C"],
            3: ["A", "C"],
        }
        with pytest.raises(ValueError, match="no finite"):
            predict_from_distances(np.full((1, 2), np.inf), ("A", "B"), (1,))

    def test_k_validation(self):
        with pytest.raises(ValueError, match="k must be"):
            predict_from_distances(np.zeros((1, 1)), ("A",), (0,))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            knn([0.0], np.array([[0.0, 1.0]]), ("A",), 1, Metric.EUCLIDEAN)

    def test_matches_oracle_random(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 60))
            dim = int(rng.integers(1, 6))
            n_classes = int(rng.integers(1, 9))
            rows = rng.integers(0, 5, size=(n, dim)).astype(float)  # integer grid forces ties
            labels = tuple(f"c{int(i)}" for i in rng.integers(0, n_classes, size=n))
            query = rng.integers(0, 5, size=dim).astype(float)
            for metric in Metric:
                for k in range(1, 6):
                    got = knn(query, rows, labels, k, metric)
                    assert got == oracle_knn(query, rows, labels, k, metric)

    def test_k1_equals_k2(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 40))
            rows = rng.integers(0, 4, size=(n, 3)).astype(float)
            labels = tuple(f"c{int(i)}" for i in rng.integers(0, 6, size=n))
            queries = rng.integers(0, 4, size=(5, 3)).astype(float)
            for metric in Metric:
                block = pairwise_distances(queries, rows, metric)
                by_k, _ = predict_from_distances(block, labels, (1, 2))
                assert by_k[1] == by_k[2]

    def test_scaling_invariance(self, rng):
        rows = rng.normal(size=(30, 4))
        labels = tuple(f"c{int(i)}" for i in rng.integers(0, 5, size=30))
        query = rng.normal(size=4)
        for metric in Metric:
            base = knn(query, rows, labels, 3, metric)
            assert knn(query * 7.5, rows * 7.5, labels, 3, metric) == base

    def test_deterministic(self, rng):
        rows = rng.normal(size=(25, 3))
        labels = tuple(f"c{int(i)}" for i in rng.integers(0, 4, size=25))
        block = pairwise_distances(rng.normal(size=(6, 3)), rows, Metric.CITYBLOCK)
        first = predict_from_distances(block, labels, (1, 3))[0]
        assert predict_from_distances(block, labels, (3, 1))[0] == first


class TestVote:
    def test_majority(self):
        assert vote_one(["A", "A", "B"], np.array([[1.0], [2.0], [0.1]])) == "A"

    def test_tie_broken_by_smallest_distance(self):
        assert vote_one(["A", "B"], np.array([[0.5, 3.0], [0.9, 1.0]])) == "A"

    def test_tie_extends_outward(self):
        assert vote_one(["A", "B"], np.array([[0.5, 3.0], [0.5, 1.0]])) == "B"

    def test_single_prediction(self):
        assert vote_one(["Z"], np.array([[4.0]])) == "Z"

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="zero predictions"):
            vote_one([], np.zeros((0, 1)))

    def test_tie_pools_across_predictions(self):
        block = np.array([[1.0, 2.0], [0.6, 9.0], [0.5, 8.0], [3.0, 4.0]])
        # pooled: A -> [0.6, 1, 2, 9], B -> [0.5, 3, 4, 8]
        assert vote_one(["A", "A", "B", "B"], block) == "B"

    def test_tuple_labels(self):
        # (work, variation) labels, as the contrapuntal invention run gives
        prime, retro = ("w1", "P"), ("w1", "R")
        assert vote_one([prime, retro], np.array([[0.5, 3.0], [0.5, 1.0]])) == retro
        assert vote_one([retro, prime, prime, retro], np.ones((4, 2))) == retro

    def test_three_way_tie_settled_by_a_later_least_list(self):
        # pooled heads: A -> [1, 2], B -> [1, 2], C -> [1, 1.5]; C is the
        # only least list, so the heads settle the tie and no block is read
        heads = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 1.5]])
        assert vote_one(["A", "B", "C"], lambda: pytest.fail("block read"), heads) == "C"
        assert vote_one(["A", "B", "C"], heads) == "C"

    def test_equal_least_lists_go_to_the_first_prediction(self):
        # A and B pool [1, 2] and C [1, 3]: the heads tie A with B, and so
        # does the block, which the first-voted label breaks
        block = np.array([[1.0, 2.0], [2.0, 1.0], [3.0, 1.0]])
        heads = np.sort(block, axis=1)[:, :1]
        assert vote_one(["B", "A", "C"], block, heads) == "B"
        assert vote_one(["A", "B", "C"], block) == "A"

    def test_finite_counts_differ(self):
        # pooled: A -> [0, inf], B -> [0, 0]: B has a finite next-nearest point
        for missing in (np.inf, np.nan):
            block = np.array([[0.0, missing], [0.0, 0.0]])
            assert vote_one(["A", "B"], block) == "B"
            assert vote_one(["A", "B"], block, np.array([[0.0], [0.0]])) == "B"
            assert vote_one(["A", "B"], lambda: pytest.fail("block read"),
                        np.array([[0.0, np.inf], [0.0, 0.0]])) == "B"


@st.composite
def tie_heavy_blocks(draw):
    """Small-integer distance blocks (many exact ties) with whole columns
    masked to infinity (or NaN), as leave-one-out folds mask the held-out
    item, and single entries masked too, so rows differ in their number of
    finite entries; every row keeps at least one. Blocks may have fewer
    columns than the largest k."""
    n = draw(st.integers(1, 24))
    m = draw(st.integers(1, 6))
    labels = tuple(draw(st.lists(st.sampled_from("abcd"), min_size=n, max_size=n)))
    values = draw(st.lists(
        st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=m, max_size=m
    ))
    masked = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    entries = draw(st.lists(
        st.lists(st.booleans(), min_size=n, max_size=n), min_size=m, max_size=m
    ))
    block = np.array(values, dtype=float)
    mask = np.array(entries, dtype=bool)
    mask[:, sorted(masked)] = True
    kept = [draw(st.sampled_from(sorted(set(range(n)) - masked))) for _ in range(m)]
    mask[np.arange(m), kept] = False
    block[mask] = draw(st.sampled_from([np.inf, np.nan]))
    return block, labels


@st.composite
def duplicate_heavy_corpora(draw):
    """Corpora whose rows repeat: every row is one of 1-4 distinct
    small-integer vectors (exact distance ties), items own consecutive row
    ranges, and an item may repeat another item's rows outright. With few
    rows, a held-out item's queries have fewer usable rows than k."""
    dim = draw(st.integers(1, 3))
    vectors = draw(st.lists(
        st.lists(st.integers(0, 3), min_size=dim, max_size=dim), min_size=1, max_size=4
    ))
    items, labels, offsets = [], [], [0]
    for _ in range(draw(st.integers(2, 8))):
        if items and draw(st.booleans()):
            rows = draw(st.sampled_from(items))  # a repeat of an earlier item's rows
        else:
            rows = draw(st.lists(st.integers(0, len(vectors) - 1), min_size=1, max_size=4))
        items.append(rows)
        labels += draw(st.lists(st.sampled_from("abc"), min_size=len(rows), max_size=len(rows)))
        offsets.append(offsets[-1] + len(rows))
    matrix = np.array([vectors[v] for rows in items for v in rows], dtype=float)
    return matrix, tuple(labels), np.array(offsets)


@st.composite
def streamed_corpora(draw):
    """Duplicate-heavy corpora in which items may own a row that no other
    item has (with the item held out, a distinct row with every copy
    excluded); one case in two zero-padded, with every row ending in a run
    of 0.0 or -0.0 of its own length, some all zero; and, one case in four,
    with rows of +inf: a query row with no finite distance to classify
    against."""
    matrix, labels, offsets = draw(duplicate_heavy_corpora())
    matrix = matrix.copy()
    for i in draw(st.sets(st.integers(0, len(offsets) - 2))):
        matrix[offsets[i]] = 10.0 + i
    if draw(st.booleans()):  # copies stay copies: each distinct row is cut alike
        matrix = np.pad(matrix, ((0, 0), (0, draw(st.integers(0, 5)))))
        _, inverse = np.unique(matrix, axis=0, return_inverse=True)
        n = int(inverse.max()) + 1
        cuts = draw(st.lists(st.integers(0, matrix.shape[1]), min_size=n, max_size=n))
        zeros = draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=n, max_size=n))
        for r, v in enumerate(inverse.ravel()):
            matrix[r, cuts[v] :] = zeros[v]
    if draw(st.integers(0, 3)) == 0:
        matrix[sorted(draw(st.sets(st.integers(0, len(matrix) - 1), min_size=1, max_size=2)))] = np.inf
    return matrix, labels, offsets


def expanded_blocks(matrix, offsets, metric, held_out):
    """Each item's block against every corpus row, its own rows masked when held out."""
    blocks = []
    for a, b in zip(offsets, offsets[1:]):
        block = pairwise_distances(matrix[a:b], matrix, metric)
        if held_out:
            block[:, a:b] = np.inf
        blocks.append(block)
    return blocks


@st.composite
def merge_cases(draw):
    """One ``Nearest`` merge of width 1-5 and a budget of 0-10 copies.

    Corpus rows repeat 1-5 distinct zero-padded vectors of ragged effective
    length, with tails of 0.0 or -0.0, so one distinct row can have copies in
    many items, and items may each own a row near the first vector; items
    own consecutive rows, held out or not, and a query is a (distinct row,
    item) pair. The distances between the distinct rows have
    entries set to +inf, NaN, 0.0, -0.0, another entry's distance or its
    rounding twin (one ulp or 1e-14 above it), rectangles set to +inf or
    NaN, and rows of NaN. They arrive in tiles, in any order: with the
    queries apart, a grid of any row and column cuts; with the queries the
    corpus, the tiles on and above the diagonal of one cut, each one off it
    read down its columns too."""

    def edges(size):  # 0, any cuts in 1..size-1, then size
        inner = draw(st.sets(st.integers(1, size - 1))) if size > 1 else ()
        return [0, *sorted(inner), size]

    dim = draw(st.integers(1, 4))
    vectors = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.integers(0, dim))
        head = draw(st.lists(st.integers(-2, 2).map(float), min_size=n, max_size=n))
        vectors.append(head + [draw(st.sampled_from([0.0, -0.0]))] * (dim - n))
    # items of 1-4 rows; with ``near``, each also owns a row just off the
    # first vector, so the pairs of one distinct row mask different neighbors
    near, rows, offsets = draw(st.booleans()), [], [0]
    for i in range(draw(st.integers(1, 6))):
        ids = draw(st.lists(st.integers(0, len(vectors) - 1), min_size=1, max_size=4))
        mine = [vectors[v] for v in ids]
        if near:
            own = list(vectors[0])
            own[0] += draw(st.sampled_from([1e-14, 1e-3, 1.0])) * (i + 1)
            mine.insert(draw(st.integers(0, len(mine))), own)
        rows += mine
        offsets.append(len(rows))
    matrix, offsets = np.array(rows), np.array(offsets)
    groups = distinct_rows(matrix)
    dist = pairwise_distances(groups.rows, groups.rows, draw(st.sampled_from(list(Metric))))
    cells = st.integers(0, len(dist) - 1)
    for _ in range(draw(st.integers(0, dist.size))):
        r, c = draw(cells), draw(cells)
        equal = dist.flat[draw(st.integers(0, dist.size - 1))]
        twins = [np.nextafter(equal, np.inf), equal + 1e-14]
        dist[r, c] = draw(st.sampled_from([np.inf, np.nan, 0.0, -0.0, equal, *twins]))
    for value in draw(st.lists(st.sampled_from([np.inf, np.nan]), max_size=2)):  # rectangles
        r, c = sorted([draw(cells), draw(cells)]), sorted([draw(cells), draw(cells)])
        dist[r[0] : r[1] + 1, c[0] : c[1] + 1] = value
    dist[sorted(draw(st.sets(cells, max_size=2)))] = np.nan
    if draw(st.booleans()):  # the queries are the corpus
        bands = list(map(slice, (cuts := edges(len(dist)))[:-1], cuts[1:]))
        tiles = [(a, b, a.start < b.start) for a in bands for b in bands if a.start <= b.start]
    else:
        spans = [list(map(slice, cuts[:-1], cuts[1:])) for cuts in map(edges, dist.shape)]
        tiles = [(a, b, False) for a in spans[0] for b in spans[1]]
    # each row's (distinct row, item) pair, and the pairs of each distinct row
    n_items = len(offsets) - 1
    row_item = np.repeat(np.arange(n_items), np.diff(offsets))
    pairs = np.unique(groups.ids * n_items + row_item)
    queries = np.searchsorted(pairs, np.arange(len(dist) + 1) * n_items)
    bounds = offsets if draw(st.booleans()) else np.zeros_like(offsets)
    width, budget = draw(st.integers(1, 5)), draw(st.integers(0, 10))
    args = (groups.copies, groups.starts, queries, pairs % n_items, bounds, width, budget)
    return args, dist, draw(st.permutations(tiles))


def same_merges(kernels, dist, tiles):
    """Feeds each kernel the same tiles, each a copy, and checks that they
    hold the same buffer after every tile and the same neighbors after the
    last merge."""
    for rows, cols, both in tiles:
        for kernel in kernels:
            kernel.add(dist[rows, cols].copy(), rows, cols, both)
        ours, theirs = kernels
        assert ours.buffered == theirs.buffered and len(ours.buffer) == len(theirs.buffer)
        for mine, reference in zip(ours.buffer, theirs.buffer):
            assert all(np.array_equal(a, b) for a, b in zip(mine, reference))
        assert np.array_equal(ours.rows, theirs.rows) and np.array_equal(ours.dist, theirs.dist)
    for kernel in kernels:
        kernel.flush()
    assert np.array_equal(kernels[0].rows, kernels[1].rows)
    assert np.array_equal(kernels[0].dist, kernels[1].dist)


class TestKernelProperties:
    def test_equal_distance_in_a_later_tile_displaces_a_later_row(self):
        # corpus rows A, C, B, A: the first tile holds distinct rows A (copies
        # 0 and 3) and C (copy 1), the second B (copy 2). B's distance equals
        # the running second-nearest distance, that of copy 3 of A, and B's
        # row is smaller: (2.0, row 2) precedes (2.0, row 3), so it displaces
        # it. With a budget of one copy the first tile's entries merge when the
        # second tile's entry arrives, which then meets them after a flush.
        groups = distinct_rows(np.array([[0.0], [5.0], [1.0], [0.0]]))
        assert groups.ids.tolist() == [0, 1, 2, 0]
        item, nothing = np.zeros(1, dtype=int), np.zeros(2, dtype=int)
        nearest = Nearest(groups.copies, groups.starts, np.arange(2), item, nothing, 2, 1)
        nearest.add(np.array([[2.0, 5.0]]), slice(0, 1), slice(0, 2))
        assert nearest.rows.tolist() == [[0, 0]] and nearest.dist.tolist() == [[np.inf] * 2]
        nearest.add(np.array([[2.0]]), slice(0, 1), slice(2, 3))
        assert nearest.rows.tolist() == [[0, 3]] and nearest.dist.tolist() == [[2.0, 2.0]]
        nearest.flush()
        assert nearest.rows.tolist() == [[0, 2]] and nearest.dist.tolist() == [[2.0, 2.0]]

    @settings(max_examples=oracle_examples(300), deadline=None)
    @given(merge_cases())
    def test_add_buffers_like_the_reference(self, case):
        # comparing each distinct row of a tile once, with its pairs' loosest
        # bound, and filtering a bounded pair by its own bound before any
        # selection buffers exactly the entries that copying the tile out to
        # its pairs, masking and partitioning every entry does, across the
        # tile's columns too
        args, dist, tiles = case
        same_merges([Nearest(*args), ReferenceNearest(*args)], dist, tiles)

    def test_width_one_nan_and_inf_rows(self):
        # query 0 measures only NaN, query 1 only +inf, and query 2 NaN, then
        # +inf and 3.0, then 1.0 and 2.0: no NaN or +inf entry is buffered, a
        # NaN first block leaves query 2 without a bound, and of 1.0 and 2.0,
        # both within its bound 3.0, only 1.0 is buffered
        groups = distinct_rows(np.arange(5.0)[:, None])
        nan, inf = np.nan, np.inf
        dist = np.array([[nan] * 5, [inf] * 5, [nan, inf, 3.0, 1.0, 2.0]])
        blocks = [(slice(0, 3), slice(a, b), False) for a, b in ((0, 1), (1, 3), (3, 5))]
        # no item excludes rows; and the queries' item owns no row, the one before it all
        for item, bounds in ((np.zeros(3, dtype=int), np.zeros(2, dtype=int)),
                             (np.ones(3, dtype=int), np.array([0, 5, 5]))):
            kernel = Nearest(groups.copies, groups.starts, np.arange(4), item, bounds, 1, 10)
            buffered = []
            for queries, columns, _ in blocks:
                kernel.add(dist[queries, columns].copy(), queries, columns)
                buffered.append([b.tolist() for b in kernel.buffer[-1]])
            assert buffered == [[[], [], []], [[2], [2], [3.0]], [[2], [3], [1.0]]]
            kernels = [cls(groups.copies, groups.starts, np.arange(4), item, bounds, 1, 10)
                       for cls in (Nearest, ReferenceNearest)]
            same_merges(kernels, dist, blocks)
            assert kernels[0].dist.tolist() == [[inf], [inf], [1.0]]
            assert kernels[0].rows[2].tolist() == [3]

    def test_lengths_order_distinct_rows(self):
        # effective lengths 2, 0, 3, 2 and 0 (-0.0 counts as zero); the
        # zero rows are two distinct rows, 0.0 and -0.0
        matrix = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 5.0],
                           [0.0, 1.0, -0.0], [-0.0, 0.0, 0.0], [1.0, 2.0, 0.0]])
        groups = distinct_rows(matrix)
        assert groups.lengths.tolist() == [0, 0, 2, 2, 3]
        assert groups.ids.tolist() == [2, 0, 4, 3, 1, 2]
        assert groups.copies.tolist() == [1, 4, 0, 5, 3, 2]
        assert groups.starts.tolist() == [0, 1, 2, 4, 5, 6]
        assert np.array_equal(groups.rows, matrix[[1, 4, 0, 3, 2]])

    def test_item_without_rows_is_an_error(self):
        # an item's nearest distance is a minimum over its rows
        groups = distinct_rows(np.array([[0.0], [1.0], [2.0]]))
        items, offsets = [("a", "x"), ("b", "y"), ("c", "x")], np.array([0, 2, 2, 3])
        for held_out in (False, True):
            with pytest.raises(ValueError, match="cannot vote over zero predictions"):
                experiments._classify(
                    items, groups, offsets, groups, "xxy", Metric.CITYBLOCK, (1,), held_out
                )

    @settings(max_examples=oracle_examples(300), deadline=None)
    @given(st.data())
    def test_merge_key_orders_like_lexsort(self, data):
        # entries of one merge: repeated rows and columns, equal distances,
        # -0.0 beside 0.0, +inf and NaN
        n = data.draw(st.integers(1, 60))

        def column(values):
            return np.array(data.draw(st.lists(values, min_size=n, max_size=n)))

        rows, cols = column(st.integers(0, 5)), column(st.integers(0, 7))
        special = st.sampled_from([0.0, -0.0, 1.0, 2.5, 5e-324, 1e300, np.inf, np.nan])
        dists = column(st.one_of(special, st.floats(0, 10)))
        order = classifier._merge_order(rows, dists, cols, 8)
        assert order.tolist() == np.lexsort((cols, dists, rows)).tolist()

    @settings(max_examples=oracle_examples(300), deadline=None)
    @given(tie_heavy_blocks())
    def test_matches_oracles(self, case):
        block, labels = case
        ks = (1, 2, 3, 4, 5)
        by_k, nearest = predict_from_distances(block, labels, ks)
        assert expanded_predict(block, labels, ks) == by_k
        rows = block.tolist()
        for k in ks:
            expected = [oracle_decide(row, labels, k) for row in rows]
            assert by_k[k] == expected
            assert vote_one(by_k[k], block) == oracle_vote(expected, rows)
        assert nearest.tolist() == [min(d for d in row if math.isfinite(d)) for row in rows]

    @settings(max_examples=oracle_examples(300), deadline=None)
    @given(
        duplicate_heavy_corpora(), st.sampled_from(list(Metric)), st.booleans(),
        st.integers(1, 4), st.integers(1, 40),
    )
    def test_distinct_rows_match_expanded_block(self, corpus, metric, held_out, columns, budget):
        # every corpus row's decision from distances to the distinct rows
        # only, its own item's rows excluded when held out, against the
        # expanded-block kernel and the exhaustive oracle
        matrix, labels, offsets = corpus
        ks = (1, 2, 3, 4, 5)
        groups = distinct_rows(matrix)
        owner = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
        bounds = offsets if held_out else np.zeros_like(offsets)
        block = pairwise_distances(matrix, groups.rows, metric)
        each = np.arange(len(matrix) + 1)  # a query a row
        kernel = Nearest(groups.copies, groups.starts, each, owner, bounds, 5, budget)
        for first in range(0, block.shape[1], columns):  # blocks of `columns` distinct rows
            part = block[:, first : first + columns].copy()
            kernel.add(part, slice(0, len(matrix)), slice(first, first + part.shape[1]))
        kernel.flush()
        names, by_k = decide(kernel.rows, kernel.dist, labels, ks)
        by_k = {k: [names[c] for c in chosen] for k, chosen in by_k.items()}
        nearest = kernel.dist[:, 0]
        expanded = np.concatenate(expanded_blocks(matrix, offsets, metric, held_out))
        assert np.array_equal(block[:, groups.ids], pairwise_distances(matrix, matrix, metric))
        assert by_k == expanded_predict(expanded, labels, ks)
        rows = expanded.tolist()
        for k in ks:
            assert by_k[k] == [oracle_decide(row, labels, k) for row in rows]
        assert nearest.tolist() == [min(d for d in row if math.isfinite(d)) for row in rows]

    @settings(max_examples=oracle_examples(300), deadline=None)
    @given(
        streamed_corpora(), st.sampled_from(list(Metric)), st.booleans(), st.booleans(),
        st.integers(1, 40), st.sets(st.integers(1, 5), min_size=1),
    )
    def test_item_decisions_match_oracles(self, corpus, metric, held_out, apart, tile_entries, ks):
        # the experiments' decision loop in tiles of 1-40 entries, each read
        # up to its rows' longest effective length, whose neighbors merge in
        # batches of a quarter as many copies: with the queries the corpus it
        # measures the tiles on and above the diagonal and reads their
        # transposes; with the queries apart, every tile. Each item's rows
        # against the oracles on their expanded block, and the "no finite
        # distances" error exactly where a row has none.
        matrix, labels, offsets = corpus
        ks = sorted(ks)  # max(ks) neighbors a pair: with k = 1 alone, one
        items = [(f"i{i}", labels[a]) for i, a in enumerate(offsets[:-1])]
        blocks = expanded_blocks(matrix, offsets, metric, held_out)
        groups = distinct_rows(matrix)
        queries = distinct_rows(matrix) if apart else groups
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(experiments, "_CHUNK_ENTRIES", tile_entries)
            if any(not np.isfinite(row).any() for block in blocks for row in block):
                with pytest.raises(ValueError, match="no finite distances to classify against"):
                    experiments._classify(items, queries, offsets, groups, labels, metric, ks, held_out)
                return
            traces = experiments._classify(
                items, queries, offsets, groups, labels, metric, ks, held_out
            )
        for k in ks:
            expected = []
            for (item_id, label), block in zip(items, blocks):
                rows = block.tolist()
                predictions = expanded_predict(block, labels, (k,))[k]
                assert predictions == [oracle_decide(row, labels, k) for row in rows]
                nearest = min(d for row in rows for d in row if math.isfinite(d))
                expected.append((item_id, label, oracle_vote(predictions, rows), nearest))
            got = [(t.item_id, t.true_label, t.predicted_label, t.nearest_distance) for t in traces[k]]
            assert got == expected

    @settings(max_examples=oracle_examples(300), deadline=None)
    @given(tie_heavy_blocks(), st.integers(1, 5), st.data())
    def test_vote_with_heads_matches_oracle(self, case, width, data):
        # each row's first `width` finite distances settle a tie where they
        # can; the block is read for the rest
        block, _ = case
        # two to four classes, so ties are common and three-way ties occur
        works = [("w1", "P"), ("w1", "R"), ("w2", "P"), ("w2", "R")]
        classes = data.draw(st.sampled_from(["abcd", works]))
        labels = st.sampled_from(classes[: data.draw(st.integers(2, 4))])
        row_labels = data.draw(st.lists(labels, min_size=len(block), max_size=len(block)))
        heads = np.sort(np.where(np.isfinite(block), block, np.inf), axis=1)[:, :width]
        assert vote_one(row_labels, lambda: block, heads) == oracle_vote(row_labels, block.tolist())


@st.composite
def tie_cases(draw):
    """Items whose rows' predictions, under 1-3 k, tie between 2-10
    classes, with rows of other classes that have fewer votes; each item's
    distance block holds small integers (many exact ties), +inf or NaN, and
    may open every row with a run of zeros, so that the classes' pooled
    heads are equal and only the block settles them. Each column stands for
    0-3 corpus rows of its item: the block, and the heads (each row's first
    1-5 distances), read it expanded."""
    n_cols, width = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    n_ks = draw(st.integers(1, 3))
    codes, blocks, weights, offsets = [[] for _ in range(n_ks)], [], [], [0]
    for _ in range(draw(st.integers(1, 5))):
        n_tied, top = draw(st.integers(2, 10)), draw(st.integers(1, 3))
        rows = n_tied * top + draw(st.integers(0, 4))
        # the tied classes, then classes of fewer votes each (of one vote, they tie too)
        item = [c for c in range(n_tied) for _ in range(top)]
        item += [n_tied + e // max(1, top - 1) for e in range(rows - len(item))]
        for labels in codes:
            labels += draw(st.permutations(item))
        values = st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0, np.inf, np.nan]),
                          min_size=n_cols, max_size=n_cols)
        block = np.array(draw(st.lists(values, min_size=rows, max_size=rows)))
        if draw(st.booleans()):
            block[:, : draw(st.integers(1, n_cols))] = 0.0
        blocks.append(block)
        weights.append(draw(st.lists(st.integers(0, 3), min_size=n_cols, max_size=n_cols)))
        offsets.append(offsets[-1] + rows)
    return np.array(codes), np.array(offsets), blocks, np.array(weights), width


class TestTieSettlement:
    @settings(max_examples=oracle_examples(300), deadline=None)
    @given(tie_cases())
    def test_settles_like_the_per_tie_reference(self, case):
        # every tie of a batch, settled at once by pooled heads, then by the
        # count at the least pooled distance, then by the whole block, gets
        # the class that settling it alone gets from the heads and the
        # expanded block, and that the pooled-list oracle gets; the block is
        # read once at most, for rows of tied items only
        codes, offsets, blocks, weights, width = case
        expanded = [np.repeat(block, w, axis=1) for block, w in zip(blocks, weights)]
        heads = np.concatenate([  # +inf past a row's last finite distance
            np.sort(np.where(np.isfinite(e), e, np.inf), axis=1)[:, :width] for e in
            (np.pad(e, ((0, 0), (0, width)), constant_values=np.inf) for e in expanded)
        ])
        item = np.repeat(np.arange(len(blocks)), np.diff(offsets))
        reads = []

        def block(rows):
            reads.append(rows)
            dist = np.concatenate(blocks)[rows]
            return dist, weights[item[rows]]

        chosen = vote(codes, offsets, heads, block)
        assert len(reads) <= 1
        for k, labels in enumerate(codes.tolist()):
            for i, (a, b) in enumerate(zip(offsets.tolist(), offsets[1:].tolist())):
                mine, rows = labels[a:b], expanded[i]
                assert chosen[k, i] == reference_vote(mine, rows, heads[a:b])
                assert chosen[k, i] == oracle_vote(mine, rows.tolist())

    def test_ties_of_one_cell_read_one_block(self):
        # items 0 and 2 tie on equal heads; item 1 has a modal class. One
        # call reads the rows of both ties: item 0's class 1 pools more
        # zeros, and item 2's classes pool equal lists, which the class
        # predicted first breaks
        codes = np.array([[0, 1, 1, 1, 0, 3, 2, 2, 3]])
        offsets = np.array([0, 2, 5, 9])
        heads = np.zeros((9, 1))
        dist = np.array([[0.0, 1.0], [0.0, 0.0], [4.0, 4.0], [4.0, 4.0], [4.0, 4.0],
                         [0.0, 5.0], [0.0, 5.0], [5.0, 0.0], [5.0, 0.0]])
        reads = []

        def block(rows):
            reads.append(rows.tolist())
            return dist[rows], np.ones((len(rows), 2), dtype=int)

        assert vote(codes, offsets, heads, block).tolist() == [[1, 1, 3]]
        assert reads == [[0, 1, 5, 6, 7, 8]]


@st.composite
def twin_corpora(draw):
    """Streamed corpora in which up to three rows gain a rounding twin of an
    entry (one ulp or 1e-14 above it), so that distinct rows lie within
    1e-14 of each other, and, one case in eight, a row of NaN."""
    matrix, labels, offsets = draw(streamed_corpora())
    matrix = matrix.copy()
    for r in draw(st.sets(st.integers(0, len(matrix) - 1), max_size=3)):
        c = draw(st.integers(0, matrix.shape[1] - 1))
        matrix[r, c] = draw(st.sampled_from([np.nextafter(matrix[r, c], np.inf),
                                             matrix[r, c] + 1e-14]))
    if draw(st.integers(0, 7)) == 0:
        matrix[draw(st.integers(0, len(matrix) - 1))] = np.nan
    return matrix, labels, offsets


class TestOnePassMerge:
    @settings(max_examples=oracle_examples(300), deadline=None)
    @given(
        twin_corpora(), st.sampled_from(list(Metric)), st.booleans(), st.booleans(),
        st.integers(1, 40), st.sets(st.integers(1, 5), min_size=1),
    )
    def test_classify_matches_the_reference_merge(
        self, corpus, metric, held_out, apart, tile_entries, ks
    ):
        # the decision loop with each tile read once on distinct rows, and
        # with the reference that copies every tile out to its pairs: the
        # same final neighbors of every pair and the same traces, or the same
        # error. Tiles of 1-40 entries make bands of one to six distinct
        # rows, of unequal effective length, some owned by one item.
        matrix, labels, offsets = corpus
        ks = sorted(ks)
        items = [(f"i{i}", labels[a]) for i, a in enumerate(offsets[:-1])]
        groups = distinct_rows(matrix)
        queries = distinct_rows(matrix) if apart else groups
        results = []
        for kernel in (Nearest, ReferenceNearest):
            made = []

            class Recorded(kernel):
                def __init__(self, *args):
                    super().__init__(*args)
                    made.append(self)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(experiments, "_CHUNK_ENTRIES", tile_entries)
                patch.setattr(experiments, "Nearest", Recorded)
                try:
                    out = experiments._classify(
                        items, queries, offsets, groups, labels, metric, ks, held_out
                    )
                except ValueError as exc:
                    out = str(exc)
            (final,) = made
            results.append((out, final.rows, final.dist))
        (ours, rows, dist), (theirs, reference_rows, reference_dist) = results
        assert ours == theirs
        assert np.array_equal(rows, reference_rows)
        assert np.array_equal(dist, reference_dist)
