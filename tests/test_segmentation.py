"""Boundary detection, segment cutting and length equalization."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import segment_reference as ref
from melowave.segmentation import (
    ZERO_TOLERANCE,
    BoundarySet,
    Segments,
    constant_boundaries,
    cut_segments,
    equalize_interpolate,
    equalize_zero_pad,
    lbdm_boundaries,
    lbdm_profile,
    local_maxima_boundaries,
    zero_crossing_boundaries,
)
from melowave.signals import mean_normalize
from melowave.wavelet import haar_filter

from conftest import make_sequence, oracle_examples, random_sequence
from test_wavelet import window_means


class TestBoundarySet:
    def test_defaults_added(self):
        b = BoundarySet.from_interior([3, 1], 5)
        assert b.indices == (0, 1, 3, 5)

    def test_out_of_range_interior_dropped(self):
        assert BoundarySet.from_interior([0, 5, 7, -1], 5).indices == (0, 5)

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            BoundarySet((0, 2, 2, 5), 5)
        with pytest.raises(ValueError):
            BoundarySet((1, 5), 5)

    def test_long_invalid_sets_keep_their_messages(self):
        # thousands of edges, as one cut over every span of a corpus makes
        edges = tuple(range(0, 20_001, 2))
        BoundarySet(edges, 20_000)
        with pytest.raises(ValueError, match="^boundaries must be strictly increasing$"):
            BoundarySet(edges[:5_000] + edges[4_999:], 20_000)
        with pytest.raises(ValueError, match="^boundaries must be strictly increasing$"):
            BoundarySet(edges[:7_000] + (edges[7_001], edges[7_000]) + edges[7_002:], 20_000)
        with pytest.raises(ValueError, match="^boundaries must start at 0 and end at the signal "):
            BoundarySet(edges[1:], 20_000)
        with pytest.raises(ValueError, match="^boundaries must start at 0 and end at the signal "):
            BoundarySet(edges, 20_002)
        inside = BoundarySet.from_interior(np.arange(19_999, -3, -3), 20_000)
        assert inside.indices == (0, *range(1, 20_000, 3), 20_000)


class TestZeroCrossings:
    def test_sign_change(self):
        assert zero_crossing_boundaries(np.array([1.0, 1.0, -1.0, -1.0])).indices == (0, 2, 4)

    def test_all_positive(self):
        assert zero_crossing_boundaries(np.array([1.0, 2.0, 3.0])).indices == (0, 3)

    def test_exact_zero_is_boundary(self):
        assert zero_crossing_boundaries(np.array([1.0, 0.0, -1.0])).indices == (0, 1, 3)

    def test_equal_half_means_at_exact_zero(self, rng):
        found = 0
        for _ in range(200):
            length = int(rng.integers(8, 64))
            values = rng.integers(0, 128, size=length).astype(float)
            support = int(rng.choice([4, 8]))
            w = haar_filter(values, support)
            for i in np.nonzero(np.abs(w) <= 1e-12)[0]:
                first, second = window_means(values, support, int(i))
                assert abs(first - second) <= 1e-9
                found += 1
        assert found > 10  # the property was actually exercised


class TestLocalMaxima:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]) | st.floats(-3, 3), min_size=1,
                    max_size=30))
    def test_matches_oracle(self, values):
        # few distinct values, so plateaus and edge runs are common
        w = np.array(values)
        assert list(local_maxima_boundaries(w).indices) == [0, *ref.local_maxima(w), w.size]

    def test_two_peaks(self):
        assert local_maxima_boundaries(np.array([0.0, 2.0, 0.0, 3.0, 0.0])).indices == (0, 1, 3, 5)

    def test_monotone(self):
        assert local_maxima_boundaries(np.array([0.0, 1.0, 2.0, 3.0])).indices == (0, 4)

    def test_plateau_first_index(self):
        assert local_maxima_boundaries(np.array([0.0, 1.0, 1.0, 0.0])).indices == (0, 1, 4)

    def test_negative_maxima_count(self):
        assert local_maxima_boundaries(np.array([-5.0, -1.0, -3.0])).indices == (0, 1, 3)

    def test_edge_plateau_is_not_a_maximum(self):
        assert local_maxima_boundaries(np.array([1.0, 1.0, 0.0])).indices == (0, 3)

    def test_strictly_greater_than_neighbors(self, rng):
        for _ in range(30):
            w = rng.normal(size=int(rng.integers(4, 100)))
            for i in local_maxima_boundaries(w).indices[1:-1]:
                assert w[i] > w[i - 1]
                after = i
                while after + 1 < w.size and w[after + 1] == w[i]:
                    after += 1
                assert w[after + 1] < w[i]


class TestConstant:
    def test_even_split(self):
        assert constant_boundaries(16, 2, 4).indices == (0, 8, 16)

    def test_trailing_remainder_kept(self):
        assert constant_boundaries(10, 1, 4).indices == (0, 4, 8, 10)

    def test_step_at_least_length(self):
        assert constant_boundaries(6, 1, 10).indices == (0, 6)

    def test_non_integral_step_rejected(self):
        with pytest.raises(ValueError, match="whole number"):
            constant_boundaries(16, 2, Fraction(1, 3))


def oracle_lbdm(seq):
    """Straight transcription of the profile formulas, no vectorization."""
    events = seq.events
    n = len(events)
    if n < 2:
        return []
    params = {
        "pitch": [abs(events[i + 1].pitch_midi - events[i].pitch_midi) for i in range(n - 1)],
        "ioi": [float(events[i + 1].onset_qn - events[i].onset_qn) for i in range(n - 1)],
        "rest": [max(0.0, float(events[i + 1].onset_qn - events[i].end_qn)) for i in range(n - 1)],
    }
    profiles = {}
    for name, x in params.items():
        r = []
        for i in range(len(x) - 1):
            denom = x[i] + x[i + 1]
            r.append(abs(x[i] - x[i + 1]) / denom if denom else 0.0)
        s = []
        for i in range(len(x)):
            left = r[i - 1] if i - 1 >= 0 else 0.0
            right = r[i] if i < len(r) else 0.0
            s.append(x[i] * (left + right))
        top = max(s)
        profiles[name] = [v / top for v in s] if top > 0 else s
    combined = [
        0.25 * profiles["pitch"][i] + 0.5 * profiles["ioi"][i] + 0.25 * profiles["rest"][i]
        for i in range(n - 1)
    ]
    top = max(combined)
    return [v / top for v in combined] if top > 0 else combined


class TestLBDM:
    def test_single_note(self):
        seq = make_sequence([(0, 2, 60)])
        assert lbdm_boundaries(seq, 0.4, 2).indices == (0, 4)

    def test_octave_leap_dominates(self):
        # isochronous scale steps with one octave leap: only the leap
        # transition survives a 0.4 threshold
        pitches = [60, 62, 64, 65, 67, 79, 81, 83]
        seq = make_sequence([(i, 1, p) for i, p in enumerate(pitches)])
        strengths = oracle_lbdm(seq)
        assert strengths[4] == 1.0
        assert all(s < 0.4 for i, s in enumerate(strengths) if i != 4)
        # the leap lands on its target note's onset sample (5 qn * rate 2)
        assert lbdm_boundaries(seq, 0.4, 2).indices == (0, 10, 16)

    def test_profile_matches_oracle(self, rng):
        for _ in range(40):
            seq = random_sequence(rng, n_notes=int(rng.integers(2, 20)))
            got = lbdm_profile(seq)
            expected = oracle_lbdm(seq)
            assert np.allclose(got, expected, atol=1e-12)
            assert (got >= 0).all() and (got <= 1).all()

    def test_threshold_zero_keeps_every_positive_strength(self, rng):
        seq = random_sequence(rng, n_notes=12)
        strengths = lbdm_profile(seq)
        rate = 4
        expected = {
            math.ceil(seq.events[i + 1].onset_qn * rate)
            for i in range(len(strengths))
            if strengths[i] > 0
        }
        got = set(lbdm_boundaries(seq, 0.0, rate).indices) - {0, math.ceil(seq.total_duration_qn * rate)}
        assert got == {b for b in expected if 0 < b < math.ceil(seq.total_duration_qn * rate)}

    def test_threshold_validated(self):
        seq = make_sequence([(0, 1, 60), (1, 1, 62)])
        with pytest.raises(ValueError, match="threshold"):
            lbdm_boundaries(seq, 1.5, 2)


# coefficients with exact zeros, values at and just past the zero tolerance,
# and few distinct values, so that plateaus and sign changes meet the joins
JOINED_COEFFICIENTS = st.lists(
    st.lists(
        st.sampled_from([0.0, ZERO_TOLERANCE, -ZERO_TOLERANCE, 2e-12, -2e-12, 1.0, -1.0, 2.5]),
        min_size=1, max_size=7,
    ),
    min_size=1, max_size=6,
)


def joined(spans):
    """Spans laid end to end, the joins between them, and each span's first index."""
    edges = np.cumsum([0, *map(len, spans)])
    return np.concatenate([np.array(s, dtype=float) for s in spans]), edges[1:-1], edges[:-1]


def each_span(finder, spans, firsts, *args):
    """The union of ``finder``'s boundaries of each span on its own, shifted
    to where the span lies, as bytes."""
    parts = [np.add(finder(np.array(s, dtype=float), *args).indices, first)
             for s, first in zip(spans, firsts)]
    return np.unique(np.concatenate(parts)).tobytes()


class TestJoinedSpansMatchEachSpan:
    """A finder given spans laid end to end finds each span's boundaries as
    if it were alone: every join is a boundary, and no boundary rule reads
    across one."""

    @settings(max_examples=oracle_examples(300), deadline=None)
    @given(JOINED_COEFFICIENTS)
    def test_signal_finders(self, spans):
        coeffs, joins, firsts = joined(spans)
        for finder in (zero_crossing_boundaries, local_maxima_boundaries):
            got = np.array(finder(coeffs, joins).indices)
            assert got.tobytes() == each_span(finder, spans, firsts), finder.__name__

    @settings(max_examples=oracle_examples(100), deadline=None)
    @given(st.lists(st.integers(1, 20), min_size=1, max_size=6), st.integers(1, 6),
           st.sampled_from([1, 2, Fraction(5, 2)]))
    def test_constant_grid_starts_again_at_each_join(self, lengths, step, rate):
        spans = [[0.0] * n for n in lengths]
        _, joins, firsts = joined(spans)
        got = np.array(constant_boundaries(sum(lengths), rate, step / rate, joins).indices)

        def grid(coeffs, step_qn):
            return constant_boundaries(coeffs.size, rate, step_qn)

        assert got.tobytes() == each_span(grid, spans, firsts, step / rate)

    def test_plateau_and_sign_change_across_a_join(self):
        coeffs = np.array([0.0, 2.0, 2.0, 1.0, -1.0, 0.5, 0.0])
        # the plateau 2, 2 is a maximum at 1; cut by the join at 2, neither half is one
        assert local_maxima_boundaries(coeffs).indices == (0, 1, 5, 7)
        assert local_maxima_boundaries(coeffs, [2, 4]).indices == (0, 2, 4, 5, 7)
        # the sign change 1 | -1 across the join at 4 marks the join itself
        assert zero_crossing_boundaries(coeffs).indices == (0, 4, 5, 6, 7)
        assert zero_crossing_boundaries(coeffs, [4]).indices == (0, 4, 5, 6, 7)


class TestCutSegments:
    def test_basic(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        segs = cut_segments(values, BoundarySet((0, 2, 4), 4))
        assert [list(s) for s in segs] == [[1, 2], [3, 4]]

    def test_whole_vector(self):
        values = np.arange(5.0)
        (seg,) = cut_segments(values, BoundarySet((0, 5), 5))
        assert np.array_equal(seg, values)

    def test_unit_segments(self):
        values = np.arange(4.0)
        segs = cut_segments(values, BoundarySet(tuple(range(5)), 4))
        assert [len(s) for s in segs] == [1, 1, 1, 1]

    def test_concatenation_reconstructs(self, rng):
        for _ in range(20):
            values = rng.normal(size=int(rng.integers(2, 80)))
            interior = rng.choice(np.arange(1, values.size), size=min(5, values.size - 1), replace=False)
            bounds = BoundarySet.from_interior(interior.tolist(), values.size)
            segs = cut_segments(values, bounds)
            assert np.array_equal(np.concatenate(list(segs)), values)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            cut_segments(np.arange(3.0), BoundarySet((0, 4), 4))


def laid(segments):
    """1-D vectors as the ``Segments`` of their layout end to end; a vector
    may be empty."""
    segments = [np.asarray(s, dtype=float) for s in segments]
    edges = np.cumsum([0, *(s.size for s in segments)])
    return Segments(np.concatenate(segments) if segments else np.zeros(0), edges)


def resized(values, target):
    """``values`` resized by ``equalize_interpolate`` to ``target`` samples,
    at least its own length: the length of a second, all-zero segment."""
    return equalize_interpolate(laid([values, np.zeros(target)]), [None, None]).rows[0]


class TestEqualize:
    def test_zero_pad_to_longest(self):
        matrix = equalize_zero_pad(laid([np.arange(3.0), np.arange(5.0)]), ["a", "b"])
        assert matrix.rows.shape == (2, 5)
        assert list(matrix.rows[0]) == [0, 1, 2, 0, 0]
        assert matrix.labels == ("a", "b")

    def test_zero_pad_example(self):
        matrix = equalize_zero_pad(laid([np.array([2.0, -1.0]), np.ones(4)]), ["a", "b"])
        assert list(matrix.rows[0]) == [2, -1, 0, 0]

    def test_zero_pad_equal_lengths_unchanged(self, rng):
        segs = [rng.normal(size=4) for _ in range(3)]
        matrix = equalize_zero_pad(laid(segs), range(3))
        for seg, row in zip(segs, matrix.rows):
            assert np.array_equal(seg, row)

    def test_zero_pad_never_alters_prefix(self, rng):
        segs = [rng.normal(size=int(rng.integers(1, 9))) for _ in range(6)]
        matrix = equalize_zero_pad(laid(segs), range(6))
        for seg, row in zip(segs, matrix.rows):
            assert np.array_equal(row[: len(seg)], seg)

    def test_interpolate_example(self):
        assert list(resized(np.array([1.0, 2.0]), 4)) == [1, 1, 2, 2]
        matrix = equalize_interpolate(laid([np.array([1.0, 2.0]), np.arange(4.0)]), ["a", "b"])
        assert list(matrix.rows[0]) == [1, 1, 2, 2]
        assert matrix.labels == ("a", "b")

    def test_interpolate_matches_bruteforce(self, rng):
        # nearest input-sample center per output-sample center; exact ties
        # resolve to the later sample
        for _ in range(30):
            n = int(rng.integers(1, 12))
            target = n + int(rng.integers(0, 12))
            values = rng.normal(size=n)
            got = resized(values, target)
            for j in range(target):
                out_center = (j + 0.5) / target
                dists = [abs(out_center - (i + 0.5) / n) for i in range(n)]
                best = min(dists)
                candidates = [i for i, d in enumerate(dists) if abs(d - best) < 1e-12]
                assert got[j] == values[candidates[-1]]

    def test_interpolate_identity(self, rng):
        values = rng.normal(size=7)
        assert np.array_equal(resized(values, 7), values)

    def test_interpolate_preserves_ends_when_upsampling(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 10))
            target = n + int(rng.integers(0, 15))
            values = rng.normal(size=n)
            out = resized(values, target)
            assert out[0] == values[0] and out[-1] == values[-1]

    def test_interpolate_constant(self):
        out = resized(np.full(3, 2.5), 11)
        assert (out == 2.5).all()

    def test_empty_segment(self):
        # zero-padding gives an all-zero row; resizing has no sample to read
        assert list(equalize_zero_pad(laid([np.zeros(0), np.ones(2)]), "ab").rows[0]) == [0, 0]
        with pytest.raises(ValueError, match="^cannot resize an empty segment$"):
            equalize_interpolate(laid([np.ones(2), np.zeros(0)]), "ab")

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="no segments"):
            equalize_zero_pad(laid([]), [])
        with pytest.raises(ValueError, match="no segments"):
            equalize_interpolate(laid([]), [])


class TestSegmenterDecoupling:
    def test_equal_boundary_sets_give_equal_downstream_results(self, rng):
        # cut/equalize depend on the boundary set alone, not on which
        # segmenter produced it
        values = rng.integers(0, 128, size=16).astype(float)
        from_grid = constant_boundaries(16, 1, 4)
        from_hand = BoundarySet.from_interior([4, 8, 12], 16)
        assert from_grid == from_hand
        a = equalize_zero_pad(cut_segments(values, from_grid), "abcd")
        b = equalize_zero_pad(cut_segments(values, from_hand), "abcd")
        assert np.array_equal(a.rows, b.rows)
        assert a.labels == b.labels


@st.composite
def ragged_segments(draw):
    """1-40 segments. Lengths repeat from a small pool or are drawn anew, so
    one segment or many have a length; 1-sample segments are common. A
    segment is all zero, integer pitches, or floats at one drawn magnitude
    from tiny to large."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-300, 1e-8, 1.0, 1e8, 1e300]))
    pool = draw(st.lists(st.integers(1, 9) | st.integers(1, 600), min_size=1, max_size=3))
    segments = []
    for _ in range(draw(st.integers(1, 40))):
        length = draw(st.sampled_from(pool) | st.integers(1, 70))
        kind = draw(st.sampled_from(["zero", "pitch", "float"]))
        if kind == "zero":
            segments.append(np.zeros(length))
        elif kind == "pitch":
            segments.append(rng.integers(0, 128, length).astype(float))
        else:
            segments.append(rng.uniform(-1, 1, length) * scale)
    return segments


def cut_of(segments):
    """The segments laid end to end and cut again by ``cut_segments``."""
    edges = np.cumsum([0] + [s.size for s in segments]).tolist()
    return np.concatenate(segments), BoundarySet(tuple(edges), edges[-1])


def assert_rows_equal(got, expected):
    """Equal row by row, bit for bit."""
    got, expected = list(got), list(expected)
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBlocksMatchReference:
    """Cut, mean normalization and both equalizers on segments laid end to
    end against the segment-by-segment code of ``segment_reference``."""

    @settings(max_examples=oracle_examples(150), deadline=None)
    @given(ragged_segments())
    def test_cut_and_normalize(self, segments):
        values, bounds = cut_of(segments)
        expected = ref.cut_segments(values, bounds)
        assert_rows_equal(cut_segments(values, bounds), expected)
        normalized = cut_segments(mean_normalize(values, bounds.indices[1:-1]), bounds)
        assert_rows_equal(normalized, map(ref.mean_normalize, expected))
        assert_rows_equal(map(mean_normalize, segments), map(ref.mean_normalize, segments))

    @settings(max_examples=oracle_examples(150), deadline=None)
    @given(ragged_segments())
    def test_equalizers(self, segments):
        labels = list(range(len(segments)))
        cut = cut_segments(*cut_of(segments))
        for equalize, expected in ((equalize_zero_pad, ref.equalize_zero_pad),
                                   (equalize_interpolate, ref.equalize_interpolate)):
            want = expected(segments, labels)
            got = equalize(cut, labels)
            assert got.rows.tobytes() == want.rows.tobytes()
            assert got.rows.shape == want.rows.shape and got.labels == want.labels
