"""Inversion, retrograde and retrograde inversion."""

import itertools

import numpy as np
import pytest

from melowave.contrapuntal import (
    VariationKind,
    apply_variation,
    invert,
    retrograde,
    retrograde_inversion,
    transform_sequence,
)
from melowave.signals import RestPolicy, mean_normalize, sample_pitch_signal
from melowave.wavelet import haar_filter

from conftest import make_sequence, random_sequence


class TestBasics:
    def test_invert_mean_normalized(self):
        assert list(invert(np.array([2.0, -1.0, -1.0]))) == [-2, 1, 1]

    def test_invert_constant_fixed_point(self):
        assert list(invert(np.full(4, 7.0))) == [7, 7, 7, 7]

    def test_retrograde(self):
        assert list(retrograde(np.array([1.0, 2.0, 3.0]))) == [3, 2, 1]

    def test_retrograde_palindrome(self):
        x = np.array([1.0, 2.0, 1.0])
        assert list(retrograde(x)) == list(x)

    def test_retrograde_inversion_example(self):
        assert list(retrograde_inversion(np.array([2.0, -1.0, -1.0]))) == [1, 1, -2]

    def test_empty_rejected(self):
        for fn in (invert, retrograde, retrograde_inversion):
            with pytest.raises(ValueError, match="empty"):
                fn(np.array([]))


class TestAlgebra:
    def test_involutions(self, rng):
        for fn in (invert, retrograde, retrograde_inversion):
            for _ in range(10):
                x = rng.uniform(0, 127, size=int(rng.integers(1, 50)))
                assert np.allclose(fn(fn(x)), x, atol=1e-9)

    def test_commutativity(self, rng):
        for _ in range(10):
            x = rng.uniform(0, 127, size=int(rng.integers(1, 50)))
            assert np.allclose(invert(retrograde(x)), retrograde(invert(x)), atol=1e-9)

    def test_klein_group_table(self, rng):
        P, I, R, RI = (
            VariationKind.PRIME,
            VariationKind.INVERSION,
            VariationKind.RETROGRADE,
            VariationKind.RETROGRADE_INVERSION,
        )
        # row a, column b: the kind equal to applying b first and a second
        table = {
            P: {P: P, I: I, R: R, RI: RI},
            I: {P: I, I: P, R: RI, RI: R},
            R: {P: R, I: RI, R: P, RI: I},
            RI: {P: RI, I: R, R: I, RI: P},
        }
        x = rng.uniform(0, 127, size=17)
        for a, b in itertools.product(VariationKind, repeat=2):
            composed = apply_variation(apply_variation(x, b), a)
            direct = apply_variation(x, table[a][b])
            assert np.allclose(composed, direct, atol=1e-9), (a, b)

    def test_length_and_deviation_multiset_preserved(self, rng):
        for kind in VariationKind:
            x = rng.uniform(0, 127, size=23)
            y = apply_variation(x, kind)
            assert len(y) == len(x)
            dev_x = np.sort(np.abs(x - x.mean()))
            dev_y = np.sort(np.abs(y - y.mean()))
            assert np.allclose(dev_x, dev_y, atol=1e-9)


class TestPipelineProperties:
    def test_haar_of_inversion_is_negated(self, rng):
        for _ in range(10):
            x = rng.integers(0, 128, size=64).astype(float)
            support = int(rng.choice([4, 8, 16]))
            assert np.allclose(
                haar_filter(invert(x), support), -haar_filter(x, support), atol=1e-9
            )

    def test_axis_choice_invisible_after_normalization(self, rng):
        x = rng.integers(40, 90, size=32).astype(float)
        for axis in (0.0, 60.0, 81.5):
            reflected = 2 * axis - x
            assert np.allclose(
                mean_normalize(reflected), mean_normalize(invert(x)), atol=1e-9
            )


class TestSequenceTransforms:
    def test_retrograde_notes_mirror_signal(self, rng):
        for _ in range(10):
            seq = random_sequence(rng, with_rests=False)
            sig = sample_pitch_signal(seq, 4, RestPolicy.REPRESENT_ZERO)
            rseq = transform_sequence(seq, VariationKind.RETROGRADE)
            rsig = sample_pitch_signal(rseq, 4, RestPolicy.REPRESENT_ZERO)
            assert np.array_equal(rsig, sig[::-1])

    def test_inversion_keeps_timing(self):
        seq = make_sequence([(0, 1, 60), (1, 2, 72)])
        out = transform_sequence(seq, VariationKind.INVERSION)
        assert [(e.onset_qn, e.duration_qn) for e in out.events] == [(0, 1), (1, 2)]
        assert out.events[0].pitch_midi + out.events[1].pitch_midi == 60 + 72

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            transform_sequence(make_sequence([], total=1), VariationKind.RETROGRADE)
