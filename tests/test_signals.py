"""Pitch-signal sampling, rest policies and mean normalization."""

import math
from fractions import Fraction

import numpy as np
import pytest

from melowave.signals import (
    RestPolicy,
    mean_normalize,
    mean_normalize_nonrest,
    resample_to_length,
    sample_pitch_signal,
)

from conftest import make_sequence, random_sequence


def oracle_samples(seq, rate, policy):
    """Reference sampler: walk every sample position independently."""
    rate = Fraction(rate)
    length = math.ceil(seq.total_duration_qn * rate)
    out = []
    for t in range(length):
        time = Fraction(t) / rate
        pitch = None
        for ev in seq.events:
            if ev.onset_qn <= time < ev.end_qn:
                pitch = ev.pitch_midi
                break
        if pitch is None:
            if policy is RestPolicy.REPRESENT_ZERO:
                pitch = 0
            else:
                before = [ev for ev in seq.events if ev.end_qn <= time]
                pitch = before[-1].pitch_midi if before else seq.events[0].pitch_midi
        out.append(float(pitch))
    return out


class TestSampling:
    def test_two_notes(self):
        seq = make_sequence([(0, 1, 60), (1, 1, 62)])
        sig = sample_pitch_signal(seq, 2, RestPolicy.REPRESENT_ZERO)
        assert list(sig) == [60, 60, 62, 62]

    def test_leading_rest_removed(self):
        seq = make_sequence([(1, 1, 60)])
        sig = sample_pitch_signal(seq, 1, RestPolicy.REMOVE)
        assert list(sig) == [60, 60]

    def test_leading_rest_zero(self):
        seq = make_sequence([(1, 1, 60)])
        sig = sample_pitch_signal(seq, 1, RestPolicy.REPRESENT_ZERO)
        assert list(sig) == [0, 60]

    def test_interior_rest_takes_preceding_pitch(self):
        seq = make_sequence([(0, 1, 60), (2, 1, 64)])
        sig = sample_pitch_signal(seq, 1, RestPolicy.REMOVE)
        assert list(sig) == [60, 60, 64]

    def test_trailing_gap_is_a_rest(self):
        seq = make_sequence([(0, 1, 60)], total=2)
        zero = sample_pitch_signal(seq, 2, RestPolicy.REPRESENT_ZERO)
        assert list(zero) == [60, 60, 0, 0]
        held = sample_pitch_signal(seq, 2, RestPolicy.REMOVE)
        assert list(held) == [60, 60, 60, 60]

    def test_length_is_ceil(self, rng):
        for _ in range(30):
            seq = random_sequence(rng)
            rate = int(rng.integers(1, 9))
            sig = sample_pitch_signal(seq, rate, RestPolicy.REPRESENT_ZERO)
            assert len(sig) == math.ceil(seq.total_duration_qn * rate)

    def test_matches_oracle(self, rng):
        for _ in range(30):
            seq = random_sequence(rng)
            rate = int(rng.integers(1, 9))
            for policy in RestPolicy:
                sig = sample_pitch_signal(seq, rate, policy)
                assert list(sig) == oracle_samples(seq, rate, policy)

    def test_remove_has_no_zeros(self, rng):
        for _ in range(20):
            seq = random_sequence(rng)
            sig = sample_pitch_signal(seq, 8, RestPolicy.REMOVE)
            assert (sig > 0).all()

    def test_empty_sequence_remove_errors(self):
        seq = make_sequence([], total=2)
        with pytest.raises(ValueError, match="no notes"):
            sample_pitch_signal(seq, 4, RestPolicy.REMOVE)

    def test_zero_duration_errors(self):
        seq = make_sequence([], total=0)
        with pytest.raises(ValueError, match="zero duration"):
            sample_pitch_signal(seq, 4, RestPolicy.REPRESENT_ZERO)

    def test_samples_immutable(self):
        # one song's signal is shared by every cell of a grid group
        seq = make_sequence([(0, 1, 60)])
        for sig in (
            sample_pitch_signal(seq, 2, RestPolicy.REPRESENT_ZERO),
            resample_to_length(seq, 4, RestPolicy.REPRESENT_ZERO),
        ):
            assert isinstance(sig, np.ndarray) and sig.ndim == 1 and sig.dtype == float
            with pytest.raises(ValueError):
                sig[0] = 1.0

    def test_rate_must_be_positive(self):
        for rate in (0, -1):
            with pytest.raises(ValueError, match="positive"):
                sample_pitch_signal(make_sequence([(0, 1, 60)]), rate, RestPolicy.REPRESENT_ZERO)


class TestResample:
    def test_constant(self):
        sig = resample_to_length(make_sequence([(0, 3, 60)]), 8, RestPolicy.REPRESENT_ZERO)
        assert list(sig) == [60] * 8

    def test_two_note_oracle_value(self):
        # piecewise-constant sampling oracle gives [60,60,62,62] for n=4
        seq = make_sequence([(0, 1, 60), (1, 1, 62)])
        assert oracle_samples(seq, Fraction(4) / seq.total_duration_qn,
                              RestPolicy.REPRESENT_ZERO) == [60, 60, 62, 62]
        sig = resample_to_length(seq, 4, RestPolicy.REPRESENT_ZERO)
        assert list(sig) == [60, 60, 62, 62]

    def test_length_1024(self, rng):
        seq = random_sequence(rng)
        sig = resample_to_length(seq, 1024, RestPolicy.REMOVE)
        assert len(sig) == 1024

    def test_identity_on_same_grid(self, rng):
        for _ in range(20):
            seq = random_sequence(rng, with_rests=False)
            rate = int(rng.integers(1, 5))
            n = seq.total_duration_qn * rate
            if n.denominator != 1:
                continue
            direct = sample_pitch_signal(seq, rate, RestPolicy.REPRESENT_ZERO)
            resampled = resample_to_length(seq, int(n), RestPolicy.REPRESENT_ZERO)
            assert np.array_equal(direct, resampled)

    def test_zero_duration_errors(self):
        with pytest.raises(ValueError, match="zero duration"):
            resample_to_length(make_sequence([], total=0), 4, RestPolicy.REPRESENT_ZERO)

    def test_bad_length(self):
        with pytest.raises(ValueError, match="at least 1"):
            resample_to_length(make_sequence([(0, 1, 60)]), 0, RestPolicy.REPRESENT_ZERO)


class TestMeanNormalize:
    def test_example(self):
        assert list(mean_normalize(np.array([60.0, 62.0, 64.0]))) == [-2, 0, 2]

    def test_constant(self):
        assert list(mean_normalize(np.array([5.0, 5.0]))) == [0, 0]

    def test_transposition_invariant(self, rng):
        for _ in range(20):
            x = rng.uniform(0, 127, size=int(rng.integers(1, 40)))
            c = float(rng.uniform(-50, 50))
            assert np.allclose(mean_normalize(x + c), mean_normalize(x), atol=1e-9)

    def test_zero_mean_and_idempotent(self, rng):
        for _ in range(20):
            x = rng.uniform(0, 127, size=int(rng.integers(1, 300)))
            out = mean_normalize(x)
            assert abs(out.mean()) <= 1e-9
            assert np.allclose(mean_normalize(out), out, atol=1e-12)

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="empty"):
            mean_normalize(np.array([]))

    def test_nonrest_variant_keeps_zeros(self):
        out = mean_normalize_nonrest(np.array([0.0, 60.0, 64.0, 0.0]))
        assert out[0] == 0 and out[3] == 0
        assert out[1] == -2 and out[2] == 2

    def test_nonrest_all_zero(self):
        assert list(mean_normalize_nonrest(np.zeros(4))) == [0, 0, 0, 0]
