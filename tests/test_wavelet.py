"""Haar filtering against a naive per-shift inner-product oracle."""

import math
from fractions import Fraction

import numpy as np
import pytest

from melowave.signals import RestPolicy, sample_pitch_signal
from melowave.wavelet import haar_filter, scalogram, support_samples

from conftest import make_sequence, mirror_extended


def oracle_haar(values, support):
    """Direct per-shift evaluation of the inner product with the analyzing
    vector over the mirror-extended signal."""
    values = list(values)
    length = len(values)
    assert support <= 2 * length
    pad = min(length, support)
    padded = mirror_extended(values, pad)
    amp = 1.0 / math.sqrt(support)
    psi = [amp] * (support // 2) + [-amp] * (support // 2)
    offset = min(pad, 2 * pad - support + 1)
    out = []
    for u in range(length):
        window = padded[offset + u : offset + u + support]
        out.append(sum(p * w for p, w in zip(psi, window)))
    return out


def window_means(values, support, shift):
    """First-half and second-half means of the window behind coefficient
    ``shift``, on the same mirror-extended geometry."""
    values = list(values)
    length = len(values)
    pad = min(length, support)
    padded = mirror_extended(values, pad)
    offset = min(pad, 2 * pad - support + 1)
    start = offset + shift
    half = support // 2
    first = padded[start : start + half]
    second = padded[start + half : start + support]
    return sum(first) / half, sum(second) / half


def analyzing_vector(support):
    """The analyzing vector read back from the filter's impulse response:
    coefficient u of a unit impulse at sample p is psi[p - u]."""
    impulse = np.zeros(4 * support)
    p = 2 * support
    impulse[p] = 1.0
    coeffs = haar_filter(impulse, support)
    return coeffs[p - np.arange(support)]


class TestAnalyzingFunction:
    def test_support_4(self):
        vec = analyzing_vector(support_samples(Fraction(1, 2), 8))
        assert np.allclose(vec, [0.5, 0.5, -0.5, -0.5], rtol=0, atol=1e-15)

    def test_support_2(self):
        vec = analyzing_vector(2)
        assert np.allclose(vec, [1 / math.sqrt(2), -1 / math.sqrt(2)], rtol=0, atol=1e-15)

    def test_zero_sum_unit_energy(self):
        for support in (2, 4, 6, 8, 32, 100):
            vec = analyzing_vector(support)
            assert abs(vec.sum()) < 1e-12
            assert abs((vec**2).sum() - 1.0) < 1e-12

    def test_odd_support_rejected(self):
        # a whole but odd support (3/8 qn at rate 8) is rejected by the filter
        for support in (support_samples(Fraction(3, 8), 8), 0, -2):
            with pytest.raises(ValueError, match="even"):
                haar_filter(np.zeros(8), support)

    def test_fractional_support_rejected(self):
        with pytest.raises(
            ValueError, match=r"scale 1/3 qn at rate 8 gives a fractional support of 8/3"
        ):
            support_samples(Fraction(1, 3), 8)

    def test_scale_qn_round_trip(self):
        support = support_samples(4, 8)
        assert support == 32 and type(support) is int
        assert Fraction(support, 8) == 4
        assert support_samples(Fraction(3, 2), Fraction(4, 3)) == 2


class TestHaarFilter:
    def test_worked_example(self):
        # direct inner product at shift 0: 0.5*(1+1) - 0.5*(0+0) = 1.0
        values = np.array([1.0, 1.0, 0.0, 0.0])
        assert oracle_haar(values, 4)[0] == pytest.approx(1.0)
        assert haar_filter(values, 4)[0] == pytest.approx(1.0, abs=1e-12)

    def test_constant_annihilation(self):
        for length in (1, 2, 5, 64, 300):
            for support in (2, 8, 64, 512):
                if support > 2 * length:
                    continue
                w = haar_filter(np.full(length, 127.0), support)
                assert np.abs(w).max() <= 1e-12

    def test_matches_oracle(self, rng):
        for _ in range(60):
            length = int(rng.integers(2, 200))
            values = rng.integers(0, 128, size=length).astype(float)
            support = 2 * int(rng.integers(1, max(2, length // 2)))
            got = haar_filter(values, support)
            assert len(got) == length
            expected = oracle_haar(values, support)
            assert np.abs(got - np.array(expected)).max() <= 1e-9

    def test_matches_oracle_clamped_padding(self, rng):
        # supports between L+1 and 2L exercise the clamped window layout
        for _ in range(20):
            length = int(rng.integers(2, 40))
            values = rng.integers(0, 128, size=length).astype(float)
            support = 2 * int(rng.integers((length + 2) // 2, length + 1))
            assert support <= 2 * length
            got = haar_filter(values, support)
            expected = oracle_haar(values, support)
            assert np.abs(got - np.array(expected)).max() <= 1e-9

    def test_too_large_support_errors(self):
        with pytest.raises(ValueError, match="too short"):
            haar_filter(np.arange(4.0), 10)

    def test_empty_signal_errors(self):
        with pytest.raises(ValueError, match="empty"):
            haar_filter(np.array([]), 2)

    def test_linearity(self, rng):
        for _ in range(10):
            length = int(rng.integers(8, 120))
            x = rng.uniform(0, 127, size=length)
            y = rng.uniform(0, 127, size=length)
            a, b = rng.uniform(-3, 3, size=2)
            support = 2 * int(rng.integers(1, length // 2))
            lhs = haar_filter(a * x + b * y, support)
            rhs = a * haar_filter(x, support) + b * haar_filter(y, support)
            assert np.abs(lhs - rhs).max() <= 1e-9

    def test_transposition_invariance(self, rng):
        for _ in range(10):
            length = int(rng.integers(8, 120))
            x = rng.integers(0, 128, size=length).astype(float)
            c = float(rng.uniform(-60, 60))
            support = 2 * int(rng.integers(1, length // 2))
            assert np.abs(haar_filter(x + c, support) - haar_filter(x, support)).max() <= 1e-9

    def test_ascending_ramp_interior_negative(self):
        values = np.arange(64, dtype=float)
        for support in (2, 8, 16):
            w = haar_filter(values, support)
            interior = w[: 64 - support]  # windows fully inside the signal
            assert (interior < 0).all()

    def test_step_fall_max_at_straddle(self):
        # [h ... h, l ... l]: the window with the step at its midpoint wins
        values = np.array([80.0] * 32 + [60.0] * 32)
        for support in (8, 16):
            w = haar_filter(values, support)
            assert int(np.argmax(w)) == 32 - support // 2


class TestCoefficientSignal:
    def _signal(self):
        seq = make_sequence([(0, 4, 60), (4, 4, 72)])
        return sample_pitch_signal(seq, 8, RestPolicy.REPRESENT_ZERO)

    def test_length_preserved(self):
        signal = self._signal()
        for scale_qn in (Fraction(1, 2), 1, 2, 4):
            coeffs = haar_filter(signal, support_samples(scale_qn, 8))
            assert len(coeffs) == len(signal)


class TestScalogram:
    def test_constant_all_zero(self):
        seq = make_sequence([(0, 8, 60)])
        signal = sample_pitch_signal(seq, 8, RestPolicy.REPRESENT_ZERO)
        assert np.abs(scalogram(signal, [8, 16, 32])).max() <= 1e-12

    def test_single_scale_equals_abs_coefficients(self):
        signal = sample_pitch_signal(
            make_sequence([(0, 2, 60), (2, 2, 67), (4, 2, 64)]), 8, RestPolicy.REPRESENT_ZERO
        )
        matrix = scalogram(signal, [8])
        assert matrix.shape == (1, len(signal))
        assert np.array_equal(matrix[0], np.abs(haar_filter(signal, 8)))

    def test_dyadic_rows(self, rng):
        seq = make_sequence([(i, 1, int(p)) for i, p in enumerate(rng.integers(50, 80, 32))])
        signal = sample_pitch_signal(seq, 8, RestPolicy.REPRESENT_ZERO)
        supports = [support_samples(s, 8) for s in (1, 2, 4, 8, 16, 32)]
        matrix = scalogram(signal, supports)
        assert matrix.shape == (6, len(signal))
        assert (matrix >= 0).all()

    def test_empty_scales_rejected(self):
        signal = sample_pitch_signal(make_sequence([(0, 2, 60)]), 8, RestPolicy.REPRESENT_ZERO)
        with pytest.raises(ValueError, match="at least one scale"):
            scalogram(signal, [])
