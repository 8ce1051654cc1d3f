"""Single-scale continuous Haar wavelet filtering with mirror padding.

The analyzing vector for an even support of m samples is +1/sqrt(m) over the
first half and -1/sqrt(m) over the second half (zero sum, unit energy), so a
positive coefficient marks a fall in average pitch across its window. The
coefficient at shift u is the inner product of that vector with the
mirror-padded signal over the window starting at sample u; the output keeps
the source length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .signals import PitchSignal


@dataclass(frozen=True)
class WaveletScale:
    """A wavelet scale fixed to a sampling grid.

    The support in samples (scale_qn * rate) must be an even integer so the
    discrete wavelet has exactly zero sum.
    """

    support_samples: int
    rate: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "rate", Fraction(self.rate))
        m = self.support_samples
        if not isinstance(m, (int, np.integer)) or m < 2 or m % 2:
            raise ValueError(f"wavelet support must be an even integer >= 2, got {m!r}")
        object.__setattr__(self, "support_samples", int(m))
        if self.rate <= 0:
            raise ValueError("rate must be positive")

    @property
    def scale_qn(self) -> Fraction:
        return Fraction(self.support_samples) / self.rate

    @classmethod
    def from_qn(cls, scale_qn: int | float | Fraction, rate: int | Fraction) -> "WaveletScale":
        rate = Fraction(rate)
        support = Fraction(scale_qn) * rate
        if support.denominator != 1:
            raise ValueError(
                f"scale {scale_qn} qn at rate {rate} gives a fractional support of "
                f"{support} samples"
            )
        return cls(int(support), rate)


def _haar_vector(support: int) -> np.ndarray:
    if support < 2 or support % 2:
        raise ValueError(f"wavelet support must be an even integer >= 2, got {support}")
    amplitude = 1.0 / math.sqrt(support)
    vec = np.full(support, amplitude)
    vec[support // 2 :] = -amplitude
    return vec


def haar_filter(values: np.ndarray, support: int) -> np.ndarray:
    """Haar coefficients of a raw vector at one scale given in samples.

    Mirror padding of min(L, m) samples (reflection excluding the edge
    sample) is applied at both ends and removed again after the
    convolution, so the output has the input length.
    """
    values = np.asarray(values, dtype=float)
    length = values.size
    if length < 1:
        raise ValueError("cannot filter an empty signal")
    psi = _haar_vector(support)
    if support > 2 * length:
        raise ValueError(
            f"signal too short for the scale: support {support} exceeds "
            f"twice the signal length {length}"
        )
    pad = min(length, support)
    # the wavelet annihilates constants, so centering changes nothing
    # mathematically but keeps float error flat across scales
    centered = values - values.mean()
    padded = np.pad(centered, pad, mode="reflect") if length > 1 else np.zeros(1 + 2 * pad)
    full = np.convolve(padded, psi[::-1], mode="valid")
    # window of coefficient u starts at source sample u whenever the right
    # padding can support it; for support > L+1 the windows are clamped so
    # the last one ends at the padded edge
    offset = min(pad, 2 * pad - support + 1)
    return full[offset : offset + length]


def haar_coefficients(signal: PitchSignal, scale: WaveletScale) -> np.ndarray:
    """Haar coefficients of a pitch signal at one scale, one per sample."""
    if scale.rate != signal.rate:
        raise ValueError(
            f"scale rate {scale.rate} does not match signal rate {signal.rate}"
        )
    return haar_filter(signal.samples, scale.support_samples)


def scalogram(signal: PitchSignal, scales: list[WaveletScale]) -> np.ndarray:
    """Absolute coefficients, one row per scale, one column per shift."""
    if not scales:
        raise ValueError("at least one scale is required")
    return np.abs([haar_coefficients(signal, s) for s in scales])
