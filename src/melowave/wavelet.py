"""Single-scale continuous Haar wavelet filtering with mirror padding.

The analyzing vector for an even support of m samples is +1/sqrt(m) over the
first half and -1/sqrt(m) over the second half (zero sum, unit energy), so a
positive coefficient marks a fall in average pitch across its window. The
coefficient at shift u is the inner product of that vector with the
mirror-padded signal over the window starting at sample u; the output keeps
the source length. Signals are plain arrays and a scale is its support in
samples; ``support_samples`` converts a scale in quarter notes on a grid of
``rate`` samples per quarter note.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def support_samples(scale_qn: int | float | Fraction, rate: int | Fraction) -> int:
    """The support in samples of a scale in quarter notes on a grid of
    ``rate`` samples per quarter note; it must come out a whole number."""
    rate = Fraction(rate)
    support = Fraction(scale_qn) * rate
    if support.denominator != 1:
        raise ValueError(
            f"scale {scale_qn} qn at rate {rate} gives a fractional support of "
            f"{support} samples"
        )
    return int(support)


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
    if support < 2 or support % 2:
        raise ValueError(f"wavelet support must be an even integer >= 2, got {support}")
    amplitude = 1.0 / math.sqrt(support)
    psi = np.full(support, amplitude)
    psi[support // 2 :] = -amplitude
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


def scalogram(values: np.ndarray, supports: list[int]) -> np.ndarray:
    """Absolute coefficients, one row per support, one column per shift."""
    if not supports:
        raise ValueError("at least one scale is required")
    return np.abs([haar_filter(values, m) for m in supports])
