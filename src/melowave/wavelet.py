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
from typing import Sequence

import numpy as np

from .signals import mean_normalize


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


def haar_filter(values: np.ndarray, support: int, joins: Sequence[int] = ()) -> np.ndarray:
    """Haar coefficients of a raw vector at one scale given in samples.

    Given ``joins``, where spans laid end to end meet, each span is filtered
    on its own, as the whole vector would be: centered on its own mean,
    mirror-padded by min(L, m) samples at both ends (reflection excluding
    the edge sample, as often as the padding needs) and cut back to its
    length L after the convolution, so the output has the input length.
    """
    values = np.asarray(values, dtype=float)
    if values.size < 1:
        raise ValueError("cannot filter an empty signal")
    if support < 2 or support % 2:
        raise ValueError(f"wavelet support must be an even integer >= 2, got {support}")
    edges = np.array([0, *joins, values.size])
    lengths = np.diff(edges)
    short = lengths[2 * lengths < support]
    if short.size:  # the first span that fails, as span by span
        raise ValueError(
            f"signal too short for the scale: support {support} exceeds "
            f"twice the signal length {short[0]}"
        )
    psi = np.repeat([1.0, -1.0], support // 2) / math.sqrt(support)
    # the wavelet annihilates constants, so centering changes nothing
    # mathematically but keeps float error flat across scales
    centered = mean_normalize(values, joins)
    pads = np.minimum(lengths, support)
    sizes = lengths + 2 * pads  # the padded spans, laid end to end
    starts = np.cumsum(sizes) - sizes
    span = np.repeat(np.arange(lengths.size), sizes)
    # each padded sample's place in its span, reflected with period 2(L - 1)
    period = np.maximum(2 * lengths - 2, 1)[span]
    at = (np.arange(sizes.sum()) - (starts + pads)[span]) % period
    padded = centered[edges[span] + np.minimum(at, period - at)]
    full = np.convolve(padded, psi[::-1], mode="valid")
    # window of coefficient u starts at source sample u whenever the right
    # padding can support it; for support > L+1 the windows are clamped so
    # the last one ends at the padded edge
    first = starts + np.minimum(pads, 2 * pads - support + 1)
    return full[np.arange(values.size) + np.repeat(first - edges[:-1], lengths)]


def scalogram(values: np.ndarray, supports: list[int]) -> np.ndarray:
    """Absolute coefficients, one row per support, one column per shift."""
    if not supports:
        raise ValueError("at least one scale is required")
    return np.abs([haar_filter(values, m) for m in supports])
