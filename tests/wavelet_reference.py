"""The one-signal Haar filter: how melowave filtered before a call took
spans laid end to end. The tests compare the span filter with it, span by
span, bit for bit."""

import math

import numpy as np


def haar_filter(values, support):
    """Haar coefficients of one signal at one support in samples, mirror
    padded by min(L, m) samples at both ends."""
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
    centered = values - values.mean()
    if pad < length:  # one reflection per side, excluding the edge sample
        padded = np.concatenate((centered[pad:0:-1], centered, centered[-2 : -pad - 2 : -1]))
    else:  # np.pad reflects more than once when the padding is the whole signal
        padded = np.pad(centered, pad, mode="reflect") if length > 1 else np.zeros(1 + 2 * pad)
    full = np.convolve(padded, psi[::-1], mode="valid")
    offset = min(pad, 2 * pad - support + 1)
    return full[offset : offset + length]
