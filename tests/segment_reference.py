"""The span-by-span and segment-by-segment references for the span
stages of the invention path: variation, representation, boundaries, cut,
normalizers and equalizers.

This is how melowave handled spans and segments before they were laid end
to end: each span of a part varied, represented and segmented on its own
(``part_span``), and its segments a list of 1-D slices, each
mean-normalized on its own, then padded or resized one segment at a time.
The boundaries of a span follow the rules of the README, walked sample by
sample; LBDM alone is found by the engine. The tests compare the span code
with it bit for bit.
"""

from fractions import Fraction

import numpy as np

from melowave import experiments
from melowave.classifier import LabeledCorpus
from melowave.contrapuntal import VariationKind, apply_variation, transform_sequence
from melowave.experiments import SegMethod
from melowave.segmentation import BoundarySet
from melowave.wavelet import support_samples

import wavelet_reference


def part_span(values, span_seq, variation, config):
    """One span of a part under a contrapuntal variation, represented per
    the config by the one-signal Haar filter, and its boundaries, found with
    the span as the only one."""
    if variation is not VariationKind.PRIME:
        values = apply_variation(values, variation)
        if span_seq is not None and len(span_seq):
            span_seq = transform_sequence(span_seq, variation)
    rep = np.asarray(values, dtype=float)
    if config.representation is experiments.Representation.WAVELET:
        support = support_samples(config.wavelet_rep_scale_qn, config.rate)
        rep = wavelet_reference.haar_filter(values, support)
    return rep, boundaries(values, span_seq, config.segmentation, config.rate)


def boundaries(values, span_seq, segmentation, rate) -> BoundarySet:
    """The boundaries of one span's pitch signal: the start, the end, and
    per method the interior ones that the walks below find. LBDM reads the
    span's notes through the engine."""
    method, param = segmentation.method, segmentation.param
    if method is SegMethod.LBDM:
        return experiments.find_boundaries(values, span_seq, segmentation, rate)
    length = len(values)
    interior = []
    if method is SegMethod.CONSTANT:
        step = Fraction(param) * Fraction(rate)
        if step.denominator != 1 or step <= 0:
            raise ValueError(f"step of {param} qn at rate {rate} is not a whole number of samples")
        interior = list(range(int(step), length, int(step)))
    elif method is not SegMethod.NONE:
        w = wavelet_reference.haar_filter(values, support_samples(param, rate)).tolist()
        finder = zero_crossings if method is SegMethod.WS_ZERO_CROSS else local_maxima
        interior = finder(w)
    return BoundarySet((0, *interior, length), length)


def zero_crossings(w) -> list[int]:
    """Where the sign changes, the first index of the new sign, and every
    index whose coefficient is within 1e-12 of zero."""
    return [i for i in range(1, len(w))
            if abs(w[i]) <= 1e-12 or (w[i - 1] < 0 < w[i]) or (w[i - 1] > 0 > w[i])]


def local_maxima(w) -> list[int]:
    """Walk the coefficients: a plateau (one value or a run of equal ones)
    that rises from its left neighbor and falls to its right one marks its
    first index; the first and last runs have no neighbor on one side."""
    interior = []
    i = 1
    while i < len(w) - 1:
        if w[i] > w[i - 1]:
            j = i
            while j + 1 < len(w) and w[j + 1] == w[i]:
                j += 1
            if j < len(w) - 1 and w[j + 1] < w[i]:
                interior.append(i)
            i = j + 1
        else:
            i += 1
    return interior


def cut_segments(values, boundaries) -> list[np.ndarray]:
    values = np.asarray(values, dtype=float)
    if values.size != boundaries.length:
        raise ValueError(
            f"boundaries are for length {boundaries.length}, vector has {values.size}"
        )
    return [values[a:b] for a, b in zip(boundaries.indices, boundaries.indices[1:])]


def mean_normalize(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("cannot normalize an empty vector")
    return values - values.mean()


def mean_normalize_nonrest(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("cannot normalize an empty vector")
    sounding = values != 0
    if not sounding.any():
        return np.zeros_like(values)
    out = values - values[sounding].mean()
    out[~sounding] = 0.0
    return out


def equalize_zero_pad(segments, labels, target=None) -> LabeledCorpus:
    """The segments padded to ``target`` samples, the longest's length
    unless given (the invention oracle equalizes each section on its own
    at the run's length)."""
    if not segments:
        raise ValueError("no segments to equalize")
    longest = max(len(s) for s in segments)
    target = longest if target is None else int(target)
    if longest > target:
        raise ValueError(f"segment of length {longest} exceeds target length {target}")
    rows = np.zeros((len(segments), target))
    for i, seg in enumerate(segments):
        rows[i, : len(seg)] = seg
    return LabeledCorpus(rows, labels)


def nearest_resize(values, target: int) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if target < 1:
        raise ValueError("target length must be at least 1")
    idx = np.floor((np.arange(target) + 0.5) * values.size / target).astype(int)
    return values[np.minimum(idx, values.size - 1)]


def equalize_interpolate(segments, labels, target=None) -> LabeledCorpus:
    """The segments resized to ``target`` samples, as ``equalize_zero_pad``."""
    if not segments:
        raise ValueError("no segments to equalize")
    target = max(len(s) for s in segments) if target is None else int(target)
    return LabeledCorpus(np.vstack([nearest_resize(s, target) for s in segments]), labels)
