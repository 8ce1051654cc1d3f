"""The span-by-span and segment-by-segment references for the span
stages of the invention path: variation, representation, boundaries, cut,
normalizers and equalizers.

This is how melowave handled spans and segments before they were laid end
to end: each span of a part varied, represented and segmented on its own
(``part_span``), and its segments a list of 1-D slices, each
mean-normalized on its own, then padded or resized one segment at a time.
The tests compare the span code with it bit for bit.
"""

import numpy as np

from melowave import experiments
from melowave.classifier import LabeledCorpus
from melowave.contrapuntal import VariationKind, apply_variation, transform_sequence
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
    return rep, experiments.find_boundaries(values, span_seq, config.segmentation, config.rate)


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


def equalize_zero_pad(segments, labels, target_len=None) -> LabeledCorpus:
    if not segments:
        raise ValueError("no segments to equalize")
    longest = max(len(s) for s in segments)
    target = longest if target_len is None else int(target_len)
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


def equalize_interpolate(segments, labels, target_len=None) -> LabeledCorpus:
    if not segments:
        raise ValueError("no segments to equalize")
    target = max(len(s) for s in segments) if target_len is None else int(target_len)
    return LabeledCorpus(np.vstack([nearest_resize(s, target) for s in segments]), labels)
