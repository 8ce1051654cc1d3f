"""The segment-by-segment reference for the block cut, normalizer and
equalizers.

This is how melowave cut, normalized and equalized segments before the
segments of one length became one block: a list of 1-D slices, each
mean-normalized on its own, then padded or resized one segment at a time.
The tests compare the block code with it bit for bit.
"""

import numpy as np

from melowave.classifier import LabeledCorpus


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
