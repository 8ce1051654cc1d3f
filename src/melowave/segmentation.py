"""Boundary detection and segment extraction.

Boundaries come from coefficient zero-crossings or local maxima, from a
constant grid, or from LBDM boundary strengths on the note stream. The
beginning and end of the signal are always boundaries. Segments are then
cut from any same-length vector as slices and equalized, by trailing
zero-padding or nearest-neighbor resizing, into labeled rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .classifier import LabeledCorpus
from .ingest import NoteSequence

ZERO_TOLERANCE = 1e-12  # coefficients of integer signals hit exact zeros


class Equalization(Enum):
    ZERO_PAD = "pad"
    INTERPOLATE = "interp"


@dataclass(frozen=True)
class BoundarySet:
    """Strictly increasing sample indices from 0 to the signal length."""

    indices: tuple[int, ...]
    length: int

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("boundary sets need a positive signal length")
        idx = self.indices
        if not idx or idx[0] != 0 or idx[-1] != self.length:
            raise ValueError("boundaries must start at 0 and end at the signal length")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("boundaries must be strictly increasing")

    @classmethod
    def from_interior(cls, interior: Iterable[int], length: int) -> "BoundarySet":
        inside = {int(i) for i in interior if 0 < i < length}
        return cls(tuple(sorted(inside | {0, length})), length)

    def __iter__(self):
        return iter(self.indices)

    def __len__(self) -> int:
        return len(self.indices)


def _coeff_values(coeffs: np.ndarray) -> np.ndarray:
    values = np.asarray(coeffs, dtype=float)
    if values.size == 0:
        raise ValueError("coefficient signal is empty")
    return values


def zero_crossing_boundaries(coeffs: np.ndarray) -> BoundarySet:
    """Boundaries where the coefficients change sign or are (near) zero.

    A sign change puts the boundary on the first index of the new sign;
    values within ZERO_TOLERANCE of zero are boundaries themselves.
    """
    w = _coeff_values(coeffs)
    signs = np.sign(w)
    interior = set(np.nonzero(signs[:-1] * signs[1:] < 0)[0] + 1)
    interior |= set(np.nonzero(np.abs(w) <= ZERO_TOLERANCE)[0])
    return BoundarySet.from_interior(interior, w.size)


def local_maxima_boundaries(coeffs: np.ndarray) -> BoundarySet:
    """Boundaries at strict interior local maxima of the coefficients.

    A plateau flanked by strictly smaller values yields one boundary at its
    first index. Negative-valued maxima count.
    """
    w = _coeff_values(coeffs)
    starts = np.flatnonzero(np.diff(w)) + 1  # every run of equal values but the first
    after = np.append(starts[1:], w.size)  # the index after each run
    rising = w[starts] > w[starts - 1]
    falling = (after < w.size) & (w[np.minimum(after, w.size - 1)] < w[starts])
    return BoundarySet.from_interior(starts[rising & falling], w.size)


def constant_boundaries(
    length_samples: int, rate: int | Fraction, step_qn: int | float | Fraction
) -> BoundarySet:
    """Boundaries on a constant grid; a shorter trailing remainder is kept."""
    step = Fraction(step_qn) * Fraction(rate)
    if step.denominator != 1 or step <= 0:
        raise ValueError(f"step of {step_qn} qn at rate {rate} is not a whole number of samples")
    return BoundarySet.from_interior(range(int(step), length_samples, int(step)), length_samples)


def lbdm_profile(seq: NoteSequence) -> np.ndarray:
    """Combined LBDM boundary strength per note transition, in [0, 1].

    Per transition, the pitch-interval, inter-onset and rest profiles get a
    degree of change r_i = |x_i - x_{i+1}| / (x_i + x_{i+1}) and strength
    x_i * (r_{i-1} + r_i); profiles are max-normalized and combined with
    weights 0.25/0.5/0.25, then max-normalized again.
    """
    if len(seq) < 2:
        return np.zeros(0)
    pitch = np.abs(np.diff(seq.pitches)).astype(float)
    ioi = np.diff(seq.onsets) / seq.division  # as float(Fraction): ticks are below 2**53
    rest = (seq.onsets[1:] - seq.ends[:-1]) / seq.division
    combined = (
        0.25 * _strength_profile(pitch)
        + 0.5 * _strength_profile(ioi)
        + 0.25 * _strength_profile(rest)
    )
    top = combined.max()
    return combined / top if top > 0 else combined


def _strength_profile(x: np.ndarray) -> np.ndarray:
    total = x[:-1] + x[1:]
    change = np.divide(
        np.abs(np.diff(x)), total, out=np.zeros(x.size - 1), where=total != 0
    )
    padded = np.concatenate(([0.0], change, [0.0]))
    strength = x * (padded[:-1] + padded[1:])
    top = strength.max()
    return strength / top if top > 0 else strength


def lbdm_boundaries(
    seq: NoteSequence, threshold: float, rate: int | Fraction
) -> BoundarySet:
    """Boundaries before every note whose LBDM strength exceeds the threshold."""
    if not 0 <= threshold <= 1:
        raise ValueError(f"LBDM threshold must be in [0, 1], got {threshold}")
    rate = Fraction(rate)
    strengths = lbdm_profile(seq)
    interior = seq.sample_index(seq.onsets[1:][strengths > threshold], rate)
    return BoundarySet.from_interior(interior, seq.sample_index(seq.total, rate))


def cut_segments(values: np.ndarray, boundaries: BoundarySet) -> list[np.ndarray]:
    """Cut a vector at the boundaries; concatenation reconstructs it exactly."""
    values = np.asarray(values, dtype=float)
    if values.size != boundaries.length:
        raise ValueError(
            f"boundaries are for length {boundaries.length}, vector has {values.size}"
        )
    return [values[a:b] for a, b in zip(boundaries.indices, boundaries.indices[1:])]


def equalize_zero_pad(
    segments: Sequence[np.ndarray], labels: Sequence, target_len: int | None = None
) -> LabeledCorpus:
    """Pad shorter segments with trailing zeros up to the target length."""
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


def nearest_resize(values: np.ndarray, target: int) -> np.ndarray:
    """Nearest-neighbor resize of a vector's index grid to a target length."""
    values = np.asarray(values, dtype=float)
    if target < 1:
        raise ValueError("target length must be at least 1")
    idx = np.floor((np.arange(target) + 0.5) * values.size / target).astype(int)
    return values[np.minimum(idx, values.size - 1)]


def equalize_interpolate(
    segments: Sequence[np.ndarray], labels: Sequence, target_len: int | None = None
) -> LabeledCorpus:
    """Resize every segment to the target length by nearest-neighbor interpolation."""
    if not segments:
        raise ValueError("no segments to equalize")
    target = max(len(s) for s in segments) if target_len is None else int(target_len)
    return LabeledCorpus(np.vstack([nearest_resize(s, target) for s in segments]), labels)
